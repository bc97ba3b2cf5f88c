"""How two lines of P^3 lie: equal, meeting in one point, or disjoint.

Shared by the lines tests and the acceptance suite.
"""

# an entry, or the determinant relative to the largest entry squared, at
# most this counts as zero
INCIDENCE_TOL = 1e-9


def incidence(l1, l2) -> str:
    """"equal", "point" or "disjoint", from the rank of the 2x2 matrix of
    l1's two forms applied to l2's two spanning points: rank 0, 1 or 2.

    l2's points span it, so the matrix is 0 when l2 lies in l1, has a
    one-point kernel when l2 meets l1 in a point, and is invertible when
    the lines are disjoint.  Both lines' forms and points have largest
    modulus 1, so the entries are of modulus at most 4.
    """
    (a, b), (c, d) = ([sum(f * x for f, x in zip(form, p)) for p in l2.spanning_points()]
                      for form in (l1.form1, l1.form2))
    top = max(abs(a), abs(b), abs(c), abs(d))
    if top <= INCIDENCE_TOL:
        return "equal"
    return "point" if abs(a * d - b * c) <= INCIDENCE_TOL * top * top else "disjoint"
