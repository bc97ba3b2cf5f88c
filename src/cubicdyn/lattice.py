"""Exact rank-7 Lorentz lattice and the induced actions on cohomology.

The second cohomology of the compactified cubic surface is the free
lattice on (E0, E1, ..., E6) with intersection form diag(1, -1, ..., -1).
The pull-backs sigma_i^* are reconstructed from first principles
(intersection data of the swapped lines, the symmetry of the form, and
the blow-down relation); this is their only source here, and the tests
compare it entrywise with the printed matrices.  The composition
c^* = sigma3^* sigma2^* sigma1^* has characteristic polynomial
x (x+1)^4 (x^2 - 4x - 1) and spectral radius 2 + sqrt(5).

Everything here is exact integer arithmetic (arbitrary precision); only
spectral_radius returns a float, from the roots of an exact squarefree
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "CohomClass",
    "LatticeEndo",
    "LineLabel",
    "intersection",
    "class_of",
    "sigma_star",
    "coxeter_star",
    "charpoly",
    "spectral_radius",
    "trace_power",
    "eigenvector_checks",
]

RANK = 7

# Signature of the intersection form in the basis (E0, E1..E6).
_DELTA = (1, -1, -1, -1, -1, -1, -1)


@dataclass(frozen=True)
class CohomClass:
    """An integer cohomology class in the basis (E0, E1, ..., E6)."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        if len(c) != RANK:
            raise ValueError("a cohomology class has seven coordinates")
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other):
        return CohomClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs)


@dataclass(frozen=True)
class LineLabel:
    """Classical label of one of the 27 lines: E_a, G_a or F_{ab}."""

    kind: str
    indices: tuple

    def __post_init__(self):
        idx = tuple(int(v) for v in self.indices)
        if self.kind in ("E", "G"):
            if len(idx) != 1 or not 1 <= idx[0] <= 6:
                raise ValueError(f"{self.kind} label takes one index in 1..6")
        elif self.kind == "F":
            if len(idx) != 2 or idx[0] == idx[1] or not all(1 <= a <= 6 for a in idx):
                raise ValueError("F label takes two distinct indices in 1..6")
            idx = tuple(sorted(idx))
        else:
            raise ValueError(f"unknown line kind {self.kind!r}")
        object.__setattr__(self, "indices", idx)

    def __str__(self):
        return self.kind + "".join(str(a) for a in self.indices)


def intersection(u: CohomClass, v: CohomClass) -> int:
    """Lorentz intersection number u0 v0 - sum_{a>=1} u_a v_a."""
    return sum(d * a * b for d, a, b in zip(_DELTA, u.coeffs, v.coeffs))


def class_of(label: LineLabel) -> CohomClass:
    """Cohomology class of a labeled line."""
    c = [0] * RANK
    if label.kind == "E":
        c[label.indices[0]] = 1
    elif label.kind == "F":
        a, b = label.indices
        c[0] = 1
        c[a] = -1
        c[b] = -1
    else:  # G
        a = label.indices[0]
        c[0] = 2
        for b in range(1, 7):
            if b != a:
                c[b] = -1
    return CohomClass(tuple(c))


@dataclass(frozen=True)
class LatticeEndo:
    """An exact integer endomorphism of the rank-7 lattice."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        if len(rows) != RANK or any(len(r) != RANK for r in rows):
            raise ValueError("a lattice endomorphism is a 7x7 integer matrix")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls) -> "LatticeEndo":
        return cls(tuple(tuple(1 if r == c else 0 for c in range(RANK)) for r in range(RANK)))

    def __matmul__(self, other: "LatticeEndo") -> "LatticeEndo":
        # numpy's product of object arrays: exact Python ints of any size
        a, b = (np.array(m.entries, dtype=object) for m in (self, other))
        return LatticeEndo((a @ b).tolist())

    def apply(self, u: CohomClass) -> CohomClass:
        return CohomClass(
            tuple(sum(row[c] * u.coeffs[c] for c in range(RANK)) for row in self.entries)
        )

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(RANK))

    def power(self, N: int) -> "LatticeEndo":
        if N < 0:
            raise ValueError("nonnegative powers only")
        result = LatticeEndo.identity()
        base = self
        while N:
            if N & 1:
                result = result @ base
            N >>= 1
            base = base @ base if N else base
        return result

    def to_json(self) -> list:
        return [list(row) for row in self.entries]


# sigma_i blows down the tritangent line F(pair_i); its two indices
# carry the -2/-1 intersection block, the remaining four are swapped
# pairwise onto G-classes.
_BLOWDOWN_PAIR = {1: (1, 2), 2: (3, 4), 3: (5, 6)}


def _pairmate(a: int) -> int:
    return a + 1 if a % 2 == 1 else a - 1


def _reconstruct_sigma_star(i: int):
    """Build sigma_i^* column by column from the intersection data.

    Columns outside the blow-down pair (p, q) are the G-classes of the
    swapped lines; the pair block is xi_pp = xi_qq = -2, xi_pq = -1 with
    xi_ap = -1 for the other a >= 1 and xi_0p = 3 forced by the symmetry
    xi_ab = delta_a delta_b xi_ba; the E0 column is the sum of the p and
    q columns because sigma_i blows down E0 - E_p - E_q.
    """
    p, q = _BLOWDOWN_PAIR[i]
    cols = [[0] * RANK for _ in range(RANK)]
    for a in range(1, 7):
        if a in (p, q):
            continue
        cols[a] = list(class_of(LineLabel("G", (_pairmate(a),))).coeffs)
    for col in (p, q):
        cols[col][0] = 3
        for a in range(1, 7):
            cols[col][a] = -1
        cols[col][col] = -2
    cols[0] = [cols[p][r] + cols[q][r] for r in range(RANK)]
    return tuple(tuple(cols[c][r] for c in range(RANK)) for r in range(RANK))


def sigma_star(i: int) -> LatticeEndo:
    """Pull-back of sigma_i on the lattice, reconstructed from the
    intersection data; the tests compare it with the printed matrix."""
    if i not in (1, 2, 3):
        raise ValueError("sigma index must be 1, 2 or 3")
    return LatticeEndo(_reconstruct_sigma_star(i))


def coxeter_star() -> LatticeEndo:
    """c^* as the matrix product sigma3^* sigma2^* sigma1^*; the tests
    compare it with the printed matrix."""
    return sigma_star(3) @ sigma_star(2) @ sigma_star(1)


def charpoly(m: LatticeEndo) -> list:
    """Characteristic polynomial det(xI - m), integer coefficients
    lowest degree first, by the Faddeev-LeVerrier recurrence.

    With M_0 = 0 and c_0 = 1, M_k = m (M_{k-1} + c_{k-1} I) and
    c_k = -tr(M_k) / k is the coefficient of x^(7-k); each division is
    exact for an integer matrix.
    """
    coeffs = [1]
    mk = LatticeEndo(((0,) * RANK,) * RANK)
    for k in range(1, RANK + 1):
        shifted = tuple(tuple(v + coeffs[-1] * (r == c) for c, v in enumerate(row))
                        for r, row in enumerate(mk.entries))
        mk = m @ LatticeEndo(shifted)
        c, rem = divmod(-mk.trace(), k)
        if rem:
            raise AssertionError(f"tr(M_{k}) is not divisible by {k}")
        coeffs.append(c)
    return coeffs[::-1]


def _poly_divmod(a: list, b: list):
    """Quotient and remainder of the polynomials a and b, exact coefficient
    lists highest degree first with b[0] != 0; the remainder has no
    leading zeros, so that the zero polynomial is []."""
    a, q = list(a), []
    for k in range(len(a) - len(b) + 1):
        q.append(a[k] / b[0])
        for i, v in enumerate(b):
            a[k + i] -= q[-1] * v
    r = a[len(q):]
    while r and r[0] == 0:
        r.pop(0)
    return q, r


def spectral_radius(m: LatticeEndo) -> float:
    """Largest root modulus of the characteristic polynomial p.

    The roots are those of p's squarefree part p / gcd(p, p'), computed in
    exact rational arithmetic, so that each is a simple root: a root of
    multiplicity k of p itself comes out of a float root finder with an
    error of about eps^(1/k) (7e-5 for the double root 1 of sigma_i^*,
    3e-3 for the sixfold root 1 of (sigma_1 sigma_2)^*).
    """
    p = [Fraction(c) for c in reversed(charpoly(m))]
    g, r = p, [c * k for k, c in zip(range(len(p) - 1, 0, -1), p)]  # p'
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    roots = np.roots([float(c) for c in _poly_divmod(p, g)[0]])
    return float(max(abs(r) for r in roots))


def trace_power(m: LatticeEndo, N: int) -> int:
    """Exact big-integer trace of m^N."""
    return m.power(N).trace()


# Eigenvectors of c^* for the eigenvalue -1 and the tritangent classes.
_NEG_EIGENVECTORS = {
    "V0": CohomClass((2, -1, -1, -1, -1, -1, -1)),
    "Vi": CohomClass((0, 1, -1, 0, 0, 0, 0)),
    "Vj": CohomClass((0, 0, 0, 1, -1, 0, 0)),
    "Vk": CohomClass((0, 0, 0, 0, 0, 1, -1)),
}

_TRITANGENT_CLASSES = {
    "Li": class_of(LineLabel("F", (1, 2))),
    "Lj": class_of(LineLabel("F", (3, 4))),
    "Lk": class_of(LineLabel("F", (5, 6))),
}


def eigenvector_checks() -> dict:
    """Verify c^* V = -V on the quadruple eigenspace and (V, L) = 0.

    Returns a report dict; any failed identity raises with the failing
    pair named.
    """
    c = coxeter_star()
    report = {"eigenvectors": [], "orthogonality": []}
    for name, v in _NEG_EIGENVECTORS.items():
        if not (c.apply(v) + v).is_zero():
            raise AssertionError(f"c^* {name} != -{name}")
        report["eigenvectors"].append(name)
    for vname, v in _NEG_EIGENVECTORS.items():
        for lname, l in _TRITANGENT_CLASSES.items():
            val = intersection(v, l)
            if val != 0:
                raise AssertionError(f"({vname}, {lname}) = {val} != 0")
            report["orthogonality"].append((vname, lname))
    return report
