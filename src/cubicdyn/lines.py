"""The 27 lines on the compactified cubic surface in b-coordinates.

Three tritangent lines lie in the plane at infinity X0 = 0; each is met
by exactly eight affine lines whose equations are explicit in the
eigenvalue parameters b.  This module enumerates them, verifies they lie
on the surface, and checks how the involutions sigma_i permute them.  A
line's points come from the closed-form null space of its two forms,
found once when the line is made.  The on-surface check samples all the
lines given as one numpy array; the rest runs on plain Python complex
scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Optional

import numpy as np

from .lattice import LineLabel
from .params import EigenParams, _discriminant_factors, traces_from_eigen, traces_to_theta
from .surface import _coerce_theta, sigma_apply

__all__ = [
    "ProjectiveLine",
    "tritangent_line",
    "line_from_params",
    "all_lines",
    "lines_on_surface",
    "line_on_surface",
    "verify_sigma_line_action",
    "cubic_eval_hom",
]

_RANK_TOL = 1e-12
# modulus below which a discriminant factor leaves the sigma checks unrun
_FACTOR_TOL = 1e-12
# scaled residual within which a point lies on a line and a line on the surface
_LINE_TOL = 1e-8
# the column pairs (a, b), a < b, of a line's 2x2 minors
_PAIRS = tuple(combinations(range(4), 2))
# the t of lines_on_surface's sample points u + t v, as a column
_SAMPLE_T = np.array([[0], [1], [-1], [2]])


def _normalize4(v) -> list:
    v = [complex(c) for c in v]
    m = max(map(abs, v))
    if m == 0:
        raise ValueError("zero coordinate vector")
    return [c / m for c in v]


@dataclass(frozen=True)
class ProjectiveLine:
    """A line in P^3 cut out by two independent linear forms on (X0..X3).

    The forms are normalized so that each one's largest-modulus entry has
    modulus 1.  Their six 2x2 minors give both the rank check and _span,
    two points spanning the line, kept for lines_on_surface and
    affine_points.  _span is the null space of the forms in closed form:
    pivot on their 2x2 minor of largest modulus, set each other coordinate
    to 1 in turn (the last 0), solve for the pivot pair by Cramer's rule.
    No minor exceeds the pivot, so each point's largest modulus is 1 (up to
    rounding), the scale of affine_points' X0 test.
    """

    form1: tuple
    form2: tuple
    label: Optional[LineLabel] = None
    params: Optional[tuple] = None  # (group index i, slot 1..8)

    def __post_init__(self):
        f1 = _normalize4(self.form1)
        f2 = _normalize4(self.form2)
        minor = {}  # the forms' 2x2 minor on each ordered pair of columns
        for a, b in _PAIRS:
            minor[a, b] = m = f1[a] * f2[b] - f1[b] * f2[a]
            minor[b, a] = -m
        a, b = max(_PAIRS, key=lambda ab: abs(minor[ab]))
        det = minor[a, b]
        if abs(det) <= _RANK_TOL:
            raise ValueError("the two forms are linearly dependent")
        object.__setattr__(self, "form1", tuple(f1))
        object.__setattr__(self, "form2", tuple(f2))
        points = []
        for e in (c for c in range(4) if c not in (a, b)):
            X = [0j] * 4
            X[e], X[a], X[b] = 1, minor[b, e] / det, minor[e, a] / det
            points.append(tuple(X))
        object.__setattr__(self, "_span", tuple(points))

    def affine_points(self) -> list:
        """Three affine points (X0 = 1) of the line as (x1, x2, x3) tuples."""
        u, v = self._span
        # move the X0 component into u
        if abs(v[0]) > abs(u[0]):
            u, v = v, u
        if abs(u[0]) <= _RANK_TOL:
            raise ValueError("line lies in the plane at infinity")
        u = [p / u[0] for p in u]
        v = [q - v[0] * p for p, q in zip(u, v)]
        return [tuple(p + t * q for p, q in zip(u[1:], v[1:])) for t in (1, 2, 3)]

    def contains_affine(self, x, tol: float = _LINE_TOL) -> bool:
        X = (1, *x)
        scale = 1 + max(map(abs, X))
        return all(abs(sum(map(mul, f, X))) <= tol * scale for f in (self.form1, self.form2))

    def to_json(self) -> dict:
        return {
            "label": str(self.label) if self.label else None,
            "group_slot": list(self.params) if self.params else None,
            "forms": [
                [[c.real, c.imag] for c in map(complex, f)]
                for f in (self.form1, self.form2)
            ],
        }


def cubic_eval_hom(X, theta) -> complex:
    """Homogeneous cubic F(X, theta) on P^3; X0..X3 may be numpy arrays."""
    t1, t2, t3, t4 = _coerce_theta(theta)
    X0, X1, X2, X3 = X
    return (
        X1 * X2 * X3
        + X0 * (X1 * X1 + X2 * X2 + X3 * X3)
        - X0 * X0 * (t1 * X1 + t2 * X2 + t3 * X3)
        + t4 * X0 * X0 * X0
    )


def tritangent_line(i: int) -> ProjectiveLine:
    """Line at infinity L_i = {X0 = X_i = 0}, lying on every S(theta)."""
    if i not in (1, 2, 3):
        raise ValueError("tritangent index must be 1, 2 or 3")
    # class at infinity: L1 = F12, L2 = F34, L3 = F56
    label = LineLabel("F", (2 * i - 1, 2 * i))
    return ProjectiveLine((1, 0, 0, 0), tuple(int(c == i) for c in range(4)), label=label)


# Argument patterns of the eight affine lines meeting L_i, one row of the
# printed table per pair of slots.  Entries are (invert_first, invert_second,
# swapped) where swapped means the pattern uses (b_j, b_k; b_i, b_4) instead
# of (b_i, b_4; b_j, b_k).
_SLOT_PATTERNS = {
    1: (False, False, False),
    2: (True, True, False),
    3: (False, False, True),
    4: (True, True, True),
    5: (True, False, False),
    6: (False, True, False),
    7: (True, False, True),
    8: (False, True, True),
}


@lru_cache(maxsize=None)
def _slot_label(i: int, slot: int) -> LineLabel:
    """Classical label of a slot, following the arrangement figure; built
    once per slot, as a LineLabel is immutable.

    Group i hosts E/G lines with indices (2i-1, 2i) and four F lines
    connecting the other two index pairs.  Which line of an F pair gets
    which name is conventional; the pairing (1,2), (3,4), (5,6), (7,8)
    is the contractual part.
    """
    e1, e2 = 2 * i - 1, 2 * i
    other = sorted(set(range(1, 7)) - {e1, e2})
    o1, o2, o3, o4 = other  # two pairs (o1,o2), (o3,o4)
    table = {
        1: LineLabel("E", (e1,)),
        2: LineLabel("G", (e2,)),
        3: LineLabel("E", (e2,)),
        4: LineLabel("G", (e1,)),
        5: LineLabel("F", (o1, o3)),
        6: LineLabel("F", (o2, o4)),
        7: LineLabel("F", (o1, o4)),
        8: LineLabel("F", (o2, o3)),
    }
    return table[slot]


def line_from_params(i: int, slot: int, b: EigenParams) -> ProjectiveLine:
    """One of the eight affine lines meeting the tritangent line L_i.

    The line L_i(beta1, beta2; beta3, beta4) is cut out by

        X_i - (beta1 beta2 + 1/(beta1 beta2)) X0,
        X_j + (beta1 beta2) X_k
            - (beta1 (beta4 + 1/beta4) + beta2 (beta3 + 1/beta3)) X0,

    with (i, j, k) the cyclic triple starting at i and the slot choosing
    the argument pattern from the table of eight.  The lines degenerate
    where a factor of the discriminant vanishes, which callers test once.
    """
    if i not in (1, 2, 3):
        raise ValueError("group index must be 1, 2 or 3")
    if slot not in _SLOT_PATTERNS:
        raise ValueError("slot must be 1..8")
    bs = b.as_tuple()
    j = i % 3 + 1
    k = j % 3 + 1
    inv1, inv2, swapped = _SLOT_PATTERNS[slot]
    if swapped:
        b1, b2, b3, b4 = bs[j - 1], bs[k - 1], bs[i - 1], bs[3]
    else:
        b1, b2, b3, b4 = bs[i - 1], bs[3], bs[j - 1], bs[k - 1]
    if inv1:
        b1 = 1 / b1
    if inv2:
        b2 = 1 / b2
    prod = b1 * b2
    f1 = [0j, 0j, 0j, 0j]
    f1[i] = 1
    f1[0] = -(prod + 1 / prod)
    f2 = [0j, 0j, 0j, 0j]
    f2[j] = 1
    f2[k] = prod
    f2[0] = -(b1 * (b4 + 1 / b4) + b2 * (b3 + 1 / b3))
    return ProjectiveLine(tuple(f1), tuple(f2), label=_slot_label(i, slot), params=(i, slot))


def all_lines(b: EigenParams) -> list:
    """All 27 lines: three tritangent plus three groups of eight, group i's
    slots 1..8 at positions 3 + 8 (i - 1) onward."""
    lines = [tritangent_line(i) for i in (1, 2, 3)]
    lines.extend(line_from_params(i, slot, b) for i in (1, 2, 3) for slot in range(1, 9))
    return lines


def lines_on_surface(lines, theta):
    """Whether each line lies on the surface, with its max residual: two
    lists aligned with lines.

    Samples five points of each line from its spanning points u and v,
    u + t v for t in {0, 1, -1, 2} and v (four suffice: a cubic vanishing at
    four points of a line vanishes on it), all lines at once as one (L, 5, 4)
    complex array; residuals are scaled by the cubic growth of F.
    """
    span = np.array([ln._span for ln in lines], dtype=complex)
    u, v = span[:, :1], span[:, 1:]
    X = np.concatenate([u + _SAMPLE_T * v, v], axis=1)
    scale = 1 + np.abs(X).max(axis=2) ** 3
    F = cubic_eval_hom(np.moveaxis(X, 2, 0), tuple(map(complex, _coerce_theta(theta))))
    worst = (np.abs(F) / scale).max(axis=1)
    return (worst <= _LINE_TOL).tolist(), worst.tolist()


def line_on_surface(line: ProjectiveLine, theta):
    """Whether the line lies on the surface, with the max residual: the one
    line case of lines_on_surface."""
    (ok,), (worst,) = lines_on_surface([line], theta)
    return ok, worst


def _quadratic_roots(a, b, c):
    disc = b * b - 4 * a * c
    sq = complex(disc) ** 0.5
    return ((-b + sq) / (2 * a), (-b - sq) / (2 * a))


def verify_sigma_line_action(b: EigenParams, i: int = 1, tol: float = _LINE_TOL, lines=None) -> dict:
    """Check how sigma_i permutes the affine lines.

    Verifies the four line swaps (the E/G pairs of the two other
    groups), the two-root quadratic giving the self-intersection of the
    image of the first line of group i, and the unique crossing with the
    slot-3 line.  Raises ValueError when one of the discriminant's twenty
    factors is below _FACTOR_TOL in modulus (each vanishes on one family
    of walls, and their product can fall below it far from every wall),
    and AssertionError on any failed check.  Each affine line is read by
    its params from one table of all_lines(b): lines if given, else the
    lines built here once.
    """
    smallest = min(map(abs, _discriminant_factors(b)))
    if smallest < _FACTOR_TOL:
        raise ValueError(f"a discriminant factor is below {_FACTOR_TOL:g} in modulus "
                         f"(smallest {smallest:.3g})")
    line = {ln.params: ln for ln in lines or all_lines(b) if ln.params}
    traces = traces_from_eigen(b)
    theta = traces_to_theta(traces).as_tuple()
    j = i % 3 + 1
    k = j % 3 + 1
    report = {"sigma": i, "swaps": [], "quadratic_roots": [], "cross_point": None}

    # sigma_i swaps slots (1,2) and (3,4) within each of the other two groups
    for g in (j, k):
        for s1, s2 in ((1, 2), (3, 4)):
            src, dst = line[g, s1], line[g, s2]
            for x in src.affine_points():
                y = sigma_apply(i, x, theta)
                if not dst.contains_affine(y, tol):
                    raise AssertionError(
                        f"sigma_{i} does not map group {g} slot {s1} onto slot {s2}"
                    )
                z = sigma_apply(i, y, theta)  # and back, involution
                if not src.contains_affine(z, tol):
                    raise AssertionError(
                        f"sigma_{i} does not map group {g} slot {s2} back onto slot {s1}"
                    )
            report["swaps"].append((g, s1, s2))

    bs = b.as_tuple()
    bi, bj, bk, b4 = bs[i - 1], bs[j - 1], bs[k - 1], bs[3]
    a = traces.as_tuple()
    ai, aj, ak = a[i - 1], a[j - 1], a[k - 1]
    a4 = a[3]
    p = bi * b4
    ti = theta[i - 1]

    # self-intersection of sigma_i(first line) with that line: quadratic in x_k
    first = line[i, 1]
    roots = _quadratic_roots(p, -(ak * bi + aj * b4), ti - 2 * (p + 1 / p))
    for xk in roots:
        x = [0j, 0j, 0j]
        x[i - 1] = p + 1 / p
        x[k - 1] = xk
        x[j - 1] = (ak * bi + aj * b4) - p * xk
        x = tuple(x)
        if not first.contains_affine(x, tol):
            raise AssertionError("quadratic root does not lie on the source line")
        y = sigma_apply(i, x, theta)
        if not first.contains_affine(y, tol):
            raise AssertionError("quadratic root does not lie on the image line")
        report["quadratic_roots"].append(x)

    # unique crossing of sigma_i(first line) with the slot-3 line
    third = line[i, 3]
    det = bj * bk - bi * b4
    # linear system for (x_j, x_k): rows from the slot-3 line and the image line
    rhs1 = a4 * bj + ai * bk
    rhs2 = ak * bi + aj * b4
    xk = (rhs1 - rhs2) / det
    xj = rhs1 - bj * bk * xk
    x = [0j, 0j, 0j]
    x[i - 1] = bj * bk + 1 / (bj * bk)
    x[j - 1] = xj
    x[k - 1] = xk
    x = tuple(x)
    if not third.contains_affine(x, tol):
        raise AssertionError("crossing point does not lie on the slot-3 line")
    y = sigma_apply(i, x, theta)
    if not first.contains_affine(y, tol):
        raise AssertionError("crossing point does not map onto the source line")
    report["cross_point"] = x
    return report
