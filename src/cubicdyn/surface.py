"""The affine cubic surface and its birational dynamics.

The surface is the zero set of

    f(x, theta) = x1 x2 x3 + x1^2 + x2^2 + x3^2
                  - theta1 x1 - theta2 x2 - theta3 x3 + theta4

in C^3.  Three involutions sigma_i flip the deck of the degree-2
projection along the x_i-axis, three braid maps g_i act on (x, theta)
with a transposition on theta, and the distinguished composition
c = sigma1 o sigma2 o sigma3 (sigma3 applied first) drives the
periodic-point counts.

All maps are total polynomial maps on C^3 and are generic over the
scalar type: complex, float or Fraction entries all work, so identities
can be checked exactly in rational arithmetic.  The periodic-point solver
runs sigma_i, f, its gradient, c^N and its Jacobian on numpy coordinate
columns, one point per entry, and a point rounds the same in any batch.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .params import ThetaPoint

__all__ = [
    "AffinePoint",
    "GeneratorLetter",
    "MapResult",
    "cubic_eval",
    "cubic_gradient",
    "sigma_apply",
    "word_apply",
    "coxeter_apply",
    "coxeter_jacobian",
    "parse_word",
    "surface_residual_bound",
    "DEFAULT_ESCAPE_RADIUS",
    "DEFAULT_SURFACE_TOL",
]

DEFAULT_ESCAPE_RADIUS = 1e8
DEFAULT_SURFACE_TOL = 1e-9


def _coerce_theta(theta):
    if isinstance(theta, ThetaPoint):
        return theta.as_tuple()
    t = tuple(theta)
    if len(t) != 4:
        raise ValueError("theta must have four entries")
    return t


def _max_abs(x):
    """max(|x1|, |x2|, |x3|) of a point, or per point of coordinate columns;
    nan if any entry is nan.

    Columns go through np.maximum.  A point's three moduli are compared in
    Python, about 0.5 us where np.maximum on scalars takes 2.6 us, and the
    value is the same bit for bit; a nan in any slot shows in the sum of
    the three, which is then returned.  The solver re-tests each new root
    on Python scalars (see counting._converged), so this is per root.
    """
    x1, x2, x3 = x
    a, b, c = abs(x1), abs(x2), abs(x3)
    if type(a) is np.ndarray or type(b) is np.ndarray or type(c) is np.ndarray:
        return np.maximum(np.maximum(a, b), c)
    total = a + b + c
    if total != total:
        return total
    m = a if a >= b else b
    return m if m >= c else c


def surface_residual_bound(x, tol: float = DEFAULT_SURFACE_TOL):
    """Residual threshold scaled by the cubic growth of f: tol * (1 + max |x_i|^3).

    x is one point of complex or float coordinates, or numpy coordinate
    columns, bounded per point.  A point of Python complex scalars is
    bounded with Python's abs, bit for bit as max(abs(v) for v in x) would.
    The float exponent cubes integer entries in floating point, not int64.
    """
    return tol * (1 + _max_abs(x) ** 3.0)


@dataclass(frozen=True)
class AffinePoint:
    """A point x = (x1, x2, x3) of C^3 in trace coordinates."""

    x1: complex
    x2: complex
    x3: complex

    def as_tuple(self):
        return (self.x1, self.x2, self.x3)

    def residual(self, theta) -> float:
        return abs(complex(cubic_eval(self.as_tuple(), theta)))


@dataclass(frozen=True)
class GeneratorLetter:
    """One generator: sigma_i (kind "sigma") or g_i^{+-1} (kind "g")."""

    kind: str
    index: int
    power: int = 1

    def __post_init__(self):
        if self.kind not in ("sigma", "g"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.index not in (1, 2, 3):
            raise ValueError("generator index must be 1, 2 or 3")
        if self.power not in (1, -1):
            raise ValueError("generator power must be +1 or -1")
        if self.kind == "sigma" and self.power != 1:
            raise ValueError("sigma letters are involutions; power is fixed to +1")

    def __str__(self):
        if self.kind == "sigma":
            return f"s{self.index}"
        return f"g{self.index}" + ("" if self.power == 1 else "^-1")


@dataclass
class MapResult:
    point: AffinePoint
    theta: ThetaPoint
    status: str = "ok"  # "ok" | "escaped"


_WORD_TOKEN = re.compile(r"^(s|g)([123])(?:\^(-?\d+))?$")


def parse_word(text: str) -> tuple:
    """Parse a word like "s1 s2 s3" or "g1^2 g2^-2 g1^-2 g2^2" into the
    tuple of its GeneratorLetters, a power written out as that many letters.

    The string reads left to right in composition order: the leftmost
    generator is applied last.
    """
    letters = []
    for tok in text.split():
        m = _WORD_TOKEN.match(tok)
        if m is None:
            raise ValueError(f"cannot parse generator token {tok!r}")
        kind = "sigma" if m.group(1) == "s" else "g"
        index = int(m.group(2))
        power = int(m.group(3)) if m.group(3) is not None else 1
        sign = 1 if power >= 0 else -1
        for _ in range(abs(power)):
            letters.append(GeneratorLetter(kind, index, sign if kind == "g" else 1))
    return tuple(letters)


def cubic_eval(x, theta):
    """f(x, theta); zero exactly on the surface."""
    x1, x2, x3 = x
    t1, t2, t3, t4 = _coerce_theta(theta)
    return x1 * x2 * x3 + ((x1 * x1 + x2 * x2) + x3 * x3) - ((x1 * t1 + x2 * t2) + x3 * t3) + t4


def cubic_gradient(x, theta):
    """Gradient of f with respect to x."""
    x1, x2, x3 = x
    t1, t2, t3, _ = _coerce_theta(theta)
    return (x2 * x3 + 2 * x1 - t1, x1 * x3 + 2 * x2 - t2, x1 * x2 + 2 * x3 - t3)


# the two coordinates sigma_i leaves fixed, as 0-based indices (j < k)
_FIXED_PAIR = {1: (1, 2), 2: (0, 2), 3: (0, 1)}


def sigma_apply(i: int, x, theta):
    """Involution sigma_i: x_i' = theta_i - x_i - x_j x_k, other entries fixed."""
    if i not in _FIXED_PAIR:
        raise ValueError("sigma index must be 1, 2 or 3")
    return _sigma(i, x, _coerce_theta(theta))


def _sigma(i: int, x, t):
    """sigma_apply without its checks: i is 1, 2 or 3, x has three entries
    and t is theta's four entries, as sigma_apply and the maps built on it
    pass them.  {j, k} is the fixed pair, in ascending order (_FIXED_PAIR)."""
    x1, x2, x3 = x
    if i == 1:
        return (t[0] - x1 - x2 * x3, x2, x3)
    if i == 2:
        return (x1, t[1] - x2 - x1 * x3, x3)
    return (x1, x2, t[2] - x3 - x1 * x2)


def _sigma_row(i: int, y):
    """((j, y_k), (k, y_j)): sigma_i's new coordinate at y has the partials
    -y_k in slot j and -y_j in slot k of its fixed pair, and -1 in slot i."""
    j, k = _FIXED_PAIR[i]
    return (j, y[k]), (k, y[j])


# g_i's swap of slots i and j = i mod 3 + 1 (0-based below), on x and on theta
_G_SWAP = {
    i: (itemgetter(*p), itemgetter(*p, 3))
    for i, p in ((1, (1, 0, 2)), (2, (0, 2, 1)), (3, (2, 1, 0)))
}


def _g(i: int, sign: int, x, t):
    """Braid map g_i^{sign} acting on (x, theta), word_apply's step for a g
    letter: i is 1, 2 or 3, sign is 1 or -1 (GeneratorLetter checks both)
    and t is theta's four entries.

    g_i applies sigma_j (j = i mod 3 + 1), then swaps slots i and j of x
    and of theta: x -> (theta_j - x_j - x_k x_i, x_i, x_k) in the slots
    (i, j, k) of the cyclic triple starting at i.  sign = -1 applies the
    exact inverse, the two steps in the reverse order.  Returns (x', t')
    as tuples.
    """
    swap_x, swap_t = _G_SWAP[i]
    j = i % 3 + 1
    if sign == 1:
        return swap_x(_sigma(j, x, t)), swap_t(t)
    t = swap_t(t)
    return _sigma(j, swap_x(x), t), t


def word_apply(word: tuple, x, theta, escape_radius: float = DEFAULT_ESCAPE_RADIUS) -> MapResult:
    """Apply a word, a sequence of GeneratorLetters as parse_word returns,
    rightmost letter first, tracking theta swaps.

    status is "escaped" as soon as an intermediate coordinate exceeds
    escape_radius in modulus; the partial state reached is returned.  The
    moduli are compared exactly, and an infinite escape_radius skips the
    test, so exact coordinates of any size pass through.
    """
    t = _coerce_theta(theta)
    y = tuple(x)
    for letter in reversed(word):
        if letter.kind == "sigma":
            y = _sigma(letter.index, y, t)
        else:
            y, t = _g(letter.index, letter.power, y, t)
        if escape_radius != math.inf and _max_abs(y) > escape_radius:
            return MapResult(AffinePoint(*y), ThetaPoint(*t), "escaped")
    return MapResult(AffinePoint(*y), ThetaPoint(*t), "ok")


def coxeter_apply(x, theta, N: int = 1):
    """c^N, c = sigma1 o sigma2 o sigma3 (sigma3 applied first); theta unchanged."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    t = _coerce_theta(theta)
    y = tuple(x)
    for _ in range(N):
        y = _sigma(1, _sigma(2, _sigma(3, y, t), t), t)
    return y


def coxeter_jacobian(x, theta, N: int, escape_radius: float = DEFAULT_ESCAPE_RADIUS):
    """Jacobian of c^N at x as a 3x3 nested list, by the chain rule.

    sigma_i changes coordinate i alone, so each step replaces row i of the
    Jacobian by -J_i - x_k J_j - x_j J_k, {j, k} the fixed pair (see
    _sigma_row).  c's first step is Dc at x in closed form: with
    c(x) = (y1, w2, z3), D(sigma2 sigma3) has rows (1, 0, 0),
    (p, q, x1) = (x1 x2 - z3, x1^2 - 1, x1) and (-x2, -x1, -1), and sigma1's
    row update makes the first row (-1 - z3 p + w2 x2, w2 x1 - z3 q,
    w2 - z3 x1).  Every later step updates its three rows.  The entries
    equal the row updates from the identity exactly for exact inputs (the
    maps are polynomial), and bit for bit up to the sign of zero in
    floating point; for N >= 1 each keeps the scalar type, or column
    shape, of x.  Raises if the orbit escapes before N steps; an infinite
    escape_radius skips that test, so x may then be numpy coordinate
    columns.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    t = _coerce_theta(theta)
    if N == 0:
        return [[1 if r == c else 0 for c in range(3)] for r in range(3)]
    x1, x2, _ = x
    y = _sigma(1, _sigma(2, _sigma(3, x, t), t), t)
    _, w2, z3 = y
    p, q = x1 * x2 - z3, x1 * x1 - 1
    jac = [[-1 - z3 * p + w2 * x2, w2 * x1 - z3 * q, w2 - z3 * x1],
           [p, q, +x1],  # a new column at N = 1, not the caller's x1
           [-x2, -x1, 0 * x1 - 1]]
    for n in range(N):
        if n:
            for i in (3, 2, 1):
                (j, yk), (k, yj) = _sigma_row(i, y)
                jac[i - 1] = [-a - yk * b - yj * c for a, b, c in zip(jac[i - 1], jac[j], jac[k])]
                y = _sigma(i, y, t)
        if escape_radius != math.inf and _max_abs(y) > escape_radius:
            raise ValueError(f"orbit escaped before {N} iterations")
    return jac
