"""Parameter spaces and the maps between them.

Four parameter spaces appear: the affine space of kappa parameters
(five entries tied by one linear relation), the space of local monodromy
traces a, the space of nonzero eigenvalue parameters b, and the space of
cubic-surface coefficients theta.  The forward maps kappa -> a -> theta
and kappa -> b are implemented here, together with the discriminant of
the cubic surface in b-coordinates and membership in the reflection
walls of the affine Weyl group of type D4(1).

All scalars may be Python complex, float, int or Fraction; the maps that
involve cos/exp return complex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from numbers import Rational

__all__ = [
    "KappaPoint",
    "MonodromyTraces",
    "EigenParams",
    "ThetaPoint",
    "kappa_to_traces",
    "kappa_to_eigen",
    "traces_from_eigen",
    "traces_to_theta",
    "rh_params",
    "discriminant",
    "wall_membership",
]

# residual of the kappa constraint, relative to its largest term or 1
_CONSTRAINT_TOL = 1e-12
# residual within which a kappa that is not rational lies on a wall
_WALL_TOL = 1e-9


def _is_finite(z) -> bool:
    if isinstance(z, Rational):
        return True
    z = complex(z)
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class _Point:
    """A point of one of the parameter spaces: a tuple of finite scalars."""

    def __post_init__(self):
        for name, v in vars(self).items():
            if not _is_finite(v):
                raise ValueError(f"{name} must be finite")

    def as_tuple(self) -> tuple:
        """The entries in declaration order, the order __init__ sets them in."""
        return tuple(vars(self).values())


@dataclass(frozen=True)
class KappaPoint(_Point):
    """A point of the kappa parameter space, 2*k0 + k1 + k2 + k3 + k4 = 1."""

    kappa0: complex
    kappa1: complex
    kappa2: complex
    kappa3: complex
    kappa4: complex

    def __post_init__(self):
        super().__post_init__()
        k0, k1, k2, k3, k4 = self.as_tuple()
        residual = abs(complex(2 * k0 + k1 + k2 + k3 + k4) - 1)
        # the rounding of a float sum grows with the size of its terms; an
        # exact kappa's residual is 0, and its terms may outgrow a float
        if residual > _CONSTRAINT_TOL and residual > _CONSTRAINT_TOL * max(
                1, abs(2 * k0), abs(k1), abs(k2), abs(k3), abs(k4)):
            raise ValueError(
                "kappa constraint 2*k0 + k1 + k2 + k3 + k4 = 1 violated "
                f"(residual {residual:.3e})"
            )

    @classmethod
    def from_tail(cls, kappa1, kappa2, kappa3, kappa4) -> "KappaPoint":
        """Build from (k1..k4), reconstructing k0 from the linear constraint."""
        tail = (kappa1, kappa2, kappa3, kappa4)
        if bad := [i for i, v in enumerate(tail, 1) if not _is_finite(v)]:
            raise ValueError(f"kappa{bad[0]} must be finite")
        if all(isinstance(v, (int, Rational)) for v in tail):
            kappa0 = Fraction(1 - sum(Fraction(v) for v in tail), 2)
        else:
            kappa0 = (1 - sum(complex(v) for v in tail)) / 2
        return cls(kappa0, kappa1, kappa2, kappa3, kappa4)

    def tail(self):
        return self.as_tuple()[1:]

    def is_rational(self) -> bool:
        return all(isinstance(v, (int, Rational)) for v in self.as_tuple())


@dataclass(frozen=True)
class MonodromyTraces(_Point):
    """Local monodromy traces a = (a1, a2, a3, a4)."""

    a1: complex
    a2: complex
    a3: complex
    a4: complex


@dataclass(frozen=True)
class EigenParams(_Point):
    """Monodromy eigenvalue parameters b = (b1, b2, b3, b4), all nonzero."""

    b1: complex
    b2: complex
    b3: complex
    b4: complex

    def __post_init__(self):
        super().__post_init__()
        for l, v in enumerate(self.as_tuple(), start=1):
            if v == 0:
                raise ValueError(f"b{l} must be nonzero")


@dataclass(frozen=True)
class ThetaPoint(_Point):
    """Coefficients theta = (theta1..theta4) of the affine cubic surface."""

    theta1: complex
    theta2: complex
    theta3: complex
    theta4: complex


def _half_turns(kappa: KappaPoint) -> tuple:
    """pi k_i (i = 1..4), a rational k_i reduced mod 2 exactly first: cos(pi k)
    and exp(i pi k) have period 2, and a remainder converts to a float."""
    return tuple(cmath.pi * (k % 2 if isinstance(k, Rational) else k) for k in kappa.tail())


def kappa_to_traces(kappa: KappaPoint) -> MonodromyTraces:
    """a_i = 2 cos(pi k_i) for i = 1, 2, 3 and a_4 = -2 cos(pi k_4)."""
    p1, p2, p3, p4 = _half_turns(kappa)
    return MonodromyTraces(2 * cmath.cos(p1), 2 * cmath.cos(p2), 2 * cmath.cos(p3), -2 * cmath.cos(p4))


def kappa_to_eigen(kappa: KappaPoint) -> EigenParams:
    """b_i = exp(i pi k_i) for i = 1, 2, 3 and b_4 = -exp(i pi k_4)."""
    p1, p2, p3, p4 = _half_turns(kappa)
    return EigenParams(cmath.exp(1j * p1), cmath.exp(1j * p2), cmath.exp(1j * p3), -cmath.exp(1j * p4))


def traces_from_eigen(b: EigenParams) -> MonodromyTraces:
    """a_l = b_l + 1/b_l componentwise."""
    return MonodromyTraces(*(v + 1 / v for v in b.as_tuple()))


def traces_to_theta(a: MonodromyTraces) -> ThetaPoint:
    """theta_i = a_i a_4 + a_j a_k; theta_4 = a1 a2 a3 a4 + sum a_l^2 - 4."""
    a1, a2, a3, a4 = a.as_tuple()
    return ThetaPoint(
        a1 * a4 + a2 * a3,
        a2 * a4 + a3 * a1,
        a3 * a4 + a1 * a2,
        a1 * a2 * a3 * a4 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 - 4,
    )


def rh_params(kappa: KappaPoint) -> ThetaPoint:
    """Parameter-level Riemann-Hilbert map: theta from kappa."""
    return traces_to_theta(kappa_to_traces(kappa))


def _discriminant_factors(b: EigenParams) -> list:
    """The twenty factors that discriminant multiplies, in its order."""
    bs = b.as_tuple()
    factors = [d * d for d in (v - 1 / v for v in bs)]
    for eps in product((1, -1), repeat=4):
        term = 1
        for v, e in zip(bs, eps):
            term *= v if e == 1 else 1 / v
        factors.append(term - 1)
    return factors


def discriminant(b: EigenParams):
    """Discriminant of the cubic surface in b-coordinates.

    prod_l (b_l - 1/b_l)^2 * prod_{eps in {+-1}^4} (b^eps - 1),
    twenty factors in total; vanishes exactly for singular surfaces.
    Raises ValueError where it overflows a float.
    """
    d = math.prod(_discriminant_factors(b))
    if not _is_finite(d):
        raise ValueError("the discriminant overflows a float")
    return d


def _nearest_int(x) -> int:
    """The integer nearest x, exactly for a Fraction."""
    return math.floor(x + Fraction(1, 2))


def wall_membership(kappa: KappaPoint) -> list:
    """The reflection walls kappa lies on, as a list of witnesses: empty
    exactly when kappa is off every wall.

    The walls are k_i = m (i = 1..4, m integer) and
    k1 +- k2 +- k3 +- k4 = 2m + 1.  Each relation is tested at its nearest
    m.  For a rational kappa it counts when its residual is exactly 0, in
    Fraction arithmetic; for any other kappa, when its residual is at most
    _WALL_TOL.  Each witness is (kind, which, m, residual), kind one of
    "kappa_i_integer" (which = the index i) and "signed_sum_odd" (which =
    the sign pattern, such as "+--+"), and residual a float.
    """
    exact = kappa.is_rational()
    vals = [Fraction(v) if exact else complex(v) for v in kappa.tail()]
    # (kind, which, value, odd): the value is to be m, or 2m + 1 if odd
    relations = [("kappa_i_integer", i, v, 0) for i, v in enumerate(vals, start=1)]
    for signs in product((1, -1), repeat=3):
        pattern = "+" + "".join("+" if e == 1 else "-" for e in signs)
        s = vals[0] + sum(e * v for e, v in zip(signs, vals[1:]))
        relations.append(("signed_sum_odd", pattern, s, 1))
    witnesses = []
    for kind, which, v, odd in relations:
        m = _nearest_int((v.real - odd) / (1 + odd))
        r = abs(v - ((1 + odd) * m + odd))
        if (r == 0 if exact else r <= _WALL_TOL):
            witnesses.append((kind, which, m, float(r)))
    return witnesses
