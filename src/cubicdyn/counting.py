"""Periodic-point counts: closed forms, zeta function, and a solver.

The exact side works with big integers through linear recurrences:
s_N = (2+sqrt5)^N + (2-sqrt5)^N obeys s_{N+2} = 4 s_{N+1} + s_N and
C_N = (9+4 sqrt5)^N + (9-4 sqrt5)^N obeys C_{N+2} = 18 C_{N+1} - C_N.
The numeric side is a multistart Newton solver for c^N(x) = x on the
surface, which reproduces the closed-form counts at small N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .lattice import LatticeEndo, coxeter_star, trace_power
from .params import KappaPoint, rh_params, wall_membership
from .surface import (
    DEFAULT_ESCAPE_RADIUS,
    DEFAULT_SURFACE_TOL,
    AffinePoint,
    coxeter_apply,
    coxeter_jacobian,
    cubic_eval,
    cubic_gradient,
    surface_residual_bound,
)

__all__ = [
    "CountReport",
    "SolverConfig",
    "lefschetz_number",
    "per_count_closed",
    "per_kappa_closed",
    "zeta_coefficients",
    "solve_periodic",
    "solve_for_kappa",
    "verify_counts",
    "random_offwall_kappa",
]


def _s_sequence(n: int) -> list:
    """s_N = (2+sqrt5)^N + (2-sqrt5)^N as exact integers, indices 0..n."""
    s = [2, 4]
    while len(s) <= n:
        s.append(4 * s[-1] + s[-2])
    return s[: n + 1]


def _c_sequence(n: int) -> list:
    """C_N = (9+4 sqrt5)^N + (9-4 sqrt5)^N as exact integers, indices 0..n."""
    c = [2, 18]
    while len(c) <= n:
        c.append(18 * c[-1] - c[-2])
    return c[: n + 1]


def lefschetz_number(N: int):
    """Lefschetz number of c^N on the compactified surface.

    Returns (exact, closed) where exact = 1 + tr((c*)^N) + 1 with
    big-integer matrix powers and closed is the closed form
    (2+sqrt5)^N + (2-sqrt5)^N + 4(-1)^N + 2, an exact integer through the
    recurrence for the surd part.  Raises AssertionError if they differ.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    exact = 1 + trace_power(coxeter_star(), N) + 1
    closed = _s_sequence(N)[N] + 4 * (-1) ** N + 2
    if exact != closed:
        raise AssertionError(f"Lefschetz trace {exact} differs from the closed form {closed} at N={N}")
    return exact, closed


def per_count_closed(N: int, space: str = "affine") -> int:
    """Number of N-periodic points of c, exactly.

    affine: (2+sqrt5)^N + (2-sqrt5)^N + 4(-1)^N; projective adds the one
    periodic point at infinity.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if space not in ("affine", "projective"):
        raise ValueError(f"unknown space {space!r}")
    val = _s_sequence(N)[N] + 4 * (-1) ** N
    return val + 1 if space == "projective" else val


def per_kappa_closed(N: int) -> int:
    """Number of N-periodic solutions along the full loop: C_N + 4."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _c_sequence(N)[N] + 4


# (1-z)^4 (1-18z+z^2), the zeta function's denominator, lowest degree first
_ZETA_DENOMINATOR = (1, -22, 79, -116, 79, -22, 1)


def zeta_coefficients(order: int) -> list:
    """Taylor coefficients of 1/((1-z)^4 (1-18z+z^2)) up to z^order.

    With d_0..d_6 the denominator's coefficients, the series satisfies
    z_0 = 1 and z_n = -(d_1 z_{n-1} + ... + d_6 z_{n-6}) for n >= 1,
    where z_n = 0 for n < 0; all arithmetic exact.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    z = [0] * 6 + [1]
    for _ in range(order):
        z.append(-sum(d * z[-k] for k, d in enumerate(_ZETA_DENOMINATOR[1:], start=1)))
    return z[6:]


def _zeta_via_exp(order: int) -> list:
    """Independent zeta coefficients from exp(sum Per_N z^N / N).

    Uses the logarithmic-derivative recurrence n z_n = sum_k Per_k z_{n-k}
    in exact rational arithmetic.
    """
    per = [per_kappa_closed(n) for n in range(1, order + 1)]
    z = [Fraction(1)]
    for n in range(1, order + 1):
        z.append(sum(per[k - 1] * z[n - k] for k in range(1, n + 1)) / n)
    out = []
    for v in z:
        if v.denominator != 1:
            raise AssertionError("zeta coefficients must be integers")
        out.append(int(v))
    return out


def verify_counts(n_max: int) -> dict:
    """Cross-check the exact counts for N = 1..n_max.

    For each N, the Lefschetz number from the trace of (c*)^N must equal
    the closed form, and Per_kappa(N) = C_N + 4 must equal Per_{2N}; the
    zeta coefficients up to order min(n_max, 12) must agree with
    exp(sum Per_N z^N / N).  Raises AssertionError naming the first
    failing N; returns a summary dict when everything agrees.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    s = _s_sequence(2 * n_max)
    c = _c_sequence(n_max)
    cstar = coxeter_star()
    power = LatticeEndo.identity()
    rows = []
    for N in range(1, n_max + 1):
        power = power @ cstar
        exact = 1 + power.trace() + 1
        affine = s[N] + 4 * (-1) ** N
        if exact != affine + 2:
            raise AssertionError(f"Lefschetz trace {exact} differs from the closed form {affine + 2} at N={N}")
        per_kappa = c[N] + 4
        if per_kappa != s[2 * N] + 4:
            raise AssertionError(f"per_kappa vs per_{2 * N} mismatch at N={N}")
        rows.append({"N": N, "lefschetz": exact, "per_affine": affine, "per_kappa": per_kappa})
    order = min(n_max, 12)
    za = zeta_coefficients(order)
    zb = _zeta_via_exp(order)
    if za != zb:
        n = next(i for i, (x, y) in enumerate(zip(za, zb)) if x != y)
        raise AssertionError(f"zeta coefficient mismatch at order {n}")
    return {"n_max": n_max, "rows": rows, "zeta_order": order, "zeta": za, "ok": True}


def random_offwall_kappa(rng, denominator_bound: int = 40) -> KappaPoint:
    """Random rational kappa certified off every wall in exact arithmetic."""
    for _ in range(1000):
        tail = []
        for _ in range(4):
            q = int(rng.integers(2, denominator_bound + 1))
            p = int(rng.integers(1, 2 * q))
            tail.append(Fraction(p, q))
        kappa = KappaPoint.from_tail(*tail)
        if not wall_membership(kappa).on_wall:
            return kappa
    raise RuntimeError("failed to sample an off-wall kappa")


@dataclass(frozen=True)
class SolverConfig:
    """The two settings of the multistart Newton solver, and its constants.

    seeds is the number of seed tuples drawn before the search may stop
    short of the closed form (see solve_periodic); the default serves
    every period, and it applies to each period solved, the divisors of N
    included.

    The rest are class constants: newton_tol, surface_tol (see _converged)
    and dedup_radius define what a complete report certifies.  Once seeds
    tuples are drawn, saturation_batches quiet batches in a row (no new
    root) end the search short of the closed form.
    """

    seeds: int = 200000
    rng_seed: int = 0
    newton_max_iter: ClassVar[int] = 100
    newton_tol: ClassVar[float] = 1e-10
    dedup_radius: ClassVar[float] = 1e-6
    surface_tol: ClassVar[float] = DEFAULT_SURFACE_TOL
    saturation_batches: ClassVar[int] = 5
    escape_radius: ClassVar[float] = DEFAULT_ESCAPE_RADIUS

    def __post_init__(self):
        if self.seeds <= 0:
            raise ValueError("seeds must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


@dataclass
class CountReport:
    """Outcome of one solve_periodic run."""

    N: int
    closed_form: int
    found: int = 0
    points: list = field(default_factory=list)  # (AffinePoint, residual)
    clusters: list = field(default_factory=list)  # (AffinePoint, multiplicity est.)
    minimal_periods: list = field(default_factory=list)
    orbits: list = field(default_factory=list)  # lists of cluster indices
    status: str = "partial"  # complete | saturated | partial

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "closed_form": self.closed_form,
            "found": self.found,
            "status": self.status,
            "points": [
                {**p.to_json(), "residual": float(r)} for (p, r) in self.points
            ],
            "clusters": [
                {**p.to_json(), "multiplicity_det": float(m)} for (p, m) in self.clusters
            ],
            "minimal_periods": list(self.minimal_periods),
            "orbits": [list(o) for o in self.orbits],
        }


def _coerce_theta4(theta):
    if hasattr(theta, "as_tuple"):
        theta = theta.as_tuple()
    return np.array([complex(t) for t in theta], dtype=complex)


def _max_abs(x) -> np.ndarray:
    """max(|x1|, |x2|, |x3|) per point; nan if any entry is nan."""
    return np.maximum(np.maximum(np.abs(x[0]), np.abs(x[1])), np.abs(x[2]))


def _gap(y, x) -> np.ndarray:
    """max_i |y_i - x_i| per point of three columns."""
    return _max_abs([y[0] - x[0], y[1] - x[1], y[2] - x[2]])


def _shooting_residual(x, t, n: int):
    """The shooting residual c(x_k) - x_{k+1 mod n} (k = 0..n-1), then f(x_0).

    x holds seed tuples as (3n, M) columns, rows 3k..3k+2 being x_k; the
    residual comes back as (3n + 1, M).
    """
    res = np.empty((3 * n + 1, x.shape[1]), dtype=complex)
    for k in range(n):
        y = coxeter_apply(x[3 * k:3 * k + 3], t)
        nxt = 3 * ((k + 1) % n)
        for r in range(3):
            np.subtract(y[r], x[nxt + r], out=res[3 * k + r])
    res[3 * n] = cubic_eval(x[:3], t)
    return res


def _system_residual(x, t, n: int) -> np.ndarray:
    """The shooting merit max_k |c(x_k) - x_{k+1 mod n}| and |f(x_0)| per
    tuple of (3n, M) columns."""
    return np.abs(_shooting_residual(x, t, n)).max(axis=0)


def _normal_equations(x, t, n: int):
    """Gauss-Newton normal equations J^H J and J^H r of the shooting system.

    J is block-cyclic: block row k holds Dc(x_k) in block column k and -I
    in block column k+1 mod n, and the last row is grad f(x_0) in block
    column 0.  The products are summed block by block from the n one-step
    Jacobians, never from a dense J; for n = 1 the block is Dc - I and for
    n = 2 the two blocks of a row share their off-diagonal block.

    Returns (a, jhr, res) in column layout: a[i, j] and jhr[i] are columns
    over the tuples, (3n, 3n, M) and (3n, M), and res is the (3n + 1, M)
    shooting residual.
    """
    m = x.shape[1]
    res = _shooting_residual(x, t, n)
    a = np.zeros((3 * n, 3 * n, m), dtype=complex)
    jhr = np.zeros((3 * n, m), dtype=complex)
    for k in range(n):
        b, nxt = 3 * k, 3 * ((k + 1) % n)
        d = np.array(coxeter_jacobian(x[b:b + 3], t, 1, escape_radius=np.inf))
        dc = np.conj(d)
        a[b:b + 3, b:b + 3] += np.einsum("rim,rjm->ijm", dc, d)
        a[nxt:nxt + 3, b:b + 3] -= d
        a[b:b + 3, nxt:nxt + 3] -= dc.transpose(1, 0, 2)
        for r in range(3):
            a[nxt + r, nxt + r] += 1
        jhr[b:b + 3] += np.einsum("rim,rm->im", dc, res[b:b + 3])
        jhr[nxt:nxt + 3] -= res[b:b + 3]
    g = np.array(cubic_gradient(x[:3], t))
    gc = np.conj(g)
    a[:3, :3] += gc[:, None] * g[None, :]
    jhr[:3] += gc * res[3 * n]
    return a, jhr, res


def _converged(x, gap, f, cfg: SolverConfig):
    """The solver's convergence test, per point: the map residual
    gap = max |c^n(x) - x| is below cfg.newton_tol and f(x) lies within
    cfg.surface_tol (1 + max |x_i|^3) of zero."""
    return (gap < cfg.newton_tol) & (np.abs(f) <= cfg.surface_tol * (1 + _max_abs(x) ** 3))


def _converged_scalar(x, t: np.ndarray, n: int, cfg: SolverConfig) -> bool:
    """_converged for one point x (3,) of period n, on Python complex scalars.

    numpy's array loops round complex products and abs differently from
    Python's scalar arithmetic, so a point that passes on columns can miss
    newton_tol when re-evaluated one point at a time, as any independent
    check of a report does.
    """
    p, theta = tuple(complex(v) for v in x), tuple(complex(v) for v in t)
    gap = max(abs(a - b) for a, b in zip(coxeter_apply(p, theta, n), p))
    return gap < cfg.newton_tol and abs(cubic_eval(p, theta)) <= surface_residual_bound(p, cfg.surface_tol)


def _make_seeds(count: int, t: np.ndarray, rng) -> np.ndarray:
    """Half box seeds of radius 10, half seeds placed on the surface.

    Returned as a (3, count) array of coordinate columns.
    """
    box = count // 2
    pts = (rng.uniform(-10, 10, size=(box, 3)) + 1j * rng.uniform(-10, 10, size=(box, 3)))
    rest = count - box
    x23 = rng.uniform(-10, 10, size=(rest, 2)) + 1j * rng.uniform(-10, 10, size=(rest, 2))
    # solve x1^2 + (x2 x3 - t1) x1 + (x2^2 + x3^2 - t2 x2 - t3 x3 + t4) = 0
    bq = x23[:, 0] * x23[:, 1] - t[0]
    cq = (x23 * x23).sum(axis=1) - t[1] * x23[:, 0] - t[2] * x23[:, 1] + t[3]
    sq = np.sqrt(bq * bq - 4 * cq)
    sign = np.where(rng.random(rest) < 0.5, 1.0, -1.0)
    x1 = (-bq + sign * sq) / 2
    return np.concatenate([pts.T, np.vstack([x1, x23.T])], axis=1)


def _make_tuples(count: int, n: int, t: np.ndarray, rng) -> np.ndarray:
    """count seed tuples of n independent seeds each, as (3n, count) columns."""
    return _make_seeds(n * count, t, rng).reshape(3, count, n).transpose(2, 0, 1).reshape(3 * n, count)


def _newton_batch(x: np.ndarray, t: np.ndarray, n: int, cfg: SolverConfig):
    """Damped Gauss-Newton on the multiple-shooting system of period n.

    Each tuple (x_0, ..., x_{n-1}) is driven towards c(x_k) = x_{k+1 mod n}
    and f(x_0) = 0: 3n + 1 equations in 3n unknowns.  The surface equation
    must ride along: f is invariant under c, so at an on-surface periodic
    orbit the square shooting system is singular.  Shooting one step at a
    time keeps the Jacobian entries of the size of one step, where
    c^n(x) - x would multiply n of them.

    x holds the seed tuples as (3n, M) columns, rows 3k..3k+2 being x_k.
    A tuple converges when x_0 passes _converged with gap
    max |c^n(x_0) - x_0|.  A generator: on each iteration at which some
    tuples converge, it yields them whole, as a (K, 3n) array whose row
    holds x_0, ..., x_{n-1} in turn, in seed order.  A caller that has
    what it needs stops iterating, and the iterations left are never run.

    A tuple whose merit none of _line_search's trials lowers has stalled
    at a local minimum of the merit and is dropped, and so is a tuple
    whose normal equations are not finite or not positive definite; the
    loop ends once every tuple has converged or left, often long before
    newton_max_iter.  Escaping tuples overflow to inf/nan and are dropped;
    the arithmetic warnings that produces are silenced within each
    iteration, never across a yield.
    """
    # x holds the live tuples as columns, in seed order; every tuple that
    # converges, stalls, escapes or goes bad is compacted away at once
    for _ in range(cfg.newton_max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = x[:3]
            conv = _converged(x0, _gap(coxeter_apply(x0, t, n), x0), cubic_eval(x0, t), cfg)
        if conv.any():
            yield x[:, conv].T
            x = x[:, ~conv]
        if x.shape[1] == 0:
            return
        x = _newton_step(x, t, n, cfg)


@np.errstate(over="ignore", invalid="ignore")
def _newton_step(x: np.ndarray, t: np.ndarray, n: int, cfg: SolverConfig) -> np.ndarray:
    """One damped Gauss-Newton step of _newton_batch on the live tuples x,
    (3n, M) columns; returns the tuples that stay in the batch, stepped."""
    a, jhr, res = _normal_equations(x, t, n)
    rnorm = np.abs(res).max(axis=0)
    del res
    # tiny Levenberg shift makes J^H J positive definite; it is Hermitian
    # positive semidefinite, so its largest entry is on the diagonal (and a
    # non-finite J shows there too, as a pivot that is not finite)
    shift = 1e-14 * np.diagonal(a).real.max(axis=1) + 1e-30
    for r in range(3 * n):
        a[r, r] += shift
    # drop the tuples whose matrix is not positive definite after all, or
    # whose step is not finite
    dx = -jhr
    ok = _cholesky_solve(a, dx) & np.isfinite(dx).all(axis=0)
    del a
    if not ok.all():
        x, dx, rnorm = x[:, ok], dx[:, ok], rnorm[ok]
    xnew, improved = _line_search(x, dx, rnorm, t, n)
    return xnew[:, improved & (np.abs(xnew).max(axis=0) <= cfg.escape_radius)]


def _cholesky_solve(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve a z = y for each column of a batch of Hermitian positive
    definite systems, in place, by a Cholesky factorisation a = L L^H.

    a is (m, m, M) and y is (m, M), in column layout: a[i, j] and y[i] are
    columns over the systems.  a is overwritten by L on and below its
    diagonal and by L^H above it, and y by z.  Returns ok (M,): False where
    a pivot is not positive and finite, that is where a is not positive
    definite or holds a nan, and the columns of z there are nan.

    No pivoting is needed.  Every operation is on whole (M,) columns,
    never broadcast across rows, so each system comes out the same bit for
    bit whatever the other columns hold, and alone.
    """
    m = len(a)
    ok = np.ones(a.shape[2], dtype=bool)
    diag = np.diagonal(a).real.T  # a view: row j is the real part of a[j, j]
    tmp = np.empty_like(y[0])
    for j in range(m):
        good = (diag[j] > 0) & (diag[j] < np.inf)
        ok &= good
        # a failed pivot goes on as 1, so that no nan meets a division
        a[j, j] = np.sqrt(np.where(good, diag[j], 1))
        for r in range(j + 1, m):
            a[r, j] /= diag[j]
            np.conj(a[r, j], out=a[j, r])
        for i in range(j + 1, m):
            for r in range(i, m):
                a[r, i] -= np.multiply(a[r, j], a[j, i], out=tmp)
    for j in range(m):  # L w = y
        y[j] /= diag[j]
        for r in range(j + 1, m):
            y[r] -= np.multiply(a[r, j], y[j], out=tmp)
    for j in reversed(range(m)):  # L^H z = w
        y[j] /= diag[j]
        for r in range(j):
            y[r] -= np.multiply(a[r, j], y[j], out=tmp)
    y[:, ~ok] = np.nan
    return ok


_LINE_SEARCH_BLOCK = 2048  # most trial points one residual call evaluates


def _line_search(x: np.ndarray, dx: np.ndarray, rnorm: np.ndarray, t: np.ndarray, n: int):
    """Damp each step: x + 2^-k dx for the first k = 0..25 whose residual
    is below rnorm.

    Returns (xnew, improved).  A point that none of the 26 trials improves
    has stalled: improved is False there, and its column of xnew holds the
    undamped step x + dx, which the caller drops.

    Only the points that have not improved yet go on to the next halving.
    Once they are few, the next several halvings are evaluated in one call
    of at most _LINE_SEARCH_BLOCK trial points; each trial rounds the same
    in any block, so the result does not depend on the block size.
    """
    xnew = x + dx
    improved = _system_residual(xnew, t, n) < rnorm
    todo = np.flatnonzero(~improved)
    k = 1
    while todo.size and k <= 25:
        s = todo.size
        span = min(26 - k, max(1, _LINE_SEARCH_BLOCK // s))
        scale = 0.5 ** np.arange(k, k + span)
        trial = x[:, None, todo] + scale[:, None] * dx[:, None, todo]  # (3n, span, s)
        better = _system_residual(trial.reshape(len(x), -1), t, n).reshape(span, s) < rnorm[todo]
        settled = better.any(axis=0)
        done = todo[settled]
        # argmax: the first improving halving
        xnew[:, done] = trial[:, better[:, settled].argmax(axis=0), np.flatnonzero(settled)]
        improved[done] = True
        todo = todo[~settled]
        k += span
    return xnew, improved


def _cluster_index(reps: np.ndarray, x: np.ndarray, radius: float) -> np.ndarray:
    """For each point of x (K, 3), the index of the first representative of
    reps (C, 3) within radius * (1 + max |rep_i|) of it in every
    coordinate, or -1 if there is none.

    A point is compared only with the representatives whose Re x_1 lies
    within twice the largest scale of its own, found by binary search; the
    margin covers the rounding of the window's edges, so the result equals
    the scan over all pairs.  reps must be finite.
    """
    scale = radius * (1 + np.abs(reps).max(axis=1))
    order = np.argsort(reps[:, 0].real)
    key, width = reps[order, 0].real, 2 * scale.max(initial=0)
    lo = np.searchsorted(key, x[:, 0].real - width)
    count = np.searchsorted(key, x[:, 0].real + width, side="right") - lo
    point = np.repeat(np.arange(len(x)), count)
    rep = order[np.arange(len(point)) + np.repeat(lo - np.cumsum(count) + count, count)]
    hit = np.abs(x[point] - reps[rep]).max(axis=1) <= scale[rep]
    first = np.full(len(x), len(reps))
    np.minimum.at(first, point[hit], rep[hit])
    return np.where(first < len(reps), first, -1)


def _transverse_multiplicity(jac: np.ndarray) -> np.ndarray:
    """|(1 - l1)(1 - l2)| over the two surface eigenvalues of Dc^N.

    The third eigenvalue of Dc^N at an on-surface periodic point is the
    trivial 1 coming from the invariance of f, so det(I - Dc^N) vanishes
    identically; the sum of the principal 2x2 minors of I - Dc^N factors
    out that root and measures transversality on the surface itself.
    jac is (3, 3, C), one Jacobian per column; returns C values.
    """
    a = -jac
    for r in range(3):
        a[r, r] += 1
    e2 = (
        a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    )
    return np.abs(e2)


_SEED_CHUNK = 2048  # most seed tuples one Newton batch holds


def _proper_divisors(N: int) -> list:
    return [d for d in range(1, N) if N % d == 0]


def solve_periodic(theta, N: int, cfg: SolverConfig = SolverConfig()) -> CountReport:
    """Find the N-periodic points of c on S(theta) by multistart Newton.

    Damped Gauss-Newton runs on the multiple-shooting system
    c(x_k) = x_{k+1 mod N} (k = 0..N-1) with f(x_0) = 0 in ambient C^{3N},
    from tuples of N independent seeds (see _newton_batch).  A tuple counts
    as converged when x_0 has map residual |c^N(x_0) - x_0| below
    cfg.newton_tol and surface residual within cfg.surface_tol of the
    surface.  The seeds come from one stream, seeded by cfg.rng_seed, in
    batches of min(_SEED_CHUNK, cfg.seeds) tuples.  A converged tuple
    holds a whole orbit (x_0, ..., x_{d-1}), d its minimal period read off
    the tuple, and for real theta, where c commutes with complex
    conjugation, so does its conjugate.  Each point of an orbit is
    admitted on its own, if it matches no root and passes the convergence
    test on numpy columns and again on Python scalars; a point that fails
    leaves its place to a later tuple of the orbit.  Only a tuple whose
    x_0 lies on an orbit that is already whole adds nothing.  The roots
    are then classified by minimal period.  The maps are surface's
    coxeter_apply, coxeter_jacobian, cubic_eval and cubic_gradient, run
    on coordinate columns.

    Before its own batches, the search solves each proper divisor d of N
    with per_count_closed(d) > 0 in the same way, with the same cfg and
    its own stream of the same seed, once per call (N = 8 solves d = 2
    once, for d = 4 and for 8).  Each root found there is offered as the
    N-tuple (x, c(x), ..., c^{N-1}(x)) and admitted only by the tests at
    period N; the divisor roots head the report.  A divisor root that
    fails them is left to the period-N batches.

    A batch hands over its converged tuples after each Newton iteration,
    and the search stops as soon as the number of roots equals
    per_count_closed(N), partway through a batch if need be.  Short of
    that, it stops after a batch once cfg.seeds tuples are drawn and the
    last saturation_batches batches added no root; a batch left early
    counts as all its tuples drawn.  The first batch always runs.  Every
    batch that is not quiet adds a root, and the search stops at the
    closed form, so it ends within saturation_batches * (closed form + 1)
    batches past cfg.seeds tuples.
    The divisor searches stop by the same rule at their own closed forms.

    status is "complete" when the root count equals the closed form and no
    root is flagged multiple, "saturated" when the search stopped on quiet
    batches, and "partial" when it reached the closed form with a root
    flagged multiple.  Genericity of theta is the caller's burden
    (solve_for_kappa checks the walls).  Deterministic for a fixed
    cfg.rng_seed.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    t = _coerce_theta4(theta)
    closed = per_count_closed(N, "affine")
    report = CountReport(N=N, closed_form=closed)
    clusters, orbit_of, saturated = _find_roots(t, N, cfg, {})
    found = len(clusters)

    # classify: minimal periods and multiplicity estimates
    cols = clusters.T
    residuals = _gap(coxeter_apply(cols, t, N), cols)
    mults = _transverse_multiplicity(np.array(coxeter_jacobian(cols, t, N, escape_radius=np.inf)))
    multiple = bool((mults < 1e-6).any())
    periods = np.full(found, N)
    scale = cfg.dedup_radius * (1 + _max_abs(cols))
    for d in reversed(_proper_divisors(N)):
        periods[_gap(coxeter_apply(cols, t, d), cols) <= scale] = d
    for x, r, mult, period in zip(clusters, residuals, mults, periods):
        report.points.append((AffinePoint(*x), float(r)))
        report.clusters.append((AffinePoint(*x), float(mult)))
        report.minimal_periods.append(int(period))
    ids = np.array(orbit_of)
    report.orbits = [np.flatnonzero(ids == o).tolist() for o in dict.fromkeys(orbit_of)]

    report.found = found
    if found == closed and not multiple:
        report.status = "complete"
    elif saturated:
        report.status = "saturated"
    else:
        report.status = "partial"
    return report


def _find_roots(t: np.ndarray, N: int, cfg: SolverConfig, solved: dict):
    """The roots of c^N on S(t), as solve_periodic finds them.

    Returns (roots (K, 3), orbit_of, saturated): orbit_of gives, for each
    root, the index of its orbit's first root.  solved maps each period
    searched so far in this call to its roots; each proper divisor d of N
    with per_count_closed(d) > 0 is searched once, through it, and its
    roots are offered first as N-tuples (x, c(x), ..., c^{N-1}(x)).  Each
    Newton batch is absorbed one yield at a time and left as soon as the
    roots reach per_count_closed(N).
    """
    radius = cfg.dedup_radius
    divisors = _proper_divisors(N)
    clusters = np.empty((0, 3), dtype=complex)
    orbit_of = []  # for each cluster, the index of its orbit's first cluster
    whole = np.empty(0, dtype=bool)  # for each cluster, whether its orbit is whole

    def absorb(tuples: np.ndarray):
        # a tuple whose x_0 lies on a whole orbit adds nothing; the others
        # are taken one at a time, each point of the orbit on its own, so a
        # tuple on an orbit that is not whole yet may supply what is missing
        nonlocal clusters, whole
        if not t.imag.any():
            tuples = np.concatenate([tuples, tuples.conj()])
        # no match (-1) reads the appended False
        on_whole = np.append(whole, False)[_cluster_index(clusters, tuples[:, :3], radius)]
        tuples = tuples[~on_whole].reshape(-1, N, 3)
        while len(tuples):
            orbit, tuples = tuples[0], tuples[1:]
            scale = radius * (1 + _max_abs(orbit[0]))
            d = next((d for d in divisors if _gap(orbit[d], orbit[0]) <= scale), N)
            pts = orbit[:d]
            x, idx = pts.T, _cluster_index(clusters, pts, radius)
            # an entry that repeats an earlier one is never admitted: d reads
            # too long when x_d lags behind the orbit
            fresh = (idx < 0) & (_cluster_index(pts, pts, radius) == np.arange(d))
            fresh &= _converged(x, _gap(coxeter_apply(x, t, N), x), cubic_eval(x, t), cfg)
            new = pts[[j for j in np.flatnonzero(fresh) if _converged_scalar(pts[j], t, N, cfg)]]
            known = idx[idx >= 0]
            orbit_of.extend([orbit_of[known[0]] if len(known) else len(clusters)] * len(new))
            reps = np.concatenate([clusters[known], new])
            clusters = np.concatenate([clusters, new])
            whole = np.concatenate([whole, np.full(len(new), len(reps) == d)])
            if len(reps) == d:
                whole[known] = True
                tuples = tuples[_cluster_index(reps, tuples[:, 0], radius) < 0]

    for d in divisors:
        if per_count_closed(d) == 0:
            continue
        if d not in solved:
            solved[d] = _find_roots(t, d, cfg, solved)[0]
        orbit = [solved[d].T]
        for _ in range(N - 1):
            orbit.append(np.array(coxeter_apply(orbit[-1], t)))
        absorb(np.concatenate(orbit).T)

    closed = per_count_closed(N)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed).spawn(1)[0])
    size = min(_SEED_CHUNK, cfg.seeds)
    drawn = quiet = 0
    while True:
        before = len(clusters)
        for tuples in _newton_batch(_make_tuples(size, N, t, rng), t, N, cfg):
            absorb(tuples)
            if len(clusters) == closed:
                break
        drawn += size
        quiet = 0 if len(clusters) > before else quiet + 1
        if len(clusters) == closed or (drawn >= cfg.seeds and quiet >= cfg.saturation_batches):
            break
    return clusters, orbit_of, quiet >= cfg.saturation_batches


def solve_for_kappa(kappa: KappaPoint, N: int, cfg: SolverConfig = SolverConfig()) -> CountReport:
    """Solve on S(rh(kappa)) (see solve_periodic) if kappa is off every
    wall; the surface is singular exactly there, so that test alone decides."""
    if wall_membership(kappa).on_wall:
        raise ValueError("nongeneric parameters: kappa lies on a wall")
    return solve_periodic(rh_params(kappa), N, cfg)
