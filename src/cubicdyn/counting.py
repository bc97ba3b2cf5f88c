"""Periodic-point counts: closed forms, zeta function, and a solver.

The exact side works with big integers through linear recurrences:
s_N = (2+sqrt5)^N + (2-sqrt5)^N obeys s_{N+2} = 4 s_{N+1} + s_N, and the counts
double it; C_N = s_2N obeys C_{N+2} = 18 C_{N+1} - C_N, for verify's check and zeta.
The numeric side is a multistart Newton solver for c^N(x) = x on the
surface, which reproduces the closed-form counts at small N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from typing import ClassVar

import numpy as np

from .lattice import RANK, charpoly, coxeter_star, trace_power
from .params import KappaPoint, rh_params, wall_membership
from .surface import (
    DEFAULT_ESCAPE_RADIUS,
    DEFAULT_SURFACE_TOL,
    _coerce_theta,
    _max_abs,
    _sigma_row,
    coxeter_apply,
    coxeter_jacobian,
    cubic_eval,
    cubic_gradient,
    sigma_apply,
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


def _recurrence(a0: int, a1: int, p: int, q: int):
    """The terms a_0, a_1, ... with a_{n+2} = p a_{n+1} + q a_n, lazily and in
    the number type of a0 and a1, so that term N costs no list of the earlier
    ones: s_N is _recurrence(2, 4, 4, 1) and C_N is _recurrence(2, 18, 18, -1).
    q is 1 or -1 (ValueError otherwise): a_n is added or subtracted, not multiplied."""
    if q not in (1, -1):
        raise ValueError(f"q must be 1 or -1, not {q!r}")
    while True:
        yield a0
        a0, a1 = a1, (p * a1 + a0 if q == 1 else p * a1 - a0)


def _doubling(N: int, one):
    """s_N of _recurrence(2, 4, 4, 1) in about 2 log2(N) products and in the
    number type of one (see _zeta_series):
    s_2n = s_n^2 - 2e and s_2n+1 = s_n s_n+1 - 4e, where e = (-1)^n."""
    a, b, e = 2 * one, 4 * one, 1  # s_n, s_n+1 and e at n = 0
    for bit in bin(N)[2:]:  # n -> 2n + bit
        odd = a * b - 4 * e  # s_2n+1
        a, b, e = (odd, b * b + 2 * e, -1) if bit == "1" else (a * a - 2 * e, odd, 1)
    return a


def lefschetz_number(N: int):
    """Lefschetz number of c^N on the compactified surface.

    Returns (exact, closed) where exact = 1 + tr((c*)^N) + 1 with
    big-integer matrix powers and closed is the projective count of
    per_count_closed plus one, (2+sqrt5)^N + (2-sqrt5)^N + 4(-1)^N + 2.
    Raises AssertionError if they differ.
    """
    closed = per_count_closed(N, "projective") + 1
    exact = 1 + trace_power(coxeter_star(), N) + 1
    if exact != closed:
        raise AssertionError(f"Lefschetz trace {exact} differs from the closed form {closed} at N={N}")
    return exact, closed


def per_count_closed(N: int, space: str = "affine") -> int:
    """Number of N-periodic points of c, exactly.

    affine: s_N + 4(-1)^N, where s_N = (2+sqrt5)^N + (2-sqrt5)^N comes by
    doubling; projective adds the one periodic point at infinity.
    """
    return _per_count(N, space, 1)


def _per_count(N: int, space: str, one):
    """per_count_closed in the number type of one (see _zeta_series)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if space not in ("affine", "projective"):
        raise ValueError(f"unknown space {space!r}")
    val = _doubling(N, one) + 4 * (-1) ** N
    return val + 1 if space == "projective" else val


def per_kappa_closed(N: int) -> int:
    """Number of N-periodic solutions along the full loop, which acts as c^2: Per_2N."""
    return _per_kappa(N, 1)


def _per_kappa(N: int, one):
    """per_kappa_closed in the number type of one (see _zeta_series)."""
    return _per_count(2 * N, "affine", one)


def _zeta_series(order: int, one):
    """The Taylor coefficients of 1/((1-z)^4 (1-18z+z^2)) up to z^order, each
    computed as it is asked for, in the number type of one (1, or Decimal(1),
    whose str() is linear in the digits, under a context that traps rounding).
    The coefficients of 1/(1-18z+z^2) are C_N's recurrence started at 1, 18,
    and multiplying a series by 1/(1-z) turns it into its running sums, so
    the series is four running sums of that recurrence."""
    series = islice(_recurrence(one, 18 * one, 18, -1), order + 1)
    for _ in range(4):
        series = accumulate(series)
    yield from series


def zeta_coefficients(order: int) -> list:
    """Taylor coefficients of 1/((1-z)^4 (1-18z+z^2)) up to z^order, as
    exact integers (see _zeta_series)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return list(_zeta_series(order, 1))


def _zeta_via_exp(order: int) -> list:
    """Independent zeta coefficients from exp(sum Per_N z^N / N).

    Per_N = per_kappa_closed(N) = s_2N + 4, apart from _zeta_series' C_N recurrence;
    n z_n = sum_k Per_k z_{n-k} (the logarithmic derivative), in exact rationals.
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
    the closed form, and C_N + 4 from C_N's own recurrence must equal
    Per_kappa(N) = Per_2N = s_2N + 4; zeta up to order min(n_max, 12)
    must agree with exp(sum Per_N z^N / N).  The traces t_N of (c*)^N,
    independent of the s_N and C_N recurrences, are big-integer matrix
    products for N <= RANK and then, by Cayley-Hamilton with c*'s
    charpoly x^7 + p_6 x^6 + ... + p_0, t_N = -(p_6 t_{N-1} + ... + p_0 t_{N-7}).
    Raises AssertionError naming the first failing N; returns a summary
    dict when everything agrees.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    s = list(islice(_recurrence(2, 4, 4, 1), 2 * n_max + 1))
    c = list(islice(_recurrence(2, 18, 18, -1), n_max + 1))
    m = coxeter_star()
    poly = charpoly(m)[:RANK]
    cstar, power = np.array(m.entries, dtype=object), np.identity(RANK, dtype=object)
    traces, rows = [RANK], []
    for N in range(1, n_max + 1):
        if N <= RANK:
            power = power @ cstar
            traces.append(power.trace())
        else:
            traces.append(-sum(p * t for p, t in zip(poly, traces[N - RANK:])))
        exact = 1 + traces[N] + 1
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


def random_offwall_kappa(rng) -> KappaPoint:
    """Random rational kappa certified off every wall in exact arithmetic:
    each k_i is p/q with 2 <= q <= 40 and 0 < p < 2q."""
    for _ in range(1000):
        tail = []
        for _ in range(4):
            q = int(rng.integers(2, 41))
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
    included.  It also caps the width of each seed batch (see _find_roots).

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
    """Outcome of one solve_periodic run: the roots as the rows of points,
    and their residuals, multiplicities and minimal_periods in that order.

    orbits partitions the root indices into c-orbits, each in root order
    and headed by its least index.  In a run short of the closed form an
    orbit may miss points: its record then holds the roots found, and
    may be shorter than their minimal period.
    """

    N: int
    closed_form: int
    points: np.ndarray = field(default_factory=list)  # (K, 3) roots, or any array-like of that shape
    residuals: list = field(default_factory=list)  # |c^N(x) - x|
    multiplicities: list = field(default_factory=list)  # |det| estimate (see _transverse_multiplicity)
    minimal_periods: list = field(default_factory=list)
    orbits: list = field(default_factory=list)  # lists of root indices
    status: str = "partial"  # complete | saturated | partial

    @property
    def found(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        # each point's "x" as AffinePoint.to_json writes it, built for all
        # the points at once from one complex array
        pts = np.asarray(self.points, dtype=complex).reshape(-1, 3)
        xs = np.stack([pts.real, pts.imag], axis=-1).tolist()
        return {
            "N": self.N,
            "closed_form": self.closed_form,
            "found": self.found,
            "status": self.status,
            "points": [{"x": x, "residual": float(r)} for x, r in zip(xs, self.residuals, strict=True)],
            "clusters": [{"multiplicity_det": float(m)} for m in self.multiplicities],
            "minimal_periods": list(self.minimal_periods),
            "orbits": [list(o) for o in self.orbits],
        }


def _gap(y, x):
    """max_i |y_i - x_i| of a point, or per point of three columns."""
    return _max_abs([y[0] - x[0], y[1] - x[1], y[2] - x[2]])


@lru_cache(maxsize=None)
def _letters(n: int):
    """The letter system at period n, as (rows, gram).  Block k applies
    sigma_3, sigma_2 and sigma_1 to x_k, each moving its slot i of the state
    on to x_{k+1 mod n}'s: row (row, i, state, new) matches sigma_i's new
    coordinate on the unknowns state to unknown new = row + 3 mod 3n.  The
    Jacobian's constant part is -(I + P), -1 at unknowns row and new, with P
    the shift from x_k to x_{k+1 mod n}; gram, read-only, is (I + P)^H (I + P)."""
    rows = []
    for k in range(n):
        state = [3 * k, 3 * k + 1, 3 * k + 2]
        for i in (3, 2, 1):
            row, new = 3 * k + i - 1, (3 * k + i + 2) % (3 * n)
            rows.append((row, i, tuple(state), new))
            state[i - 1] = new
    c = np.eye(3 * n) + np.roll(np.eye(3 * n), 3, axis=1)
    gram = c.T @ c
    gram.flags.writeable = False
    return tuple(rows), gram


def _letter_residual(x, t, n: int):
    """sigma_i(state)_i - x_new for each row of _letters(n), then f(x_0), as
    (3n + 1, M) for the tuples x, (3n, M) columns with rows 3k..3k+2 holding
    x_k.  Block k is 0 exactly when c(x_k) = x_{k+1 mod n}."""
    res = np.empty((3 * n + 1, x.shape[1]), dtype=complex)
    for row, i, state, new in _letters(n)[0]:
        np.subtract(sigma_apply(i, [x[s] for s in state], t)[i - 1], x[new], out=res[row])
    res[3 * n] = cubic_eval(x[:3], t)
    return res


def _system_residual(x, t, n: int) -> np.ndarray:
    """The shooting merit max |_letter_residual| per tuple of (3n, M) columns."""
    return np.abs(_letter_residual(x, t, n)).max(axis=0)


def _normal_equations(x, t, n: int):
    """Gauss-Newton normal equations J^H J and J^H r of the letter system.

    A row of J holds -1 at unknowns row and new, and sigma_i's partials
    (_sigma_row) at the state's other two unknowns; the last row is
    grad f(x_0).  J^H J starts from the gram of _letters, the product of
    the -1 entries, and the rest is added column by column.  Returns (a,
    jhr, res) in column layout: a[i, j] and jhr[i] are columns over the
    tuples, (3n, 3n, M) and (3n, M); res is _letter_residual.
    """
    rows, gram = _letters(n)
    res = _letter_residual(x, t, n)
    a = np.broadcast_to(gram[:, :, None], (3 * n, 3 * n, x.shape[1])).astype(complex)
    jhr = np.zeros((3 * n, x.shape[1]), dtype=complex)
    for row, i, state, new in rows:
        r = res[row]
        partials = [(state[j], w, np.conj(w)) for j, w in _sigma_row(i, [x[s] for s in state])]
        for p in (row, new):
            jhr[p] -= r
            for u, w, wc in partials:  # the partial at unknown u is -w
                a[u, p] += wc
                a[p, u] += w
        for u, w, wc in partials:
            jhr[u] -= wc * r
            for v, e, _ in partials:
                a[u, v] += wc * e
    g = np.array(cubic_gradient(x[:3], t))
    gc = np.conj(g)
    a[:3, :3] += gc[:, None] * g[None, :]
    jhr[:3] += gc * res[3 * n]
    return a, jhr, res


def _converged(x, t, n: int, cfg: SolverConfig):
    """The solver's convergence test at period n: the map residual
    max |c^n(x) - x| is below cfg.newton_tol and |f(x)| is within
    surface_residual_bound(x, cfg.surface_tol).

    x is numpy coordinate columns (3, M), tested per point, or one point of
    three Python complex scalars; t is four Python complex scalars, or on
    columns their array, which rounds the same.  A point is tested in
    Python's own arithmetic and abs, as any independent check of a report
    re-evaluates it; numpy's array loops round complex products and abs
    differently, so a point that passes on columns can fail as a point.
    """
    gap = _gap(coxeter_apply(x, t, n), x)
    return (gap < cfg.newton_tol) & (abs(cubic_eval(x, t)) <= surface_residual_bound(x, cfg.surface_tol))


def _seed_radius(t) -> float:
    """R(theta) = 2 + sqrt(max_i |theta_i|) / 2, the half-width of the seed box.

    The periodic points of c lie in a bounded set that grows with theta:
    on 41 off-wall kappa every root of c^N (N = 2, 3, 4) has max |x_i|
    between 1.66 and 3.47, growing like sqrt(max |theta_i|), and between
    0.68 R and 0.97 R.
    """
    return 2 + 0.5 * np.sqrt(np.abs(t).max())


def _make_tuples(count: int, n: int, t, rng) -> np.ndarray:
    """count seed tuples of n independent seeds each, as (3n, count) columns.

    Every coordinate of a seed has real and imaginary parts uniform in
    [-R, R], R = _seed_radius(t).  The box scales with theta, so that it
    still holds the periodic points where they lie farther out.
    """
    r = _seed_radius(t)
    pts = rng.uniform(-r, r, size=(n * count, 3)) + 1j * rng.uniform(-r, r, size=(n * count, 3))
    return pts.reshape(count, n, 3).transpose(1, 2, 0).reshape(3 * n, count)


def _orbit_tuples(x: np.ndarray, t, n: int) -> np.ndarray:
    """The n-tuples (x, c(x), ..., c^{n-1}(x)) of the points x (K, 3), as
    (3n, K) columns."""
    orbit = [x.T]
    for _ in range(n - 1):
        orbit.append(np.array(coxeter_apply(orbit[-1], t)))
    return np.concatenate(orbit)


def _newton_batch(x: np.ndarray, t, n: int, cfg: SolverConfig, joining: list):
    """Damped Gauss-Newton on the letter system of period n.

    Each tuple (x_0, ..., x_{n-1}) is driven towards c(x_k) = x_{k+1 mod n},
    one sigma-letter at a time (see _letters), and f(x_0) = 0: 3n + 1
    equations in 3n unknowns; f rides along, as it is invariant under c and
    the square system is singular at an on-surface orbit.  Each Jacobian row
    is quadratic, with four entries, where a step of c has degree 5.

    x holds the seed tuples as (3n, M) columns, rows 3k..3k+2 being x_k.
    A tuple converges when x_0 passes _converged at period n.  A generator:
    on each iteration at which some tuples converge, it yields them whole,
    as a (K, 3n) array whose row holds x_0, ..., x_{n-1} in turn, in the
    order of x.  A caller that has what it needs stops iterating, and the
    iterations left are never run.  Tuples (3n, K) in the list joining, at
    the start or appended while the caller holds a yield, are moved into
    the batch after its other tuples, and are stepped from then on.
    Each system is solved the same bit for bit whatever the other columns
    hold, so the tuples that join change no other tuple's path.

    A tuple whose merit none of _line_search's three trials lowers has
    stalled, near a local minimum of the merit or where its step is poor,
    and is dropped, and so is a tuple whose normal equations are not
    finite or not positive definite; the loop ends once every tuple has
    converged or left, often long before newton_max_iter.  Escaping
    tuples overflow to inf/nan and are dropped; the arithmetic warnings
    that produces are silenced within each iteration, never across a
    yield.
    """
    # x holds the live tuples as columns, in seed order; every tuple that
    # converges, stalls, escapes or goes bad is compacted away at once
    for _ in range(cfg.newton_max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            conv = _converged(x[:3], t, n, cfg)
        if conv.any():
            yield x[:, conv].T
            x = x[:, ~conv]
        if joining:
            x = np.concatenate([x, *joining], axis=1)
            joining.clear()
        if x.shape[1] == 0:
            return
        x = _newton_step(x, t, n, cfg)


@np.errstate(over="ignore", invalid="ignore")
def _newton_step(x: np.ndarray, t, n: int, cfg: SolverConfig) -> np.ndarray:
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
    ok = _cholesky_solve(a, dx, _cholesky_pattern(n)) & np.isfinite(dx).all(axis=0)
    del a
    if not ok.all():
        x, dx, rnorm = x[:, ok], dx[:, ok], rnorm[ok]
    xnew, improved = _line_search(x, dx, rnorm, t, n)
    return xnew[:, improved & (np.abs(xnew).max(axis=0) <= cfg.escape_radius)]


@lru_cache(maxsize=None)
def _cholesky_pattern(n: int) -> np.ndarray:
    """The nonzero pattern of the Cholesky factor L of J^H J at period n,
    as a read-only (3n, 3n) boolean array, True on and below the diagonal
    where L may be nonzero.

    J^H J is nonzero where two unknowns share a row of J: a row of
    _letters(n) holds unknowns row and new and the two of its state that
    _sigma_row names, and grad f holds x_0.  Symbolic elimination adds the
    fill: eliminating column j joins every pair of rows below the diagonal
    that column j holds.  For n <= 2 L is dense; from n = 3 on the
    factorisation takes 85 n - 157 column updates in place of
    (3n + 1) 3n (3n - 1) / 6.  _cholesky_schedule turns the pattern into
    _cholesky_solve's loops, once per pattern.
    """
    pattern = np.zeros((3 * n, 3 * n), dtype=bool)
    for row, i, state, new in _letters(n)[0]:
        support = [row, new, *(state[j] for j, _ in _sigma_row(i, state))]
        pattern[np.ix_(support, support)] = True
    pattern[:3, :3] = True
    pattern = np.tril(pattern)
    for j in range(3 * n):
        rows = np.flatnonzero(pattern[j + 1:, j]) + j + 1
        pattern[np.ix_(rows, rows)] |= np.tri(len(rows), dtype=bool)
    pattern.flags.writeable = False
    return pattern


@lru_cache(maxsize=None)
def _cholesky_schedule(m: int, bits: bytes):
    """The loops of _cholesky_solve under the (m, m) boolean pattern whose
    bytes are bits, built on the pattern's first use and shared by every
    later solve under it: (updates, below, left), where below[j] holds the
    rows of L's column j below the diagonal and left[i] the columns of L's
    row i left of it, in ascending order, and updates[i] pairs each j of
    left[i] with the rows of below[j] from i on, the entries of column i
    that column j updates."""
    pattern = np.frombuffer(bits, dtype=bool).reshape(m, m)
    below = [tuple((np.flatnonzero(pattern[j + 1:, j]) + j + 1).tolist()) for j in range(m)]
    left = [tuple(np.flatnonzero(pattern[i, :i]).tolist()) for i in range(m)]
    updates = [tuple((j, below[j][below[j].index(i):]) for j in left[i]) for i in range(m)]
    return tuple(updates), tuple(below), tuple(left)


def _cholesky_solve(a: np.ndarray, y: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Solve a z = y for each column of a batch of Hermitian positive
    definite systems, in place, by a Cholesky factorisation a = L L^H.

    a is (m, m, M) and y is (m, M), in column layout: a[i, j] and y[i] are
    columns over the systems.  pattern (m, m) holds, on and below its
    diagonal, every entry where L may be nonzero (see _cholesky_pattern;
    all True for a dense a); the factorisation and both triangular solves
    run over it alone, in the order of its _cholesky_schedule.  a is
    overwritten by L within the pattern and by L^H at its mirror image
    above the diagonal, and y by z.  Returns ok (M,): False where a pivot
    is not positive and finite, that is where a is not positive definite
    or holds a nan, and the columns of z there are nan.

    Each column is multiplied by the reciprocal 1 / L[j, j] of its pivot,
    held as a complex column with imaginary part 0, and not divided by the
    real pivot.  numpy divides a complex a + bi by d + 0i (Smith's method)
    as (a + b 0) s + (b - a 0) s i with s = 1 / d, and multiplying by
    s + 0i gives (a s - b 0) + (a 0 + b s) i: the same values, up to the
    sign of an exact zero, at a fraction of a division's cost.

    No pivoting is needed.  The factorisation is left-looking, and each
    entry of L receives its updates in ascending column order, as a dense
    right-looking one gives them; an update left out would subtract an
    exact zero, so the result is the same bit for bit.  Every operation is
    on whole (M,) columns, never broadcast across rows, so each system
    comes out the same bit for bit whatever the other columns hold, and
    alone.
    """
    m = len(a)
    ok = np.ones(a.shape[2], dtype=bool)
    diag = np.diagonal(a).real.T  # a view: row j is the real part of a[j, j]
    inv = np.empty_like(y)  # inv[j] is 1 / L[j, j], with imaginary part 0
    tmp = np.empty_like(y[0])
    # bound once: a lookup on np per call costs a sizeable part of a short column's arithmetic
    multiply, subtract = np.multiply, np.subtract
    col = [list(a[:, j]) for j in range(m)]  # col[j][r] is the view a[r, j]
    z = list(y)  # z[r] is the view y[r]
    updates, below, left = _cholesky_schedule(m, pattern.tobytes())
    for i in range(m):
        ci, d = col[i], diag[i]
        for j, rows in updates[i]:
            cj, u = col[j], ci[j]  # u is a[j, i], the conjugate of L[i, j]
            for r in rows:
                subtract(ci[r], multiply(cj[r], u, out=tmp), out=ci[r])
        good = (d > 0) & (d < np.inf)
        ok &= good
        # a failed pivot goes on as 1, so that no nan or inf reaches 1 / L[i, i]
        ci[i][...] = np.sqrt(np.where(good, d, 1))
        np.divide(1, d, out=inv[i])
        for r in below[i]:
            multiply(ci[r], inv[i], out=ci[r])
            np.conj(ci[r], out=col[r][i])
    for j in range(m):  # L w = y
        cj, zj = col[j], multiply(z[j], inv[j], out=z[j])
        for r in below[j]:
            subtract(z[r], multiply(cj[r], zj, out=tmp), out=z[r])
    for j in reversed(range(m)):  # L^H z = w
        cj, zj = col[j], multiply(z[j], inv[j], out=z[j])
        for r in left[j]:
            subtract(z[r], multiply(cj[r], zj, out=tmp), out=z[r])
    y[:, ~ok] = np.nan
    return ok


def _line_search(x: np.ndarray, dx: np.ndarray, rnorm: np.ndarray, t, n: int):
    """Damp each step: the first of x + dx, x + dx/2 and x + dx/4 whose
    residual is below rnorm.

    Returns (xnew, improved).  A point that none of the three trials
    improves has stalled: improved is False there, and its column of xnew
    holds the undamped step x + dx, which the caller drops.  Each trial
    after the first runs on the points still failing, in one
    _system_residual call.
    """
    xnew = x + dx
    improved = _system_residual(xnew, t, n) < rnorm
    for k in range(1, 3):
        todo = np.flatnonzero(~improved)
        if not todo.size:
            break
        trial = x[:, todo] + 0.5**k * dx[:, todo]
        better = _system_residual(trial, t, n) < rnorm[todo]
        done = todo[better]
        xnew[:, done] = trial[:, better]
        improved[done] = True
    return xnew, improved


def _sort_reps(reps: np.ndarray, radius: float):
    """The index that _cluster_index searches reps (C, 3) by, as (scale,
    order, key): each representative's match radius, in reps' order; the
    order of reps by Re x_1; and Re x_1 in that order."""
    order = np.argsort(reps[:, 0].real)
    return radius * (1 + _max_abs(reps.T)), order, reps[order, 0].real


def _insert_reps(index, new: np.ndarray, radius: float):
    """The _sort_reps index of reps with new (K, 3) appended, from the
    index of reps: each new key is merged in by binary search."""
    scale, order, key = index
    s, o, k = _sort_reps(new, radius)
    at = np.searchsorted(key, k)
    return np.concatenate([scale, s]), np.insert(order, at, o + len(scale)), np.insert(key, at, k)


def _cluster_index(reps: np.ndarray, x: np.ndarray, radius: float, index=None) -> np.ndarray:
    """For each point of x (K, 3), the index of the first representative of
    reps (C, 3) within radius * (1 + max |rep_i|) of it in every
    coordinate, or -1 if there is none.

    A point is compared only with the representatives whose Re x_1 lies
    within twice the largest scale of its own, found by binary search; the
    margin covers the rounding of the window's edges, so the result equals
    the scan over all pairs.  reps must be finite.  index, if given, is
    _sort_reps(reps, radius), kept by a caller whose reps only grow; the
    order of equal keys in it does not change the result.  The pairs'
    distances, like _sort_reps' scales, are taken by _max_abs on coordinate
    columns: numpy's reduction over a row of three costs several times as
    much, for the same values.
    """
    scale, order, key = _sort_reps(reps, radius) if index is None else index
    width = 2 * scale.max(initial=0)
    lo = np.searchsorted(key, x[:, 0].real - width)
    count = np.searchsorted(key, x[:, 0].real + width, side="right") - lo
    point = np.repeat(np.arange(len(x)), count)
    rep = order[np.arange(len(point)) + np.repeat(lo - np.cumsum(count) + count, count)]
    hit = _gap([v[point] for v in x.T], [v[rep] for v in reps.T]) <= scale[rep]
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
# The first batch of a search holds this many seed tuples per c-orbit of N
# roots to find, as a converged tuple brings a whole orbit, and never fewer
# than _FIRST_BATCH_MIN (see _find_roots).  On the README's 41 kappa the N = 3
# and 4 searches take about half the tuple-steps they take at 16 per orbit,
# in as many batches
_TUPLES_PER_ORBIT = 8
_FIRST_BATCH_MIN = 176


def solve_periodic(theta, N: int, cfg: SolverConfig = SolverConfig()) -> CountReport:
    """Find the N-periodic points of c on S(theta) by multistart Newton.

    Damped Gauss-Newton runs on the letter system of period N (see
    _newton_batch), in ambient C^{3N}, from tuples of N independent seeds
    drawn from one stream, seeded by cfg.rng_seed.  A tuple counts as
    converged when x_0 passes _converged: |c^N(x_0) - x_0| below
    cfg.newton_tol, and |f(x_0)| within surface_residual_bound(x_0,
    cfg.surface_tol).  Every point of a converged tuple, and for real theta
    of its conjugate, is a candidate root, admitted if it matches no root
    and passes _converged on numpy columns and then on Python scalars (see
    _find_roots).  The Newton steps run surface's sigma_apply, _sigma_row,
    cubic_eval and cubic_gradient on coordinate columns, and the test and
    the report coxeter_apply and coxeter_jacobian.

    The divisors n of N are searched in ascending order, N last, each in
    the same way (see _find_roots for the batches), with the same cfg and
    its own stream of the same seed, and the divisor roots head the report.

    A search stops as soon as its roots reach per_count_closed of its
    period, partway through a batch if need be; roots past it raise
    ValueError, as S(theta) is then singular or copies of one root failed
    to merge.  Short of that, it stops after a batch once cfg.seeds tuples
    are drawn and the last saturation_batches batches added no root; a
    batch left early counts as all its tuples drawn.  Every batch that is
    not quiet adds a root, so a search ends within saturation_batches *
    (closed form + 1) batches past cfg.seeds tuples.  A search whose roots
    already number the closed form draws no batch, as at N = 1, whose
    closed form is 0.

    Once the search ends, one pass of c over the roots gives, for each
    root x, the images c^k(x) (k = 1..N): its orbit is labelled by the
    least index of a root that an image matches within cfg.dedup_radius,
    itself included; its minimal period is the least divisor k of N with
    c^k(x) within cfg.dedup_radius of x; and its residual is
    |c^N(x) - x|.  An orbit that misses points is still one record.

    status is "saturated" when the root count falls short of the closed
    form, else "partial" when some root's multiplicity estimate is below
    1e-6 and "complete" when none is.  Genericity of theta is the caller's
    burden (solve_for_kappa checks the walls).  Deterministic for a fixed
    cfg.rng_seed on one host: numpy's vectorised complex loops may round
    differently on another CPU, which can change a count short of the
    closed form.
    """
    theta = tuple(complex(v) for v in _coerce_theta(theta))
    closed = per_count_closed(N, "affine")
    found = {}  # each divisor of N searched so far, in ascending order, to its roots
    for n in [d for d in range(1, N + 1) if N % d == 0]:
        found[n] = _find_roots(theta, n, cfg, [found[d] for d in found if n % d == 0])
    roots = found[N]
    cols = roots.T
    index = _sort_reps(roots, cfg.dedup_radius)
    scale = index[0]
    orbit_of, periods, y = np.arange(len(roots)), np.full(len(roots), N), cols
    for k in range(1, N):
        y = coxeter_apply(y, theta)
        match = _cluster_index(roots, np.array(y).T, cfg.dedup_radius, index)
        orbit_of = np.where(match >= 0, np.minimum(orbit_of, match), orbit_of)
        if N % k == 0:
            periods[(periods == N) & (_gap(y, cols) <= scale)] = k
    residuals = _gap(coxeter_apply(y, theta), cols)
    mults = _transverse_multiplicity(np.array(coxeter_jacobian(cols, theta, N, escape_radius=np.inf)))
    status = "saturated" if len(roots) != closed else "partial" if (mults < 1e-6).any() else "complete"
    return CountReport(N, closed, roots, residuals.tolist(),
                       multiplicities=mults.tolist(), minimal_periods=periods.tolist(), status=status,
                       orbits=[np.flatnonzero(orbit_of == o).tolist() for o in dict.fromkeys(orbit_of)])


def _find_roots(theta: tuple, N: int, cfg: SolverConfig, divisor_roots: list) -> np.ndarray:
    """The roots (K, 3) of c^N on S(theta) that solve_periodic reports, in
    the order found.  theta is four Python complex scalars.

    divisor_roots holds the roots of the proper divisors of N, one (K, 3)
    array each; their N-tuples (x, c(x), ..., c^{N-1}(x)), if any, are
    absorbed as the first yield, and those of the points that lag there
    join the first seed batch.  Each seed batch is absorbed one yield at
    a time, the N-tuples of lagging points from any yield join it, and it
    is left as soon as the roots reach per_count_closed(N); the search ends
    there, or on quiet batches, and raises ValueError past it.  The seed
    batches start at _TUPLES_PER_ORBIT tuples per c-orbit of N roots to
    find, and never fewer than _FIRST_BATCH_MIN, and double up to
    min(_SEED_CHUNK, cfg.seeds); REFERENCE_SOLVES in tests/test_counting.py
    pins the batches of the reference solves.  A Newton step at N = 4 costs
    about 1.8 ms at 100 tuples, 3.3 ms at 650 and 4.4 ms at 1300, so a
    narrower first batch pays from N = 3 on; at N = 2 it costs 0.7-1.0 ms
    anywhere from 11 to 176 tuples, and 88 would only add batches.  The
    roots' index for _cluster_index is kept across yields, each yield's new
    roots merged in.
    """
    radius = cfg.dedup_radius
    roots = np.empty((0, 3), dtype=complex)
    index = _sort_reps(roots, radius)

    joining = []

    def absorb(tuples: np.ndarray):
        # every point of every tuple, then of every conjugate tuple, is a
        # candidate; of those that match no root and converge on columns,
        # the first copy of each point is tested again on Python scalars,
        # and one that fails there is left to a later yield
        nonlocal roots, index
        if not any(v.imag for v in theta):
            tuples = np.concatenate([tuples, tuples.conj()])
        pts = tuples.reshape(-1, 3)
        pts = pts[_cluster_index(roots, pts, radius, index) < 0]
        conv = _converged(pts.T, theta, N, cfg)
        pts, lagging = pts[conv], pts[~conv]
        pts = pts[_cluster_index(pts, pts, radius) == np.arange(len(pts))]
        pts = pts[np.array([_converged(x, theta, N, cfg) for x in pts.tolist()], dtype=bool)]
        roots = np.concatenate([roots, pts])
        index = _insert_reps(index, pts, radius)
        # a candidate that fails on columns lags behind its converged tuple
        # or divisor root: unless it is a copy of a new root or of an
        # earlier such point, its N-tuple joins the running or next batch
        near = np.concatenate([pts, lagging])
        first = _cluster_index(near, near, radius)[len(pts):] == np.arange(len(pts), len(near))
        if first.any():
            joining.append(_orbit_tuples(lagging[first], theta, N))

    closed = per_count_closed(N)

    # the divisor roots come first, as one yield of N-tuples
    start = np.concatenate([roots, *divisor_roots])
    if len(start):
        absorb(_orbit_tuples(start, theta, N).T)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed).spawn(1)[0])
    full = min(_SEED_CHUNK, cfg.seeds)
    size = min(full, max(_FIRST_BATCH_MIN, -(-_TUPLES_PER_ORBIT * closed // N)))
    drawn = quiet = 0
    while len(roots) < closed and (drawn < cfg.seeds or quiet < cfg.saturation_batches):
        before = len(roots)
        for tuples in _newton_batch(_make_tuples(size, N, theta, rng), theta, N, cfg, joining):
            absorb(tuples)
            if len(roots) >= closed:
                break
        drawn += size
        quiet = 0 if len(roots) > before else quiet + 1
        size = min(2 * size, full)
    if len(roots) > closed:
        raise ValueError(f"{len(roots)} roots of period {N} exceed the closed form {closed}: "
                         "S(theta) is singular, or roots failed to merge")
    return roots


def solve_for_kappa(kappa: KappaPoint, N: int, cfg: SolverConfig = SolverConfig()) -> CountReport:
    """Solve on S(rh(kappa)) (see solve_periodic) if kappa is off every
    wall; the surface is singular exactly there, so that test alone decides."""
    if wall_membership(kappa).on_wall:
        raise ValueError("nongeneric parameters: kappa lies on a wall")
    return solve_periodic(rh_params(kappa), N, cfg)
