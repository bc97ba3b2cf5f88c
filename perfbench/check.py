"""Output checks for every benchmark operation.

Each ``check_*`` function takes what the program returned and the inputs it
was given, and returns a dict with ``errors`` (empty when the output is
correct) plus the counts the benchmark reports.  References come from
independent recomputation through the public API: the solver's roots are
re-evaluated with ``surface.coxeter_apply`` and ``surface.cubic_eval``, and
the expected count per minimal period is the Moebius inversion of
``counting.per_count_closed``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

import numpy as np

from cubicdyn import counting, lines, params, surface

# det(xI - c*) = x (x+1)^4 (x^2 - 4x - 1), lowest degree first
_CHARPOLY_FACTORS = ([0, 1], [1, 1], [1, 1], [1, 1], [1, 1], [-1, -4, 1])
# (1-z)^4 (1-18z+z^2): the zeta function is 1 over this polynomial
_ZETA_DENOMINATOR_FACTORS = ([1, -1], [1, -1], [1, -1], [1, -1], [1, -18, 1])

# the multiplicity indicator below which a root counts as flagged
MULTIPLE_BELOW = 1e-6


def poly_mul(*factors) -> list:
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def expected_by_period(N: int) -> dict:
    """Affine points of minimal period d, for each d | N, by Moebius inversion."""
    return {
        d: sum(mobius(d // e) * counting.per_count_closed(e) for e in divisors(d))
        for d in divisors(N)
    }


def _kappa(kappa_text: str) -> params.KappaPoint:
    return params.KappaPoint.from_tail(*[Fraction(v) for v in kappa_text.split(",")])


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _close(x, y, radius) -> bool:
    """The solver's own dedup relation: y lies within radius of x."""
    return max(abs(a - b) for a, b in zip(x, y)) <= radius * (1 + max(abs(v) for v in x))


def check_solve(text: str, kappa_text: str, N: int) -> dict:
    """Check one ``cubicdyn solve --output json`` result.

    Every reported root must satisfy |c^N(x) - x| <= newton_tol and
    |f(x)| <= surface_residual_bound(x) at the solver's default settings;
    the roots must be pairwise distinct at dedup_radius; the reported count
    must not exceed the closed form, and the count of each minimal period
    must not exceed its Moebius expectation, with equality when the status
    is complete.
    """
    cfg = counting.SolverConfig()
    errors = []
    report = json.loads(text)
    theta = params.rh_params(_kappa(kappa_text)).as_tuple()
    closed = counting.per_count_closed(N)
    if report["N"] != N:
        errors.append(f"report is for N={report['N']}, not {N}")
    if report["closed_form"] != closed:
        errors.append(f"closed form {report['closed_form']} != {closed}")
    roots = [tuple(complex(re, im) for re, im in p["x"]) for p in report["points"]]
    if report["found"] != len(roots):
        errors.append(f"found {report['found']} but {len(roots)} points listed")
    if len(roots) > closed:
        errors.append(f"{len(roots)} roots exceed the closed form {closed}")

    good = []
    max_map = 0.0
    by_period = {d: 0 for d in divisors(N)}
    for idx, x in enumerate(roots):
        images = [x]
        for _ in range(N):
            images.append(surface.coxeter_apply(images[-1], theta))
        map_res = max(abs(a - b) for a, b in zip(images[N], x))
        max_map = max(max_map, map_res)
        surf_res = abs(surface.cubic_eval(x, theta))
        bound = surface.surface_residual_bound(x, cfg.surface_tol)
        if not map_res <= cfg.newton_tol:
            errors.append(f"root {idx}: map residual {map_res:.3g} > {cfg.newton_tol:g}")
            continue
        if not surf_res <= bound:
            errors.append(f"root {idx}: surface residual {surf_res:.3g} > {bound:.3g}")
            continue
        good.append(x)
        period = next(d for d in divisors(N) if _close(x, images[d], cfg.dedup_radius))
        by_period[period] += 1

    if roots:
        pts = np.array(roots)
        gap = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
        scale = cfg.dedup_radius * (1 + np.abs(pts).max(axis=1))
        dup = (gap <= scale[None, :]) | (gap <= scale[:, None])
        np.fill_diagonal(dup, False)
        for i, j in zip(*np.nonzero(np.triu(dup))):
            errors.append(f"roots {i} and {j} coincide at dedup_radius")

    expected = expected_by_period(N)
    for d, want in expected.items():
        if by_period[d] > want:
            errors.append(f"{by_period[d]} roots of minimal period {d} exceed {want}")
        elif report["status"] == "complete" and by_period[d] != want:
            errors.append(f"complete, but {by_period[d]} of {want} roots of period {d}")
    if report["status"] == "complete" and len(good) != closed:
        errors.append(f"complete, but {len(good)} checked roots of {closed}")

    return {
        "errors": errors,
        "status": report["status"],
        "found": report["found"],
        "checked_found": len(good),
        "closed": closed,
        "orbits": len(report["orbits"]),
        "multiple_flagged": sum(
            1 for c in report["clusters"] if c["multiplicity_det"] < MULTIPLE_BELOW
        ),
        "by_period": by_period,
        "short": {d: expected[d] - by_period[d] for d in expected},
        "max_map_residual": max_map,
    }


@lru_cache(maxsize=None)
def _verify_rows(nmax: int) -> list:
    return [
        {
            "N": n,
            "lefschetz": counting.per_count_closed(n, "projective") + 1,
            "per_affine": counting.per_count_closed(n),
            "per_kappa": counting.per_count_closed(2 * n),
        }
        for n in range(1, nmax + 1)
    ]


def check_verify(text: str, nmax: int) -> dict:
    """``verify --nmax`` rows must match per_count_closed for N = 1..nmax."""
    report = json.loads(text)
    errors = []
    if report.get("ok") is not True:
        errors.append("verify did not report ok")
    want = _verify_rows(nmax)
    rows = report.get("rows", [])
    if len(rows) != len(want):
        errors.append(f"{len(rows)} rows, expected {len(want)}")
    for got, exp in zip(rows, want):
        if got != exp:
            errors.append(f"row N={exp['N']} differs: {got} != {exp}")
            break
    return {"errors": errors}


def check_zeta(text: str, order: int) -> dict:
    """Coefficients times (1-z)^4 (1-18z+z^2) must be 1 through the order."""
    report = json.loads(text)
    coeffs = report.get("coefficients", [])
    errors = []
    if len(coeffs) != order + 1:
        errors.append(f"{len(coeffs)} coefficients, expected {order + 1}")
    den = poly_mul(*_ZETA_DENOMINATOR_FACTORS)
    for n in range(len(coeffs)):
        val = sum(p * coeffs[n - k] for k, p in enumerate(den) if k <= n)
        if val != (1 if n == 0 else 0):
            errors.append(f"zeta product has coefficient {val} at z^{n}")
            break
    return {"errors": errors}


def check_lattice(text: str) -> dict:
    """The charpoly of c* must be x (x+1)^4 (x^2 - 4x - 1)."""
    report = json.loads(text)
    errors = []
    want = poly_mul(*_CHARPOLY_FACTORS)
    if report.get("charpoly_coeffs_low_to_high") != want:
        errors.append(f"charpoly {report.get('charpoly_coeffs_low_to_high')} != {want}")
    if abs(report.get("spectral_radius", 0.0) - (2 + 5 ** 0.5)) > 1e-9:
        errors.append(f"spectral radius {report.get('spectral_radius')} != 2 + sqrt 5")
    for key in ("sigma_star", "coxeter_star", "eigenvector_checks"):
        if key not in report:
            errors.append(f"lattice output lacks {key}")
    return {"errors": errors}


def check_lines(text: str, kappa_text: str, tol: float = 1e-8) -> dict:
    """All 27 lines on the surface; each sigma_i gives 4 swaps, 2 quadratic
    roots and 1 crossing (the last two through ``verify_sigma_line_action``,
    since the CLI prints only the swaps)."""
    report = json.loads(text)
    errors = []
    if report.get("count") != 27 or len(report.get("lines", [])) != 27:
        errors.append(f"{report.get('count')} lines, expected 27")
    for ln in report.get("lines", []):
        if not (ln["on_surface"] and ln["residual"] <= tol):
            errors.append(f"line {ln.get('label')} off the surface: {ln['residual']}")
    sig = report.get("sigma_checks", [])
    if [c["sigma"] for c in sig] != [1, 2, 3]:
        errors.append("sigma checks missing")
    for c in sig:
        if len(c["swaps"]) != 4:
            errors.append(f"sigma_{c['sigma']}: {len(c['swaps'])} swaps, expected 4")
    b = params.kappa_to_eigen(_kappa(kappa_text))
    for i in (1, 2, 3):
        rep = lines.verify_sigma_line_action(b, i, tol)
        if len(rep["quadratic_roots"]) != 2 or rep["cross_point"] is None:
            errors.append(f"sigma_{i}: quadratic roots or crossing missing")
    return {"errors": errors}


def check_identities(results: list) -> dict:
    """Exact identities on Fraction inputs, one result dict per point:
    sigma_i^2 = id, f invariant under sigma_i, g1 g2 g1 = g2 g1 g2, the
    keystone word g1^2 g2^-2 g1^-2 g2^2 = c^2 with theta restored, and
    det Dc^N = (-1)^N (each sigma_i has Jacobian determinant -1)."""
    errors = []
    for idx, r in enumerate(results):
        x, t = r["x"], r["theta"]
        for i, (back, f_image) in enumerate(zip(r["sigma_twice"], r["f_after_sigma"]), 1):
            if back != x:
                errors.append(f"point {idx}: sigma_{i}^2 != id")
            if f_image != r["f"]:
                errors.append(f"point {idx}: f not invariant under sigma_{i}")
        if r["braid_left"] != r["braid_right"]:
            errors.append(f"point {idx}: g1 g2 g1 != g2 g1 g2")
        if r["keystone"] != (r["c2"], t):
            errors.append(f"point {idx}: keystone word != c^2")
        det = _det3(r["jacobian"])
        if det != (-1) ** r["N"]:
            errors.append(f"point {idx}: det Dc^{r['N']} = {det}, not (-1)^{r['N']}")
    return {"errors": errors, "points": len(results)}
