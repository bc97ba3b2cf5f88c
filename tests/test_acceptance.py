"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with -s to see the lines as they print; they also appear in captured
output on failure.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cubicdyn.counting import (
    SolverConfig,
    lefschetz_number,
    per_count_closed,
    per_kappa_closed,
    random_offwall_kappa,
    solve_for_kappa,
    zeta_coefficients,
)
from cubicdyn.lattice import (
    charpoly,
    coxeter_star,
    eigenvector_checks,
    sigma_star,
    spectral_radius,
)
from cubicdyn.lines import (
    all_lines,
    line_on_surface,
    verify_sigma_line_action,
)
from cubicdyn.params import kappa_to_eigen, rh_params
from cubicdyn.surface import coxeter_apply, cubic_eval, parse_word, sigma_apply, word_apply
from line_incidence import incidence
from printed_lattice import COXETER_CHARPOLY, COXETER_STAR_PRINTED, SIGMA_STAR_PRINTED


def _criterion(number, label):
    """Print the one-line verdict, re-raising on failure."""

    class _Guard:
        def __enter__(self):
            self.start = time.time()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.time() - self.start
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number} ({label}): {verdict} [{elapsed:.2f}s]")
            return False

    return _Guard()


def test_criterion_1_exact_lattice_suite():
    with _criterion(1, "exact lattice suite") as guard:
        for i in (1, 2, 3):
            assert sigma_star(i).entries == SIGMA_STAR_PRINTED[i]
        assert coxeter_star().entries == COXETER_STAR_PRINTED
        assert tuple(charpoly(coxeter_star())) == COXETER_CHARPOLY
        assert abs(spectral_radius(coxeter_star()) - (2 + np.sqrt(5))) < 1e-12
        eigenvector_checks()  # raises on any failed identity
        assert time.time() - guard.start < 1.0


def test_criterion_2_exact_counting_suite():
    with _criterion(2, "exact counting suite") as guard:
        s = [2, 4]
        for _ in range(70):
            s.append(4 * s[-1] + s[-2])
        c = [2, 18]
        for _ in range(35):
            c.append(18 * c[-1] - c[-2])
        for n in range(1, 31):
            exact, closed = lefschetz_number(n)
            assert exact == s[n] + 4 * (-1) ** n + 2
            assert abs(exact - closed) < 1e-6 * max(1, abs(closed))
            assert per_kappa_closed(n) == per_count_closed(2 * n, "affine")
            assert per_kappa_closed(n) == c[n] + 4
        coeffs = zeta_coefficients(12)
        assert coeffs[:3] == [1, 22, 405]
        # exponential-generating cross-check: n z_n = sum Per_k z_{n-k}
        for n in range(1, 13):
            assert n * Fraction(coeffs[n]) == sum(
                per_kappa_closed(k) * coeffs[n - k] for k in range(1, n + 1)
            )
        assert time.time() - guard.start < 1.0


def test_criterion_3_dynamics_identity_suite():
    with _criterion(3, "dynamics identity suite") as guard:
        rng = np.random.default_rng(2024)
        braid_l = parse_word("g1 g2 g1")
        braid_r = parse_word("g2 g1 g2")
        conj = parse_word("g1 g2 g1^-1")
        third = parse_word("g3")
        keystone = parse_word("g1^2 g2^-2 g1^-2 g2^2")
        for _ in range(1000):
            x = tuple(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
            t = tuple(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
            for i in (1, 2, 3):
                y = sigma_apply(i, x, t)
                assert max(abs(a - b) for a, b in zip(sigma_apply(i, y, t), x)) < 1e-9
                assert abs(cubic_eval(y, t) - cubic_eval(x, t)) < 1e-9
            a = word_apply(braid_l, x, t)
            b = word_apply(braid_r, x, t)
            assert max(abs(u - v) for u, v in zip(a.point.as_tuple(), b.point.as_tuple())) < 1e-9
            a = word_apply(third, x, t)
            b = word_apply(conj, x, t)
            assert max(abs(u - v) for u, v in zip(a.point.as_tuple(), b.point.as_tuple())) < 1e-9
            a = word_apply(keystone, x, t)
            y = coxeter_apply(coxeter_apply(x, t), t)
            assert max(abs(u - v) for u, v in zip(a.point.as_tuple(), y)) < 1e-9
            assert a.theta.as_tuple() == t
        for _ in range(50):
            x = tuple(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in range(3))
            t = tuple(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in range(4))
            for i in (1, 2, 3):
                assert sigma_apply(i, sigma_apply(i, x, t), t) == x
                assert cubic_eval(sigma_apply(i, x, t), t) == cubic_eval(x, t)
            a = word_apply(braid_l, x, t, escape_radius=float("inf"))
            b = word_apply(braid_r, x, t, escape_radius=float("inf"))
            assert a.point.as_tuple() == b.point.as_tuple()
            assert a.theta.as_tuple() == b.theta.as_tuple()
            a = word_apply(third, x, t, escape_radius=float("inf"))
            b = word_apply(conj, x, t, escape_radius=float("inf"))
            assert a.point.as_tuple() == b.point.as_tuple()
            a = word_apply(keystone, x, t, escape_radius=float("inf"))
            assert a.point.as_tuple() == coxeter_apply(coxeter_apply(x, t), t)
            assert a.theta.as_tuple() == t
        assert time.time() - guard.start < 10.0


def test_criterion_4_lines_suite():
    with _criterion(4, "lines suite") as guard:
        rng = np.random.default_rng(99)
        for _ in range(20):
            kappa = random_offwall_kappa(rng)
            b = kappa_to_eigen(kappa)
            theta = rh_params(kappa)
            lines = all_lines(b)
            assert len(lines) == 27
            for ln in lines:
                ok, r = line_on_surface(ln, theta)
                assert ok, f"{ln.label}: residual {r}"
            for i in (1, 2, 3):
                grp = lines[8 * i - 5:8 * i + 3]  # group i's slots 1..8
                for a in range(8):
                    for c in range(a + 1, 8):
                        assert incidence(grp[a], grp[c]) == ("point" if a // 2 == c // 2 else "disjoint")
                report = verify_sigma_line_action(b, i)
                assert len(report["swaps"]) == 4
                assert len(report["quadratic_roots"]) == 2
                assert report["cross_point"] is not None
        assert time.time() - guard.start < 30.0


def test_criterion_5_desk_scale_count_reproduction():
    with _criterion(5, "desk-scale count reproduction") as guard:
        rng = np.random.default_rng(7)
        for run in range(3):
            kappa = random_offwall_kappa(rng)
            r1 = solve_for_kappa(kappa, 1, SolverConfig(seeds=4000, rng_seed=run))
            assert r1.found == 0 and r1.status == "complete"
            r2 = solve_for_kappa(kappa, 2, SolverConfig(seeds=20000, rng_seed=run))
            assert r2.found == 22 and r2.status == "complete"
            assert r2.minimal_periods == [2] * 22
            assert sorted(len(o) for o in r2.orbits) == [2] * 11
            r3 = solve_for_kappa(kappa, 3, SolverConfig(seeds=60000, rng_seed=run))
            assert r3.found == 72 and r3.status in ("complete", "saturated")
            assert r3.minimal_periods == [3] * 72
            assert sorted(len(o) for o in r3.orbits) == [3] * 24
        assert time.time() - guard.start < 900.0


def test_criterion_6_large_N_covered_by_exact_recurrences():
    with _criterion(6, "large-N growth via exact recurrences"):
        # the closed-form counts grow like (2+sqrt5)^N, far beyond any
        # numeric reproduction; the big-integer recurrences carry the
        # claim instead, here pushed to N = 200
        s = [2, 4]
        for _ in range(400):
            s.append(4 * s[-1] + s[-2])
        for n in range(1, 201):
            assert per_count_closed(n, "affine") == s[n] + 4 * (-1) ** n
            assert per_kappa_closed(n) == per_count_closed(2 * n, "affine")
        assert per_kappa_closed(200) > 10 ** 250
