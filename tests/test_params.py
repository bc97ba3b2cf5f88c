"""Tests for the parameter spaces, discriminant and wall membership."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from cubicdyn.params import (
    EigenParams,
    KappaPoint,
    MonodromyTraces,
    ThetaPoint,
    discriminant,
    kappa_to_eigen,
    kappa_to_traces,
    rh_params,
    traces_from_eigen,
    traces_to_theta,
    wall_membership,
)


def test_kappa_constraint_enforced():
    KappaPoint(Fraction(1, 2), 0, 0, 0, 0)
    with pytest.raises(ValueError):
        KappaPoint(1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="constraint"):
        KappaPoint(0.5 + 1e-9, 0.25, -0.1, 0.2, -0.35)


@pytest.mark.parametrize("big", [1e4, 12345.678, 1e6])
def test_the_constraint_tolerance_scales_with_kappa(big):
    # the rounding of the float sum 2*k0 + k1 + ... grows with its terms
    for slot in range(4):
        tail = [0.25, 0.2, 0.1, 0.3]
        tail[slot] = big
        assert KappaPoint.from_tail(*tail).tail() == tuple(tail)
    for exact in (Fraction(big), Fraction(10**400, 3)):
        k = KappaPoint.from_tail(exact, Fraction(1, 4), Fraction(1, 5), Fraction(1, 10))
        assert k.is_rational() and 2 * k.kappa0 + sum(k.tail()) == 1


def test_from_tail_reconstructs_kappa0_exactly():
    k = KappaPoint.from_tail(Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 7))
    assert k.kappa0 == Fraction(31, 840)
    assert k.is_rational()
    k2 = KappaPoint.from_tail(0.1, 0.2, 0.3, 0.1)
    assert abs(complex(k2.kappa0) - 0.15) < 1e-12


def test_zero_tail_maps_to_theta():
    k = KappaPoint.from_tail(0, 0, 0, 0)
    a = kappa_to_traces(k)
    assert np.allclose(a.as_tuple(), (2, 2, 2, -2))
    th = traces_to_theta(a)
    assert np.allclose(th.as_tuple(), (0, 0, 0, -4))


def test_half_tail_traces_vanish():
    k = KappaPoint.from_tail(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    a = kappa_to_traces(k)
    assert np.allclose(a.as_tuple(), (0, 0, 0, 0), atol=1e-15)
    assert np.allclose(traces_to_theta(a).as_tuple(), (0, 0, 0, -4), atol=1e-15)


def test_eigen_and_trace_routes_agree():
    rng = np.random.default_rng(0)
    for _ in range(25):
        tail = rng.uniform(0.05, 0.95, 4)
        k = KappaPoint.from_tail(*tail)
        a1 = kappa_to_traces(k)
        a2 = traces_from_eigen(kappa_to_eigen(k))
        assert np.allclose(a1.as_tuple(), a2.as_tuple(), atol=1e-12)
        # rh is the composition
        th = rh_params(k)
        assert np.allclose(th.as_tuple(), traces_to_theta(a1).as_tuple(), atol=1e-12)


def test_kappa_entries_in_zero_to_two_map_as_pi_times_the_entry():
    # each rational entry is reduced mod 2 before pi multiplies it; one
    # already in [0, 2) is its own remainder, so a, b and theta come out
    # bit for bit as from pi k itself
    def direct(k):
        p = [cmath.pi * v for v in k.tail()]
        a = (2 * cmath.cos(p[0]), 2 * cmath.cos(p[1]), 2 * cmath.cos(p[2]), -2 * cmath.cos(p[3]))
        b = (cmath.exp(1j * p[0]), cmath.exp(1j * p[1]), cmath.exp(1j * p[2]), -cmath.exp(1j * p[3]))
        return a, b, traces_to_theta(MonodromyTraces(*a)).as_tuple()

    tails = [(Fraction(47, 38), Fraction(25, 14), Fraction(37, 24), Fraction(8, 17)),
             (0, 1, Fraction(1, 2), Fraction(39, 20)), (0.25, 1.5, Fraction(1, 3), 1.999)]
    for tail in tails:
        k = KappaPoint.from_tail(*tail)
        got = (kappa_to_traces(k).as_tuple(), kappa_to_eigen(k).as_tuple(), rh_params(k).as_tuple())
        assert repr(got) == repr(direct(k))


@pytest.mark.parametrize("shift", [2, -4, (10**400 - 4) // 3], ids=["2", "-4", "(10^400-4)/3"])
def test_a_rational_kappa_entry_maps_as_its_remainder_mod_two(shift):
    # cos(pi k) and exp(i pi k) have period 2 in k; each shift is even, and
    # the last is far past a float's range
    assert shift % 2 == 0
    base = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 7))
    for slot in range(4):
        tail = list(base)
        tail[slot] += shift
        k, ref = KappaPoint.from_tail(*tail), KappaPoint.from_tail(*base)
        assert kappa_to_traces(k) == kappa_to_traces(ref)
        assert kappa_to_eigen(k) == kappa_to_eigen(ref)
        assert rh_params(k) == rh_params(ref)


def test_theta_formula_by_hand():
    a = MonodromyTraces(1, 2, 3, 5)
    th = traces_to_theta(a)
    assert th.as_tuple() == (1 * 5 + 2 * 3, 2 * 5 + 3 * 1, 3 * 5 + 1 * 2, 30 + 1 + 4 + 9 + 25 - 4)


def test_eigen_rejects_zero():
    with pytest.raises(ValueError):
        EigenParams(0, 1, 1, 1)


@pytest.mark.parametrize(
    "cls, entries",
    [
        (KappaPoint, (Fraction(1, 2), 0, float("nan"), 0, 0)),
        (MonodromyTraces, (1, 2, float("nan"), 4)),
        (EigenParams, (1, 2, 3, complex(0, float("nan")))),
        (ThetaPoint, (float("nan"), 0, 0, 0)),
    ],
)
def test_parameter_points_reject_nan(cls, entries):
    with pytest.raises(ValueError, match="must be finite"):
        cls(*entries)


def test_discriminant_vanishes_on_wall():
    # kappa1 = 1 is a wall: b1 = exp(i pi) = -1 and b1 - 1/b1 = 0
    k = KappaPoint.from_tail(1, Fraction(1, 4), Fraction(1, 5), Fraction(1, 7))
    assert abs(discriminant(kappa_to_eigen(k))) < 1e-12
    # the signed-sum wall k1+k2+k3+k4 = 1 kills a (b^eps - 1) factor
    k = KappaPoint.from_tail(Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(13, 60))
    assert sum(k.tail()) == 1
    assert abs(discriminant(kappa_to_eigen(k))) < 1e-12


def test_discriminant_nonzero_off_wall():
    k = KappaPoint.from_tail(Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 7))
    assert wall_membership(k) == []
    assert abs(discriminant(kappa_to_eigen(k))) > 1e-8


def test_discriminant_factor_count():
    # generic symbolic-free check: 20 factors means degree-20 homogeneity
    # under b -> (b1, b2, b3, b4) with one entry scaled slightly
    b = EigenParams(1.1, 1.3 + 0.2j, 0.7, 2.0)
    d = discriminant(b)
    assert d != 0
    assert isinstance(complex(d), complex)


def test_wall_membership_exact_integer_witness():
    k = KappaPoint.from_tail(2, Fraction(1, 4), Fraction(1, 5), Fraction(1, 7))
    witnesses = wall_membership(k)
    assert witnesses
    kinds = {(w[0], w[1]) for w in witnesses}
    assert ("kappa_i_integer", 1) in kinds


def test_wall_membership_exact_signed_sum_witness():
    # k1 - k2 + k3 - k4 = 1 (odd)
    k = KappaPoint.from_tail(Fraction(3, 4), Fraction(1, 4), Fraction(3, 4), Fraction(1, 4))
    witnesses = wall_membership(k)
    assert witnesses
    patterns = {w[1] for w in witnesses if w[0] == "signed_sum_odd"}
    assert "+-+-" in patterns


def test_wall_membership_tolerant():
    # a kappa that is not rational is on a wall within a fixed 1e-9
    k = KappaPoint.from_tail(1.0 + 5e-10, 0.25, 0.2, 1.0 / 7)
    witnesses = wall_membership(k)
    assert witnesses
    assert witnesses[0][:3] == ("kappa_i_integer", 1, 1)
    assert wall_membership(KappaPoint.from_tail(1.0 + 5e-8, 0.25, 0.2, 1.0 / 7)) == []


def test_eigen_unit_circle_for_real_kappa():
    k = KappaPoint.from_tail(0.31, 0.27, 0.12, 0.55)
    b = kappa_to_eigen(k)
    for v in b.as_tuple():
        assert abs(abs(complex(v)) - 1) < 1e-12
    # b4 carries the extra sign
    assert abs(complex(b.b4) + cmath.exp(1j * cmath.pi * 0.55)) < 1e-12
