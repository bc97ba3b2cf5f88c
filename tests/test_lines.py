"""Tests for the 27 lines: membership, incidences, sigma swaps.

How two lines lie (equal, meeting in a point, disjoint) is read by the
tests' own helper, line_incidence.incidence."""

import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cubicdyn.counting import random_offwall_kappa
from cubicdyn.lines import (
    ProjectiveLine,
    all_lines,
    cubic_eval_hom,
    line_from_params,
    line_on_surface,
    lines_on_surface,
    tritangent_line,
    verify_sigma_line_action,
)
from cubicdyn.params import EigenParams, KappaPoint, discriminant, kappa_to_eigen, rh_params
from line_incidence import incidence


def _setup(seed):
    rng = np.random.default_rng(seed)
    kappa = random_offwall_kappa(rng)
    return kappa_to_eigen(kappa), rh_params(kappa)


# the vertices of the tritangent triangle at infinity, p_i = {X0 = X_j = X_k = 0},
# and the points q_i = [0 : ...] with X_i = 0 and the other two coordinates 1
_P = {1: (0, 1, 0, 0), 2: (0, 0, 1, 0), 3: (0, 0, 0, 1)}
_Q = {1: (0, 0, 1, 1), 2: (0, 1, 0, 1), 3: (0, 1, 1, 0)}


def _on_line(line, X):
    return all(abs(np.dot(f, X)) < 1e-14 for f in (line.form1, line.form2))


def test_tritangent_contains_its_vertices():
    l1 = tritangent_line(1)
    for X in (_P[2], _P[3], _Q[1]):
        assert _on_line(l1, X)
    assert not _on_line(l1, _P[1]) and not _on_line(l1, _Q[2])
    with pytest.raises(ValueError):
        tritangent_line(4)


def test_tritangent_pairwise_intersections_are_vertices():
    # L_i and L_j meet in one point, and p_k lies on both
    for i, j, k in ((1, 2, 3), (2, 3, 1), (1, 3, 2)):
        li, lj = tritangent_line(i), tritangent_line(j)
        assert incidence(li, lj) == incidence(lj, li) == "point"
        assert _on_line(li, _P[k]) and _on_line(lj, _P[k])


def test_tritangent_on_every_surface():
    for theta in [(0, 0, 0, 0), (1.2, -0.3 + 1j, 4.5, -2)]:
        for i in (1, 2, 3):
            ok, r = line_on_surface(tritangent_line(i), theta)
            assert ok and r < 1e-14


def test_line_from_params_hand_value():
    b = EigenParams(2, 3, 5, 7)
    ln = line_from_params(1, 1, b)
    # first form X1 - (14 + 1/14) X0, normalized so the largest entry is 1
    f = np.array(ln.form1)
    f = f / f[1]
    assert abs(f[0] + (14 + 1 / 14)) < 1e-12
    assert abs(f[2]) < 1e-14 and abs(f[3]) < 1e-14


def test_slot_pairs_differ_by_inverting_lead_arguments():
    b = EigenParams(2, 3, 5, 7)
    l1 = line_from_params(1, 1, b)
    l2 = line_from_params(1, 2, b)
    # slot 2 uses (1/b1, 1/b4): same product inverted in the first form
    f1 = np.array(l1.form1) / np.array(l1.form1)[1]
    f2 = np.array(l2.form1) / np.array(l2.form1)[1]
    assert abs(f1[0] - f2[0]) < 1e-12  # p + 1/p is inversion-invariant
    assert incidence(l1, l2) == "point"


def test_all_27_lines_on_surface():
    for seed in (0, 1, 2):
        b, theta = _setup(seed)
        lines = all_lines(b)
        assert len(lines) == 27
        for ln in lines:
            ok, r = line_on_surface(ln, theta)
            assert ok, f"{ln.label} off surface, residual {r}"


def _on_surface_point_by_point(line, theta):
    """The on-surface check one sample point at a time on Python complex
    scalars, the reference for lines_on_surface's one array."""
    u, v = line.spanning_points()
    worst = 0.0
    for X in [[p + t * q for p, q in zip(u, v)] for t in (0, 1, -1, 2)] + [list(v)]:
        scale = 1 + max(map(abs, X)) ** 3
        worst = max(worst, abs(cubic_eval_hom(X, theta)) / scale)
    return worst <= 1e-8, worst


@pytest.mark.parametrize("kappa", ["1/3,1/4,1/5,1/7", "47/38,25/14,37/24,8/17", "3/29,18/19,19/21,25/26",
                                   "3/20,29/27,26/27,24/25", "29/30,10/9,21/20,1/39", "45/23,1/9,3/10,15/16"])
def test_the_lines_checked_as_one_array_agree_with_the_point_by_point_check(kappa):
    # the 27 lines, with eight random lines off the surface among them: the
    # same flags, and residuals within the rounding of a few operations on
    # numbers of modulus about one
    k = KappaPoint.from_tail(*(Fraction(v) for v in kappa.split(",")))
    b, theta = kappa_to_eigen(k), rh_params(k)
    rng = np.random.default_rng(9)
    lines = all_lines(b)
    for at in range(0, 32, 4):
        lines.insert(at, ProjectiveLine(*(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))))
    flags, residuals = lines_on_surface(lines, theta)
    want = [_on_surface_point_by_point(ln, theta) for ln in lines]
    assert flags == [ok for ok, _ in want] == [ln.label is not None for ln in lines]
    eps = np.finfo(float).eps
    for got, (_, r) in zip(residuals, want):
        assert type(got) is float and abs(got - r) <= 16 * eps * max(1.0, r)
    assert [line_on_surface(ln, theta) for ln in lines] == list(zip(flags, residuals))


def test_lines_are_pairwise_distinct():
    b, _ = _setup(3)
    lines = all_lines(b)
    for a in range(len(lines)):
        for c in range(a + 1, len(lines)):
            assert incidence(lines[a], lines[c]) != "equal"
            assert incidence(lines[c], lines[a]) != "equal"


def test_a_line_equals_itself_whatever_forms_cut_it_out():
    b, _ = _setup(3)
    for ln in all_lines(b):
        f1, f2 = (np.array(f) for f in (ln.form1, ln.form2))
        for other in (ln, ProjectiveLine(tuple(-2.5j * f1), tuple(7 * f2)),
                      ProjectiveLine(tuple(f1 + 3 * f2), tuple(f1 - 0.5j * f2)), ProjectiveLine(ln.form2, ln.form1)):
            assert incidence(ln, other) == incidence(other, ln) == "equal", ln.label


@pytest.mark.parametrize("kappa", ["1/3,1/4,1/5,1/7", "3/29,18/19,19/21,25/26", "3/20,29/27,26/27,24/25",
                                   "29/30,10/9,21/20,1/39"])
def test_incidence_agrees_with_the_rank_of_the_four_stacked_forms(kappa):
    # two lines are equal, meet in a point or are disjoint as their four
    # forms have rank 2, 3 or 4; on every ordered pair of the 27 lines, here
    # and on the three kappa whose discriminant product is nearly zero
    k = KappaPoint.from_tail(*(Fraction(v) for v in kappa.split(",")))
    lines = all_lines(kappa_to_eigen(k))
    for l1 in lines:
        for l2 in lines:
            s = np.linalg.svd(np.array([l1.form1, l1.form2, l2.form1, l2.form2]), compute_uv=False)
            rank = int(np.sum(s > 1e-9 * s[0]))
            assert incidence(l1, l2) == {2: "equal", 3: "point", 4: "disjoint"}[rank], (l1.label, l2.label)


def test_intra_group_intersection_pattern():
    b, _ = _setup(4)
    for i in (1, 2, 3):
        grp = [line_from_params(i, slot, b) for slot in range(1, 9)]
        for a in range(8):
            for c in range(a + 1, 8):
                paired = (a // 2 == c // 2)
                assert incidence(grp[a], grp[c]) == ("point" if paired else "disjoint"), (i, a + 1, c + 1)


def test_each_group_meets_only_its_tritangent_line():
    b, _ = _setup(5)
    tri = {i: tritangent_line(i) for i in (1, 2, 3)}
    for i in (1, 2, 3):
        for ln in (line_from_params(i, slot, b) for slot in range(1, 9)):
            for j in (1, 2, 3):
                assert incidence(ln, tri[j]) == incidence(tri[j], ln) == ("point" if j == i else "disjoint")


def test_random_secant_is_not_on_surface():
    b, theta = _setup(6)
    rng = np.random.default_rng(6)
    # a chord through two surface points is generically not contained
    t = np.array([complex(v) for v in theta.as_tuple()])

    def surface_point():
        x23 = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        bq = x23[0] * x23[1] - t[0]
        cq = (x23**2).sum() - t[1] * x23[0] - t[2] * x23[1] + t[3]
        x1 = (-bq + np.sqrt(bq * bq - 4 * cq)) / 2
        return np.array([1, x1, x23[0], x23[1]])

    p, q = surface_point(), surface_point()
    # two forms vanishing on span(p, q)
    basis = np.linalg.svd(np.vstack([p, q]))[2].conj()[2:]
    ln = ProjectiveLine(tuple(basis[0]), tuple(basis[1]))
    assert abs(cubic_eval_hom(tuple(p), theta)) < 1e-9
    ok, r = line_on_surface(ln, theta)
    assert not ok and r > 1e-6


def test_cubic_eval_hom_takes_theta_as_the_affine_cubic_does():
    _, theta = _setup(8)
    X = (1, 0.3, -0.2 + 0.1j, 0.5)
    assert cubic_eval_hom(X, theta) == cubic_eval_hom(X, list(theta.as_tuple()))
    with pytest.raises(ValueError, match="theta must have four entries"):
        cubic_eval_hom(X, theta.as_tuple()[:3])


def test_sigma_line_action_all_indices():
    b, _ = _setup(7)
    for i in (1, 2, 3):
        report = verify_sigma_line_action(b, i)
        j = i % 3 + 1
        k = j % 3 + 1
        assert sorted({g for (g, _, _) in report["swaps"]}) == sorted((j, k))
        assert len(report["quadratic_roots"]) == 2
        assert report["cross_point"] is not None


def test_sigma_line_action_on_the_built_lines_equals_the_one_that_builds_its_own():
    b, _ = _setup(7)
    built = all_lines(b)
    for i in (1, 2, 3):
        assert verify_sigma_line_action(b, i, lines=built) == verify_sigma_line_action(b, i)


def test_lines_verify_builds_each_line_once(monkeypatch):
    import io

    from cubicdyn import lines
    from cubicdyn.cli import dispatch

    # all_lines builds the 24 affine lines, and the three sigma checks read
    # them in place of building ten each again
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return line_from_params(*args)

    monkeypatch.setattr(lines, "line_from_params", counted)
    out = io.StringIO()
    assert dispatch(["lines", "--kappa", "1/3,1/4,1/5,1/7", "--verify", "--output", "json"], stream=out) == 0
    assert sorted(calls) == [(i, slot) for i in (1, 2, 3) for slot in range(1, 9)]
    assert '"sigma_checks"' in out.getvalue()


def test_sigma_line_action_rejects_singular_surface():
    # b1 = 1 makes (b1 - 1/b1)^2 vanish
    b = EigenParams(1, 0.3 + 0.4j, 0.5, 2)
    with pytest.raises(ValueError):
        verify_sigma_line_action(b, 1)


@pytest.mark.parametrize("swap, wrong_on, message", [
    ((2, 2, 5), None, "sigma_1 does not map group 2 slot 1 onto slot 2"),
    (None, (2, 2), "sigma_1 does not map group 2 slot 2 back onto slot 1"),
    ((1, 1, 2), None, "quadratic root does not lie on the source line"),
    (None, (1, 1), "quadratic root does not lie on the image line"),
    ((1, 3, 4), None, "crossing point does not lie on the slot-3 line"),
    (None, (1, 3), "crossing point does not map onto the source line"),
])
def test_sigma_line_action_reports_each_failed_check(monkeypatch, swap, wrong_on, message):
    # two lines of a group that trade places fail the first check that reads
    # one of them.  sigma_1 is an involution and two points fix a line, so
    # the back-map and the two image checks fail only where sigma_1 is made
    # wrong: moved off by 1 in x_1 on the points of one line
    from cubicdyn import lines
    from cubicdyn.surface import sigma_apply

    b, _ = _setup(7)
    built = all_lines(b)
    if swap:
        g, s1, s2 = swap
        trade = {(g, s1): (g, s2), (g, s2): (g, s1)}
        built = [dataclasses.replace(ln, params=trade.get(ln.params, ln.params)) for ln in built]
    else:
        on = next(ln for ln in built if ln.params == wrong_on)

        def wrong(i, x, theta):
            y = sigma_apply(i, x, theta)
            return (y[0] + 1, *y[1:]) if on.contains_affine(x) else y

        monkeypatch.setattr(lines, "sigma_apply", wrong)
    with pytest.raises(AssertionError) as failed:
        verify_sigma_line_action(b, 1, lines=built)
    assert str(failed.value) == message


def test_lines_report_general_position_once_and_warn_nothing(capsys):
    import io
    import json

    from cubicdyn.cli import dispatch

    # b1 = 1 makes (b1 - 1/b1)^2 vanish
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line_from_params(1, 1, EigenParams(1, 0.3 + 0.4j, 0.5, 2))
        for kappa, general in (("1,1/4,1/5,1/7", False), ("1/3,1/4,1/5,1/7", True)):
            out = io.StringIO()
            assert dispatch(["lines", "--kappa", kappa, "--output", "json"], stream=out) == 0
            assert capsys.readouterr().err == ""
            assert json.loads(out.getvalue())["general_position"] is general


@pytest.mark.parametrize("s", [85, 193, 1110])
def test_lines_off_every_wall_verify_whatever_the_discriminant_product(s):
    # these kappa lie off every wall in exact arithmetic, and each factor of
    # the discriminant is at least 3e-3, but the product of the twenty is
    # below 1e-12: a product test would call the surface singular
    b = kappa_to_eigen(random_offwall_kappa(np.random.default_rng(s)))
    assert abs(discriminant(b)) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in (1, 2, 3):
            assert len(verify_sigma_line_action(b, i)["swaps"]) == 4


def test_the_closed_form_null_space_spans_each_line():
    # kappa_ref (seed 7), the survey kappa s = 1..40 (seed 100 + s), and the
    # three kappa of the test above whose discriminant product is below 1e-12
    for seed in (7, *range(101, 141), 85, 193, 1110):
        b, theta = _setup(seed)
        for ln in all_lines(b):
            forms = np.array([ln.form1, ln.form2])
            points = np.array(ln.spanning_points())
            top = np.max(np.abs(points), axis=1)
            assert np.all(np.abs(forms @ points.T) <= 1e-14 * top), (seed, ln.label)
            # each point has an entry 1 and none larger, up to rounding
            assert np.all(np.sum(points == 1, axis=1) >= 1) and np.all(top <= 1 + 1e-15)
            # both lie in the null space np.linalg.svd finds, and span it
            null = np.linalg.svd(forms)[2][2:].conj()
            coef = points @ null.conj().T
            assert np.max(np.abs(coef @ null - points)) <= 1e-14, (seed, ln.label)
            assert np.linalg.svd(coef, compute_uv=False)[-1] >= 1 - 1e-12
            ok, r = line_on_surface(ln, theta)
            assert ok and r <= 1e-14, (seed, ln.label, r)


def test_degenerate_line_rejected():
    with pytest.raises(ValueError):
        ProjectiveLine((1, 0, 0, 0), (2, 0, 0, 0))
    with pytest.raises(ValueError, match="zero coordinate vector"):
        ProjectiveLine((0, 0, 0, 0), (1, 0, 0, 0))
    # a tritangent line lies in X0 = 0 and has no affine point
    with pytest.raises(ValueError, match="line lies in the plane at infinity"):
        tritangent_line(1).affine_points()


def test_line_from_params_checks_its_group_and_slot():
    b, _ = _setup(7)
    for i, slot, message in ((0, 1, "group index must be 1, 2 or 3"), (4, 1, "group index must be 1, 2 or 3"),
                             (1, 0, "slot must be 1..8"), (1, 9, "slot must be 1..8")):
        with pytest.raises(ValueError) as failed:
            line_from_params(i, slot, b)
        assert str(failed.value) == message


def test_projective_line_json():
    ln = tritangent_line(2)
    data = ln.to_json()
    assert data["label"] == "F34"
    assert len(data["forms"]) == 2 and len(data["forms"][0]) == 4
