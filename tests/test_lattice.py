"""Tests for the exact lattice action, with sympy as an independent oracle."""

import numpy as np
import pytest
import sympy

from cubicdyn.lattice import (
    CohomClass,
    LatticeEndo,
    LineLabel,
    charpoly,
    class_of,
    coxeter_star,
    eigenvector_checks,
    intersection,
    sigma_star,
    spectral_radius,
    trace_power,
)
from printed_lattice import COXETER_CHARPOLY, COXETER_STAR_PRINTED, SIGMA_STAR_PRINTED


def test_sigma_star_reconstruction_matches_golden_matrices():
    # the blow-down reconstruction equals the printed matrices entrywise
    for i in (1, 2, 3):
        m = sigma_star(i)
        assert len(m.entries) == 7
        assert m.entries == SIGMA_STAR_PRINTED[i]


def test_coxeter_star_is_the_ordered_product():
    assert coxeter_star() == sigma_star(3) @ sigma_star(2) @ sigma_star(1)
    assert coxeter_star().entries == COXETER_STAR_PRINTED


def test_coxeter_charpoly_exact():
    assert tuple(charpoly(coxeter_star())) == COXETER_CHARPOLY
    # factored form x (x+1)^4 (x^2 - 4x - 1)
    x = sympy.symbols("x")
    expanded = sympy.expand(x * (x + 1) ** 4 * (x**2 - 4 * x - 1))
    coeffs = [int(expanded.coeff(x, d)) for d in range(8)]
    assert coeffs == list(COXETER_CHARPOLY)


def test_charpoly_against_sympy_oracle(monkeypatch):
    rng = np.random.default_rng(0)
    random = [LatticeEndo(rng.integers(-9, 10, size=(7, 7)).tolist()) for _ in range(20)]
    for m in [coxeter_star(), sigma_star(1), sigma_star(2), sigma_star(3), *random]:
        ours = charpoly(m)
        theirs = sympy.Matrix(m.to_json()).charpoly().all_coeffs()[::-1]
        assert [int(c) for c in theirs] == list(ours)
    # each division is exact for an integer matrix; a trace made wrong is caught
    monkeypatch.setattr(LatticeEndo, "trace", lambda self: 1)
    with pytest.raises(AssertionError, match="tr\\(M_2\\) is not divisible by 2"):
        charpoly(coxeter_star())


def test_sigma_star_charpoly_and_kernel():
    # each sigma* is singular: it contracts the class of its own
    # tritangent line, so its characteristic polynomial is
    # x (x+1)^4 (x-1)^2 and not a pure involution spectrum
    x = sympy.symbols("x")
    expanded = sympy.expand(x * (x + 1) ** 4 * (x - 1) ** 2)
    expected = [int(expanded.coeff(x, d)) for d in range(8)]
    for i, pair in ((1, (1, 2)), (2, (3, 4)), (3, (5, 6))):
        m = sigma_star(i)
        assert list(charpoly(m)) == expected
        killed = class_of(LineLabel("F", pair))
        assert m.apply(killed).is_zero()
        # the root 1 is a double root of the charpoly, and a simple one of
        # its squarefree part, whose roots spectral_radius takes
        assert abs(spectral_radius(m) - 1) < 1e-12


def test_spectral_radius_golden_ratio_like_value():
    assert abs(spectral_radius(coxeter_star()) - (2 + np.sqrt(5))) < 1e-12


def test_spectral_radius_at_a_sixfold_root():
    # (sigma1 sigma2)^* is unipotent up to its kernel: charpoly x (x - 1)^6,
    # whose float roots scatter about 1 by 3e-3
    m = sigma_star(1) @ sigma_star(2)
    assert charpoly(m) == [0, 1, -6, 15, -20, 15, -6, 1]
    assert abs(spectral_radius(m) - 1) < 1e-12


def test_traces_of_coxeter_powers():
    c = coxeter_star()
    assert trace_power(c, 1) == 0
    assert trace_power(c, 2) == 22
    # s_N + 4(-1)^N with s the 4,1 recurrence, plus the two zero roots
    s = [2, 4]
    for _ in range(20):
        s.append(4 * s[-1] + s[-2])
    for n in range(1, 20):
        assert trace_power(c, n) == s[n] + 4 * (-1) ** n
    # against numpy float powers for small n
    m = np.array(c.to_json(), dtype=float)
    for n in range(1, 8):
        assert trace_power(c, n) == round(np.trace(np.linalg.matrix_power(m, n)))
    with pytest.raises(ValueError):
        trace_power(c, -1)


def test_eigenvector_checks_pass(monkeypatch):
    from cubicdyn import lattice

    report = eigenvector_checks()
    assert len(report["eigenvectors"]) == 4
    assert len(report["orthogonality"]) == 12
    # the identity for c^*: each V is fixed, not negated
    monkeypatch.setattr(lattice, "coxeter_star", lambda: LatticeEndo(np.identity(7, dtype=int).tolist()))
    with pytest.raises(AssertionError, match="c\\^\\* V0 != -V0"):
        eigenvector_checks()
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "intersection", lambda v, l: 1)
    with pytest.raises(AssertionError, match="\\(V0, Li\\) = 1 != 0"):
        eigenvector_checks()


def test_intersection_form_values():
    e0 = CohomClass((1, 0, 0, 0, 0, 0, 0))
    e1 = class_of(LineLabel("E", (1,)))
    f12 = class_of(LineLabel("F", (1, 2)))
    f34 = class_of(LineLabel("F", (3, 4)))
    g1 = class_of(LineLabel("G", (1,)))
    assert intersection(e0, e0) == 1
    assert intersection(e1, e1) == -1
    assert intersection(f12, f12) == -1
    assert intersection(f12, f34) == 1
    assert intersection(e1, g1) == 0
    assert intersection(e1, class_of(LineLabel("G", (2,)))) == 1
    assert intersection(e1, f12) == 1


def test_lattice_inputs_are_checked():
    with pytest.raises(ValueError, match="sigma index must be 1, 2 or 3"):
        sigma_star(4)
    with pytest.raises(ValueError, match="a cohomology class has seven coordinates"):
        CohomClass((1, 0, 0))
    for entries in ([[0] * 7] * 6, [[0] * 7] * 6 + [[0] * 6]):
        with pytest.raises(ValueError, match="a lattice endomorphism is a 7x7 integer matrix"):
            LatticeEndo(entries)


def test_line_labels():
    assert str(LineLabel("F", (4, 2))) == "F24"
    with pytest.raises(ValueError):
        LineLabel("E", (7,))
    with pytest.raises(ValueError):
        LineLabel("F", (2, 2))
    with pytest.raises(ValueError):
        LineLabel("H", (1,))


def test_lattice_endo_algebra():
    ident = LatticeEndo.identity()
    c = coxeter_star()
    assert c @ ident == c
    assert c.power(0) == ident
    assert c.power(3) == c @ c @ c
    assert c.power(5).trace() == trace_power(c, 5)
    v = class_of(LineLabel("E", (1,)))
    assert ident.apply(v) == v


def _naive_product(a, b):
    return [[sum(a[r][k] * b[k][c] for k in range(7)) for c in range(7)] for r in range(7)]


def test_lattice_product_is_the_row_by_column_sum_on_big_integers():
    c = coxeter_star()
    power = LatticeEndo.identity()  # c*^k, k = 0..60
    for _ in range(61):
        for i in (1, 2, 3):
            s = sigma_star(i)
            assert (power @ s).to_json() == _naive_product(power.entries, s.entries)
        power = LatticeEndo(_naive_product(power.entries, c.entries))
    assert c.power(61) == power
    # entries of about +-10^40
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b = ([[int(hi) * 10**36 + int(lo) for hi, lo in rng.integers(-10**4, 10**4, (7, 2))]
                 for _ in range(7)] for _ in range(2))
        product = (LatticeEndo(a) @ LatticeEndo(b)).to_json()
        assert product == _naive_product(a, b)
        assert all(type(v) is int for row in product for v in row)


def test_class_arithmetic():
    a = class_of(LineLabel("E", (1,)))
    b = class_of(LineLabel("E", (2,)))
    s = a + b
    assert s.coeffs == (0, 1, 1, 0, 0, 0, 0)
    assert not a.is_zero()
