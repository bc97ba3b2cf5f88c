"""Tests for the surface maps: involutions, braid maps, words, Jacobians."""

from fractions import Fraction

import numpy as np
import pytest

from cubicdyn.surface import (
    AffinePoint,
    GeneratorLetter,
    coxeter_apply,
    coxeter_jacobian,
    cubic_eval,
    cubic_gradient,
    parse_word,
    sigma_apply,
    surface_residual_bound,
    word_apply,
)


def _random_state(rng, radius=1.0):
    x = tuple(rng.uniform(-radius, radius, 3) + 1j * rng.uniform(-radius, radius, 3))
    t = tuple(rng.uniform(-radius, radius, 4) + 1j * rng.uniform(-radius, radius, 4))
    return x, t


def _rational_state(rng):
    x = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(3))
    t = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(4))
    return x, t


def test_sigma_is_an_involution_float():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, t = _random_state(rng)
        for i in (1, 2, 3):
            y = sigma_apply(i, sigma_apply(i, x, t), t)
            assert max(abs(a - b) for a, b in zip(x, y)) < 1e-12


def test_sigma_is_an_involution_exact():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, t = _rational_state(rng)
        for i in (1, 2, 3):
            assert sigma_apply(i, sigma_apply(i, x, t), t) == x


def test_sigma_preserves_the_cubic_exactly():
    # f is a monic quadratic in x_i whose roots sigma_i swaps, so the
    # value of f is literally invariant, not just its zero set
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, t = _rational_state(rng)
        for i in (1, 2, 3):
            assert cubic_eval(sigma_apply(i, x, t), t) == cubic_eval(x, t)


def test_coxeter_order_is_sigma3_first():
    rng = np.random.default_rng(4)
    x, t = _random_state(rng)
    y = sigma_apply(1, sigma_apply(2, sigma_apply(3, x, t), t), t)
    assert np.allclose(coxeter_apply(x, t), y)


def test_g_inverse_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, t = _random_state(rng)
        for i in (1, 2, 3):
            y = word_apply(parse_word(f"g{i}"), x, t)
            back = word_apply(parse_word(f"g{i}^-1"), y.point.as_tuple(), y.theta)
            z, tz = back.point.as_tuple(), back.theta.as_tuple()
            assert max(abs(a - b) for a, b in zip(x, z)) < 1e-12
            assert max(abs(a - b) for a, b in zip(t, tz)) < 1e-12


def test_g_preserves_the_cubic_up_to_theta_swap():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, t = _rational_state(rng)
        for i in (1, 2, 3):
            y = word_apply(parse_word(f"g{i}"), x, t)
            assert cubic_eval(y.point.as_tuple(), y.theta) == cubic_eval(x, t)


def test_braid_relation():
    rng = np.random.default_rng(7)
    lhs = parse_word("g1 g2 g1")
    rhs = parse_word("g2 g1 g2")
    for _ in range(50):
        x, t = _random_state(rng)
        a = word_apply(lhs, x, t)
        b = word_apply(rhs, x, t)
        assert np.allclose(a.point.as_tuple(), b.point.as_tuple(), atol=1e-10)
        assert np.allclose(a.theta.as_tuple(), b.theta.as_tuple(), atol=1e-12)


def test_third_braid_generator_is_a_conjugate():
    rng = np.random.default_rng(8)
    lhs = parse_word("g3")
    rhs = parse_word("g1 g2 g1^-1")
    for _ in range(50):
        x, t = _random_state(rng)
        a = word_apply(lhs, x, t)
        b = word_apply(rhs, x, t)
        assert np.allclose(a.point.as_tuple(), b.point.as_tuple(), atol=1e-10)
        assert np.allclose(a.theta.as_tuple(), b.theta.as_tuple(), atol=1e-12)


def test_commutator_word_equals_coxeter_squared():
    rng = np.random.default_rng(9)
    word = parse_word("g1^2 g2^-2 g1^-2 g2^2")
    for _ in range(50):
        x, t = _random_state(rng)
        a = word_apply(word, x, t)
        y = coxeter_apply(coxeter_apply(x, t), t)
        assert np.allclose(a.point.as_tuple(), y, atol=1e-8)
        assert np.allclose(a.theta.as_tuple(), t, atol=1e-12)


def test_commutator_word_exact_rational():
    rng = np.random.default_rng(10)
    word = parse_word("g1^2 g2^-2 g1^-2 g2^2")
    for _ in range(10):
        x, t = _rational_state(rng)
        a = word_apply(word, x, t, escape_radius=float("inf"))
        y = coxeter_apply(coxeter_apply(x, t), t)
        assert a.point.as_tuple() == y
        assert a.theta.as_tuple() == t


def test_parse_word_roundtrip_and_errors():
    w = parse_word("s1 g2^-2 g3")
    assert str(w) == "s1 g2^-1 g2^-1 g3"
    assert parse_word("s1^-2") == parse_word("s1 s1")
    with pytest.raises(ValueError):
        parse_word("h1")
    with pytest.raises(ValueError):
        parse_word("s4")
    with pytest.raises(ValueError):
        GeneratorLetter("sigma", 1, -1)
    for args, message in ((("h", 1), "unknown generator kind 'h'"), (("g", 4), "generator index must be 1, 2 or 3"),
                          (("g", 1, 2), "generator power must be +1 or -1")):
        with pytest.raises(ValueError) as failed:
            GeneratorLetter(*args)
        assert str(failed.value) == message


def test_word_apply_escape_status():
    t = (0.3, -0.2, 0.1, 0.7)
    x = (50.0, 60.0, 70.0)
    res = word_apply(parse_word("s1 s2 s3 s1 s2 s3"), x, t, escape_radius=1e4)
    assert res.status == "escaped"


def test_word_apply_passes_exact_coordinates_of_any_size_at_an_infinite_radius():
    # 10^400 overflows a float; coxeter_apply and coxeter_jacobian pass it
    x, t = (Fraction(10) ** 400, Fraction(1), Fraction(2)), (Fraction(1, 3), 2, 3, 4)
    res = word_apply(parse_word("s1 s2 s3"), x, t, escape_radius=float("inf"))
    assert res.status == "ok"
    assert res.point.as_tuple() == coxeter_apply(x, t)


def test_word_apply_reports_an_exact_coordinate_past_a_finite_radius_as_escaped():
    x, t = (Fraction(10) ** 400, Fraction(1), Fraction(2)), (Fraction(1, 3), 2, 3, 4)
    res = word_apply(parse_word("s1 s2 s3"), x, t, escape_radius=1e8)
    assert res.status == "escaped"
    # the modulus is compared exactly: 10^8 + 1/10^20 is past 1e8, 10^8 is not
    for x1, status in ((Fraction(10) ** 8 + Fraction(1, 10**20), "escaped"), (Fraction(10) ** 8, "ok")):
        res = word_apply(parse_word("s1"), (x1, 0, 0), (0, 0, 0, 0), escape_radius=1e8)
        assert res.status == status


def test_coxeter_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    x, t = _random_state(rng, radius=0.5)
    for N in (1, 2):
        jac = np.array(coxeter_jacobian(x, t, N), dtype=complex)
        eps = 1e-7
        for c in range(3):
            dx = np.zeros(3, dtype=complex)
            dx[c] = eps
            xp = tuple(np.array(x) + dx)
            fd = (np.array(coxeter_apply_n(xp, t, N)) - np.array(coxeter_apply_n(x, t, N))) / eps
            assert np.allclose(fd, jac[:, c], atol=1e-5)


def coxeter_apply_n(x, t, n):
    y = x
    for _ in range(n):
        y = coxeter_apply(y, t)
    return y


def test_coxeter_jacobian_exact_rational():
    x = (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))
    t = (Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(3))
    jac = coxeter_jacobian(x, t, 1)
    assert all(isinstance(v, Fraction) for row in jac for v in row)
    # each sigma step has Jacobian determinant -1, so det(Dc) = -1 exactly
    det = (
        jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1])
        - jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0])
        + jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0])
    )
    assert det == -1


def _jacobian_by_matrix_products(x, t, N):
    """The chain rule as full 3x3 products of the sigma_i Jacobians, the
    reference for coxeter_jacobian's row update."""
    jac = [[int(r == c) for c in range(3)] for r in range(3)]
    y = tuple(x)
    for _ in range(N):
        for i in (3, 2, 1):
            j, k = [a for a in (0, 1, 2) if a != i - 1]
            step = [[int(r == c) for c in range(3)] for r in range(3)]
            step[i - 1] = [0, 0, 0]
            step[i - 1][i - 1], step[i - 1][j], step[i - 1][k] = -1, -y[k], -y[j]
            jac = [[sum(step[r][m] * jac[m][c] for m in range(3)) for c in range(3)] for r in range(3)]
            y = sigma_apply(i, y, t)
    return jac


def test_coxeter_jacobian_matches_the_matrix_product_chain_rule():
    rng = np.random.default_rng(12)
    inf = float("inf")
    for N in (1, 2, 3):
        for _ in range(5):
            x, t = _rational_state(rng)
            assert coxeter_jacobian(x, t, N, escape_radius=inf) == _jacobian_by_matrix_products(x, t, N)
            x, t = _random_state(rng)
            got = np.array(coxeter_jacobian(x, t, N, escape_radius=inf), dtype=complex)
            want = np.array(_jacobian_by_matrix_products(x, t, N), dtype=complex)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_coxeter_jacobian_on_columns_rounds_like_one_point_columns():
    rng = np.random.default_rng(13)
    x = rng.uniform(-2, 2, (3, 300)) + 1j * rng.uniform(-2, 2, (3, 300))
    _, t = _random_state(rng, radius=2.0)
    for N in (1, 2, 3):
        jac = coxeter_jacobian(x, t, N, escape_radius=np.inf)
        # no entry is a view of the caller's columns, which a write would change
        assert not any(np.shares_memory(e, x) for row in jac for e in row)
        batch = np.array(jac)
        alone = np.concatenate(
            [np.array(coxeter_jacobian(x[:, p:p + 1], t, N, escape_radius=np.inf)) for p in range(x.shape[1])],
            axis=2,
        )
        assert np.array_equal(batch.view(np.uint64), alone.view(np.uint64))


def test_coxeter_jacobian_escape_radius():
    t = (0.3, -0.2, 0.1, 0.7)
    x = (50.0, 60.0, 70.0)  # |c(x)| ~ 1e9
    with pytest.raises(ValueError, match="escaped"):
        coxeter_jacobian(x, t, 2, escape_radius=1e4)
    with pytest.raises(ValueError, match="escaped"):
        coxeter_jacobian(x, t, 2)
    jac = np.array(coxeter_jacobian(x, t, 2, escape_radius=float("inf")))
    assert np.isfinite(jac).all()


def test_coxeter_apply_power_is_repeated_steps():
    rng = np.random.default_rng(14)
    for _ in range(5):
        x, t = _rational_state(rng)
        y = x
        for N in range(5):
            assert coxeter_apply(x, t, N) == y
            y = coxeter_apply(y, t)
    for fn in (coxeter_apply, coxeter_jacobian):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(x, t, -1)


def test_affine_point_residual_and_bound():
    t = (0.0, 0.0, 0.0, -4.0)
    p = AffinePoint(2.0, 0.0, 0.0)  # 4 - 4 = 0
    assert p.residual(t) <= surface_residual_bound(p.as_tuple())
    assert surface_residual_bound((10, 0, 0), 1e-9) == pytest.approx(1e-9 * 1001)
    assert surface_residual_bound((0, 10**7, 0), 1e-9) == pytest.approx(1e-9 * (1 + 1e21))
    grad = cubic_gradient((2.0, 0.0, 0.0), t)
    assert np.allclose(grad, (4.0, 0.0, 0.0))


def _sigma_by_sigma(x, t, N):
    """c^N and its Jacobian, one sigma_apply at a time with the chain rule
    of coxeter_jacobian's docstring spelled out."""
    fixed = {1: (1, 2), 2: (0, 2), 3: (0, 1)}
    jac = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
    y = tuple(x)
    for _ in range(N):
        for i in (3, 2, 1):
            j, k = fixed[i]
            jac[i - 1] = [-a - y[k] * b - y[j] * c for a, b, c in zip(jac[i - 1], jac[j], jac[k])]
            y = sigma_apply(i, y, t)
    return y, jac


def _same(a, b):
    """Equal bit for bit: as Python scalars of the same type, or as numpy
    arrays of the same values."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b and repr(a) == repr(b)


@pytest.mark.parametrize("kind", ["complex", "fraction", "columns"])
def test_coxeter_maps_equal_the_sigma_by_sigma_composition(kind):
    rng = np.random.default_rng(11)
    for _ in range(20):
        if kind == "fraction":
            x, t = _rational_state(rng)
        else:
            x, t = _random_state(rng, 2.0)
            x = tuple(map(complex, x))
            t = tuple(map(complex, t))
            if kind == "columns":
                x = tuple(v * (1 + rng.uniform(-0.5, 0.5, 5)) for v in x)
        for N in (0, 1, 2, 3, 4):
            y, jac = _sigma_by_sigma(x, t, N)
            got = coxeter_apply(x, t, N)
            assert len(got) == 3 and all(_same(a, b) for a, b in zip(got, y))
            # c's first step starts from D(sigma2 sigma3) in closed form, so a
            # zero may differ in its sign: adding 0 makes every zero +0
            got = coxeter_jacobian(x, t, N, escape_radius=np.inf)
            assert all(_same(a + 0, b + 0) for row, want in zip(got, jac) for a, b in zip(row, want))


def test_sigma_apply_checks_its_index_and_theta():
    with pytest.raises(ValueError, match="sigma index"):
        sigma_apply(4, (1, 2, 3), (1, 2, 3, 4))
    with pytest.raises(ValueError, match="four entries"):
        sigma_apply(1, (1, 2, 3), (1, 2, 3))


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_max_abs_is_nan_for_a_nan_in_any_slot(slot):
    from cubicdyn.surface import _max_abs

    for nan in (float("nan"), complex(float("nan"), 0), complex(1, float("nan"))):
        x = [3 + 4j, -2.0, 1j]
        x[slot] = nan
        assert np.isnan(_max_abs(x))
        assert np.isnan(surface_residual_bound(x))
        # the same point among two others, as coordinate columns
        got = _max_abs([np.array([v, 1 + 0j, 0j]) for v in x])
        assert np.isnan(got[0]) and got[1:].tolist() == [1.0, 0.0]
    # an infinite modulus is no nan
    assert _max_abs([complex("inf"), 1.0, 2j]) == float("inf")


def test_max_abs_on_python_scalars_equals_the_numpy_path_bit_for_bit():
    from cubicdyn.surface import _max_abs

    def numpy_path(x):
        x1, x2, x3 = x
        return np.maximum(np.maximum(abs(x1), abs(x2)), abs(x3))

    rng = np.random.default_rng(12)
    # moduli spread over many scales, with ties between slots and zeros
    shape = (3, 100000)
    cols = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    cols = cols + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    cols[1, :1000] = cols[0, :1000]
    cols[2, 1000:2000] = -cols[1, 1000:2000]
    cols[:, 2000:2100] = 0
    points = cols.T.tolist()
    got = np.array([_max_abs(x) for x in points])
    assert got.tobytes() == np.array([numpy_path(x) for x in points]).tobytes()
    # and through the bound, which cubes the modulus
    got = np.array([surface_residual_bound(x, 1e-9) for x in points])
    want = np.array([1e-9 * (1 + numpy_path(x) ** 3.0) for x in points])
    assert got.tobytes() == want.tobytes()
    # columns take the numpy path itself
    assert _max_abs(cols).tobytes() == numpy_path(cols).tobytes()
    # exact moduli stay exact
    assert _max_abs((Fraction(-7, 3), 2, Fraction(1, 2))) == Fraction(7, 3)
