"""Tests for the command-line front end (in-process dispatch)."""

import dataclasses
import io
import json

import pytest

from cubicdyn.cli import dispatch, parse_complex, parse_kappa, parse_scalar, parse_theta
from cubicdyn.counting import SolverConfig


def run(argv):
    stream = io.StringIO()
    code = dispatch(argv, stream=stream)
    return code, stream.getvalue()


def test_parse_complex_forms():
    assert parse_complex("1.5+2i") == 1.5 + 2j
    assert parse_complex("-3i") == -3j
    assert parse_complex("2") == 2
    assert parse_complex("[1, -2]") == 1 - 2j
    assert parse_complex([0.5, 0.25]) == 0.5 + 0.25j


def test_parse_scalar_keeps_rationals_exact():
    from fractions import Fraction

    assert parse_scalar("3/10") == Fraction(3, 10)
    assert parse_scalar("2") == 2 and isinstance(parse_scalar("2"), int)


def test_parse_kappa_tail_and_full():
    k = parse_kappa("1/3,1/4,1/5,1/7")
    assert k.is_rational()
    k5 = parse_kappa("31/840,1/3,1/4,1/5,1/7")
    assert k5.as_tuple() == k.as_tuple()


def test_count_kappa_subcommand():
    code, out = run(["count-kappa", "--N", "1"])
    assert code == 0
    assert "22" in out


def test_count_subcommand_json():
    code, out = run(["count", "--N", "3", "--space", "projective", "--output", "json"])
    assert code == 0
    assert json.loads(out)["count"] == 73


def test_zeta_subcommand_csv():
    code, out = run(["--output", "csv", "zeta", "--order", "2"])
    assert code == 0
    assert "1 22 405" in out


def test_lattice_charpoly_string():
    code, out = run(["lattice", "--charpoly"])
    assert code == 0
    assert "x^7" in out and "11x^5" in out and "24x^4" in out


def test_lattice_full_output_json():
    code, out = run(["lattice", "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["charpoly_coeffs_low_to_high"] == [0, -1, -8, -21, -24, -11, 0, 1]
    assert data["charpoly"] == "x^7 - 11x^5 - 24x^4 - 21x^3 - 8x^2 - x"
    assert abs(data["spectral_radius"] - data["spectral_radius_closed"]) < 1e-12
    assert len(data["coxeter_star"]) == 7


@pytest.mark.parametrize(
    "coeffs, text",
    [([1, 0, 1], "x^2 + 1"), ([-1, 1], "x - 1"), ([2, 0, -1, 3], "3x^3 - x^2 + 2"),
     ([-1, 2, -1], "-x^2 + 2x - 1")],
)
def test_lattice_charpoly_string_of_other_polynomials(monkeypatch, coeffs, text):
    from cubicdyn import lattice

    monkeypatch.setattr(lattice, "charpoly", lambda m: coeffs)
    code, out = run(["lattice", "--charpoly", "--output", "json"])
    assert code == 0
    assert json.loads(out)["charpoly"] == text


def test_params_subcommand():
    code, out = run(["params", "--kappa", "1/3,1/4,1/5,1/7", "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["wall"]["on_wall"] is False
    assert len(data["theta"]) == 4


def test_disc_subcommand():
    code, out = run(["disc", "--kappa", "1,1/4,1/5,1/7", "--output", "json"])
    assert code == 0
    assert json.loads(out)["modulus"] < 1e-12


def test_verify_subcommand():
    code, out = run(["verify", "--nmax", "20", "--output", "json"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_orbit_subcommand():
    code, out = run(
        ["orbit", "--word", "s1 s2 s3", "--x", "0.1,0.2,0.3",
         "--kappa", "1/3,1/4,1/5,1/7", "--iters", "2", "--output", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["steps"]) == 2
    assert data["status"] in ("ok", "escaped")


def test_lines_subcommand():
    code, out = run(["lines", "--kappa", "1/3,1/4,1/5,1/7", "--verify", "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 27 and data["all_on_surface"]
    assert [c["sigma"] for c in data["sigma_checks"]] == [1, 2, 3]


def test_usage_error_exit_code():
    code, _ = run(["count"])  # missing required --N
    assert code == 2
    code, _ = run(["no-such-command"])
    assert code == 2
    code, _ = run(["solve", "--kappa", "1/3,1/4,1/5,1/7", "--N", "2", "--newton-tol", "1e-3"])
    assert code == 2


def test_malformed_number_exit_code():
    code, _ = run(["params", "--kappa", "1/3,zzz,1/5,1/7"])
    assert code == 1


def test_solve_on_wall_exit_code(capsys):
    code, _ = run(["solve", "--kappa", "1,1/4,1/5,1/7", "--N", "2"])
    assert code == 1
    assert capsys.readouterr().err == "error: nongeneric parameters: kappa lies on a wall\n"


def test_solve_subcommand_complete(tmp_path):
    code, out = run(
        ["solve", "--kappa", "1/3,1/4,1/5,1/7", "--N", "1",
         "--seeds", "1500", "--rng", "3", "--output", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["found"] == 0 and data["status"] == "complete"


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output = json\nspace = projective\n")
    code, out = run(["count", "--N", "2", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["space"] == "projective"
    # a flag beats the config file
    code, out = run(["count", "--N", "2", "--config", str(cfg), "--space", "affine"])
    assert json.loads(out)["space"] == "affine"
    # and so does --output
    code, out = run(["count", "--N", "2", "--config", str(cfg), "--output", "pretty"])
    assert "count:" in out


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    code, _ = run(["count", "--N", "2", "--config", str(bad)])
    assert code == 2
    code, _ = run(["count", "--N", "2", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2


def test_config_key_that_names_no_option_exits_2(monkeypatch, tmp_path, capsys):
    from cubicdyn import counting

    called = []
    monkeypatch.setattr(counting, "solve_periodic", lambda *args: called.append(args))
    old = tmp_path / "old.cfg"
    old.write_text("seeds = 100\nnewton_tol = 1e-3\n")
    code, out = run(["solve", "--theta", "1,2,3,4", "--N", "2", "--config", str(old)])
    assert code == 2 and out == "" and not called
    assert capsys.readouterr().err == f"error: {old}: solve takes no config key newton_tol\n"
    # a key of another command, a flag that takes no value, and an input
    # whose group a flag fills
    for argv, text in ((["zeta", "--order", "3"], "space = projective\n"),
                       (["lines", "--kappa", "1/3,1/4,1/5,1/7"], "verify = false\n"),
                       (["solve", "--theta", "1,2,3,4", "--N", "1"], "kappa = 1/3,1/4,1/5,1/7\n")):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out = run([*argv, "--config", str(cfg)])
        assert code == 2 and out == ""
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_verify_beyond_float_range():
    # (2+sqrt5)^N overflows a float near N = 492; the check is exact
    from cubicdyn import counting

    code, out = run(["verify", "--nmax", "500", "--output", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 500
    assert rows[-1]["lefschetz"] == counting.per_count_closed(500, "projective") + 1


def test_unexpected_error_exit_code(monkeypatch, capsys):
    from cubicdyn import counting

    def boom(*args, **kwargs):
        raise RuntimeError("injected\nfailure")

    monkeypatch.setattr(counting, "per_count_closed", boom)
    code, out = run(["count", "--N", "2"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err == "error: unexpected RuntimeError: injected failure\n"


def test_solve_default_config_matches_solver(monkeypatch):
    from cubicdyn import counting

    seen = []

    def newton(x0, t, n, cfg):
        seen.append(cfg)
        return iter(())

    monkeypatch.setattr(counting, "_newton_batch", newton)
    theta = "1,2,3,4"
    for N in (2, 3):
        seen.clear()
        run(["solve", "--theta", theta, "--N", str(N)])
        from_cli = seen[0]
        seen.clear()
        counting.solve_periodic(parse_theta(theta), N)
        assert seen[0] == from_cli == SolverConfig()
        assert from_cli.seeds == 200000


_SOLVER_CONSTANTS = ["dedup_radius", "escape_radius", "newton_max_iter", "newton_tol",
                     "saturation_batches", "surface_tol"]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SolverConfig)] + _SOLVER_CONSTANTS)
def test_solve_flags_and_config_keys_reach_the_solver(monkeypatch, tmp_path, name):
    """A SolverConfig field reaches the solver as a flag and as a config
    key; a class constant is neither, and naming it is a usage error."""
    from cubicdyn import counting

    seen = []

    def newton(x0, t, n, cfg):
        seen.append(cfg)
        return iter(())

    monkeypatch.setattr(counting, "_newton_batch", newton)
    value = 7 if isinstance(getattr(SolverConfig(), name), int) else 0.125
    flag = "--rng" if name == "rng_seed" else "--" + name.replace("_", "-")
    key = "rng" if name == "rng_seed" else name
    cfg_file = tmp_path / "solve.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    for extra in ([flag, str(value)], ["--config", str(cfg_file)]):
        seen.clear()
        code, _ = run(["solve", "--theta", "1,2,3,4", "--N", "2", *extra])
        if name in _SOLVER_CONSTANTS:
            assert code == 2 and not seen
        else:
            assert seen[0] == dataclasses.replace(SolverConfig(), **{name: value})
