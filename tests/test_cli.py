"""Tests for the command-line front end (in-process dispatch)."""

import contextlib
import dataclasses
import decimal
import io
import json
import sys
import types
from fractions import Fraction

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
    assert parse_complex("1+i") == 1 + 1j and parse_complex("2i") == 2j
    assert parse_complex("1e-3i") == 1e-3j and parse_complex("(1+1j)") == 1 + 1j
    assert parse_complex("inf") == complex("inf") and parse_complex("-inf") == complex("-inf")
    assert parse_complex("infinity") == complex("inf")
    assert parse_complex("2") == 2
    assert parse_complex("[1, -2]") == 1 - 2j
    assert parse_complex([0.5, 0.25]) == 0.5 + 0.25j


def test_parse_scalar_keeps_rationals_exact():
    assert parse_scalar("3/10") == Fraction(3, 10)
    assert parse_scalar("2") == 2 and isinstance(parse_scalar("2"), int)


def test_parse_kappa_tail_and_full():
    k = parse_kappa("1/3,1/4,1/5,1/7")
    assert k.is_rational()
    k5 = parse_kappa("31/840,1/3,1/4,1/5,1/7")
    assert k5.as_tuple() == k.as_tuple()


# each entry text of the lists in the tests, README and CI, and the value
# parse_scalar reads it as, of that type
_ENTRY_VALUES = [
    ("1/3", Fraction(1, 3)), ("-2/3", Fraction(-2, 3)), (f"{10**400}/3", Fraction(10**400, 3)),
    ("1", 1), ("2", 2), ("0", 0), ("50", 50), (str(10**400), 10**400),
    ("0.9999999999", 0.9999999999), ("0.99999995", 0.99999995), ("1e4", 1e4), ("0.25", 0.25), ("-0.2", -0.2),
    ("1e308", 1e308), ("1e200", 1e200), ("1e150", 1e150), ("nan", float("nan")), ("[0.1,0]", 0.1),
    ("0.3+0.1i", 0.3 + 0.1j), ("1+1i", 1 + 1j), ("2-1i", 2 - 1j), ("-1+2i", -1 + 2j), ("1.5+2i", 1.5 + 2j),
    ("-3i", complex(0, -3)), ("1+i", 1 + 1j), ("2i", 2j), ("1e-3i", 1e-3j), ("(1+1j)", 1 + 1j), ("[0.5,2]", 0.5 + 2j),
    ("[1, -2]", 1 - 2j), ("[-0.7,0.2]", -0.7 + 0.2j), ("inf", complex("inf")), ("-inf", complex("-inf")),
    ("infinity", complex("inf")),
]

# the lists of the tests, README and CI: kappa for parse_kappa, and theta,
# b and x for the reader of points
_KAPPA_TEXTS = ["1/3,1/4,1/5,1/7", "31/840,1/3,1/4,1/5,1/7", "47/38,25/14,37/24,8/17", "4/5,5/12,7/4,8/7",
                "1,1/4,1/5,1/7", "0.9999999999,1/4,1/5,1/7", "0.3+0.1i,1/4,1/5,1/7", "1e4,0.25,0.2,0.1",
                f"{10**400}/3,1/4,1/5,1/7", f"{10**400},1/4,1/5,1/7", "[0.5,2],1/4,1/5,1/7"]
_POINT_TEXTS = ["1,2,3,4", "0,0,0,0", "2,3,5,7", "0.3,-0.2,0.1,0.7", "1e308,1e308,3,4", "1e150,1e150,1e150,1e150",
                "[1.3,0.4],[-0.7,0.2],[2.1,-0.3],[0.5,0.1]", "1+0.5i,2-1i,0.3+0.7i,-1+2i", "1+1i,[0.5,2],3,4",
                "[0.5,2],1+1i,3,4", "(1+1j),2,3,4", "0.1,0.2,0.3", "1e200,1e200,1e200", "50,60,70", "[0.1,0],0.2,0.3"]


def _typed(values):
    """Each value's type and repr, so that 1, 1.0 and (1+0j) differ, and nan equals nan."""
    return [(type(v), repr(v)) for v in values]


def test_every_entry_text_reads_as_its_value_and_type():
    for text, value in _ENTRY_VALUES:
        assert _typed([parse_scalar(text)]) == _typed([value]), text
        if isinstance(value, Fraction):
            with pytest.raises(ValueError, match="cannot parse complex number"):
                parse_complex(text)
        elif value == 10**400:
            assert _typed([parse_complex(text)]) == _typed([complex("inf")])  # past a float's range
        else:
            assert _typed([parse_complex(text)]) == _typed([complex(value)]), text


def test_every_list_text_reads_entry_by_entry():
    import re

    from cubicdyn import cli, params

    def entries(text):
        # the commas outside [re, im] pairs
        return [parse_scalar(e) for e in re.split(r",(?![^\[]*\])", text)]

    for text in _KAPPA_TEXTS:
        vals = entries(text)
        want = params.KappaPoint.from_tail(*vals) if len(vals) == 4 else params.KappaPoint(*vals)
        assert _typed(parse_kappa(text).as_tuple()) == _typed(want.as_tuple()), text
    for text in _POINT_TEXTS:
        want = [complex(v) for v in entries(text)]
        got = parse_theta(text).as_tuple() if len(want) == 4 else cli._parse_point(text, 3, "x")
        assert _typed(got) == _typed(want), text


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
    code, out = run(["lattice"])
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
    assert list(data) == ["sigma_star", "coxeter_star", "charpoly_coeffs_low_to_high", "charpoly",
                          "spectral_radius", "spectral_radius_closed", "eigenvector_checks"]


@pytest.mark.parametrize(
    "coeffs, text",
    [([1, 0, 1], "x^2 + 1"), ([-1, 1], "x - 1"), ([2, 0, -1, 3], "3x^3 - x^2 + 2"),
     ([-1, 2, -1], "-x^2 + 2x - 1")],
)
def test_lattice_charpoly_string_of_other_polynomials(monkeypatch, coeffs, text):
    from cubicdyn import lattice

    monkeypatch.setattr(lattice, "charpoly", lambda m: coeffs)
    code, out = run(["lattice", "--output", "json"])
    assert code == 0
    assert json.loads(out)["charpoly"] == text


def test_params_subcommand():
    code, out = run(["params", "--kappa", "1/3,1/4,1/5,1/7", "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["wall"]["on_wall"] is False
    assert len(data["theta"]) == 4


@pytest.mark.parametrize("k1, parsed, on_wall", [
    ("0.9999999999", "0.9999999999", True),  # 1e-10 from the wall k1 = 1
    ("0.99999995", "0.99999995", False),  # 5e-8 from it, past the fixed 1e-9
    ("0.3+0.1i", "(0.3+0.1j)", False),
])
def test_params_on_a_float_or_complex_kappa(k1, parsed, on_wall):
    code, out = run(["params", "--kappa", f"{k1},1/4,1/5,1/7", "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["kappa"][1] == parsed
    assert data["wall"]["on_wall"] is on_wall
    if on_wall:
        assert data["wall"]["witnesses"][0]["kind"] == "kappa_i_integer"
        assert data["wall"]["witnesses"][0]["residual"] == pytest.approx(1e-10)


@pytest.mark.parametrize("argv", [
    ["params", "--kappa", "1/3,1/4,1/5,1/7", "--wall-tol", "1"],
    ["lines", "--kappa", "1/3,1/4,1/5,1/7", "--tol", "1"],
    ["orbit", "--word", "s1", "--x", "0.1,0.2,0.3", "--theta", "1,2,3,4", "--escape-radius", "10"],
    ["lattice", "--matrices"],
    ["lattice", "--charpoly"],
    ["lattice", "--spectral-radius"],
    ["lattice", "--checks"],
    ["--rng", "3", "lattice"],
    ["zeta", "--order", "3", "--rng", "3"],
    ["--config", "f", "count", "--N", "2"],
    ["count", "--N", "2", "--config", "f"],
])
def test_a_removed_flag_is_a_usage_error(capsys, argv):
    code, out = run(argv)
    assert code == 2 and out == ""
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_disc_subcommand():
    code, out = run(["disc", "--kappa", "1,1/4,1/5,1/7", "--output", "json"])
    assert code == 0
    assert json.loads(out)["modulus"] < 1e-12


def test_disc_subcommand_on_b(capsys):
    from cubicdyn import params

    code, out = run(["disc", "--b", "2,3,5,7", "--output", "json"])
    assert code == 0
    assert json.loads(out)["modulus"] == abs(params.discriminant(params.EigenParams(2, 3, 5, 7)))
    code, out = run(["disc", "--b", "2,3,5"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: b needs 4 entries\n"


_HUGE = "1" + "0" * 5000  # 10^5000, past Python's 4300-digit int-to-str limit
_KAPPA_COMMANDS = [["params"], ["lines", "--verify"], ["disc"], ["solve", "--N", "2", "--seeds", "300"]]


@pytest.mark.parametrize("argv", _KAPPA_COMMANDS)
def test_a_rational_kappa_past_float_range_reads_as_its_remainder_mod_two(argv):
    # 10^400/3 and 10^5000/3 are 4/3 mod 2: every output but the kappa
    # entries themselves is that of 4/3
    code, want = run([argv[0], "--kappa", "4/3,1/4,1/5,1/7", *argv[1:], "--output", "json"])
    assert code == 0
    want = json.loads(want)
    want.pop("kappa", None)
    for k1 in (f"{10**400}/3", f"{_HUGE}/3"):
        code, out = run([argv[0], "--kappa", f"{k1},1/4,1/5,1/7", *argv[1:], "--output", "json"])
        assert code == 0, k1[-10:]
        got = json.loads(out)
        if argv[0] == "params":
            assert got.pop("kappa")[1] == k1
        assert got == want


@pytest.mark.parametrize("argv", _KAPPA_COMMANDS)
def test_a_json_list_reads_as_the_same_comma_list(capsys, argv):
    # a JSON number is read from its text, as the comma list's entry is:
    # 1 stays an exact integer, and 10^400 keeps all its digits
    for whole, text in (('[1,"1/4","1/5","1/7"]', "1,1/4,1/5,1/7"),
                        (f'[{10**400},"1/4","1/5","1/7"]', f"{10**400},1/4,1/5,1/7")):
        for fmt in ("json", "csv", "pretty"):
            got = run([argv[0], "--kappa", whole, *argv[1:], "--output", fmt]), capsys.readouterr()
            want = run([argv[0], "--kappa", text, *argv[1:], "--output", fmt]), capsys.readouterr()
            assert got == want, (whole, fmt)


@pytest.mark.parametrize("argv", _KAPPA_COMMANDS)
def test_a_huge_json_integer_reads_as_its_remainder_mod_two(capsys, argv):
    # 10^400 and 10^5000 are 0 mod 2, read exactly from a JSON list and, past
    # the digit limit, from a comma list.  A whole kappa_1 lies on a wall, so
    # lines and solve exit 1 here as they do for 0, and params and disc exit 0
    want_code, want = run([argv[0], "--kappa", "0,1/4,1/5,1/7", *argv[1:], "--output", "json"])
    want_err = capsys.readouterr().err
    assert want_code == (0 if argv[0] in ("params", "disc") else 1)
    for k1, kappa in ((str(10**400), f'[{10**400},"1/4","1/5","1/7"]'),
                      (_HUGE, f'[{_HUGE},"1/4","1/5","1/7"]'), (_HUGE, f"{_HUGE},1/4,1/5,1/7")):
        code, out = run([argv[0], "--kappa", kappa, *argv[1:], "--output", "json"])
        assert (code, capsys.readouterr().err) == (want_code, want_err), kappa[:10]
        if argv[0] == "params":
            # every output but the kappa entries and the wall's nearest integer is that of 0
            with _digits_unlimited():
                got, wanted = json.loads(out), json.loads(want)
                assert got.pop("kappa")[1] == k1 and wanted.pop("kappa")[1] == "0"
                assert got["wall"]["witnesses"][0].pop("m") == int(k1)
            assert wanted["wall"]["witnesses"][0].pop("m") == 0
            assert got == wanted
        else:
            assert out == want


@pytest.mark.parametrize("argv, error", [
    (["disc", "--b", "[true,2,3,4]"], "cannot parse complex number 'true'"),
    (["disc", "--b", "[1,2,3],2,3,4"], "complex pair must have two entries: [1, 2, 3]"),
    (["params", "--kappa", "1/4,1/5,1/7"], "kappa needs 4 entries (k1..k4) or 5 (k0..k4)"),
    # a pair's items read as a JSON list's entries: true is no number, and
    # an integer past a float's range is no finite entry
    (["disc", "--b", "[[true,false],2,3,4]"], "cannot parse complex number 'true'"),
    (["disc", "--b", f"[{10**400},0],2,3,4"], "b must be finite"),
])
def test_a_malformed_list_exits_1_with_one_error_line(capsys, argv, error):
    code, out = run([*argv, "--output", "json"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("b", ["1e308,1e308,3,4", "1e150,1e150,1e150,1e150"])
def test_a_discriminant_past_float_range_exits_1_with_one_error_line(capsys, b):
    code, out = run(["disc", "--b", b, "--output", "json"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: the discriminant overflows a float\n"


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "infinity"])
@pytest.mark.parametrize("name, argv", [
    ("theta", ["solve", "--theta", "1,{},3,4", "--N", "2"]),
    ("theta", ["orbit", "--word", "s1", "--x", "0.1,0.2,0.3", "--theta", "1,2,{},4"]),
    ("b", ["disc", "--b", "1,2,3,{}"]),
    ("x", ["orbit", "--word", "s1", "--x", "0,{},0", "--theta", "1,2,3,4"]),
    # the entry typed is named, not the kappa0 derived from it
    ("kappa2", ["params", "--kappa", "1/3,{},1/5,1/7"]),
    ("kappa4", ["solve", "--kappa", "1/3,1/4,1/5,{}", "--N", "2"]),
])
def test_a_point_with_a_non_finite_entry_exits_1(capsys, name, argv, entry):
    code, out = run([a.format(entry) for a in argv] + ["--output", "json"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {name} must be finite\n"


def test_a_start_point_needs_3_entries(capsys):
    code, out = run(["orbit", "--word", "s1", "--x", "0.1,0.2", "--theta", "1,2,3,4"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: x needs 3 entries\n"


@pytest.mark.parametrize("text, whole", [
    ("1+1i,[0.5,2],3,4", "[[1,1],[0.5,2],3,4]"),
    ("[0.5,2],1+1i,3,4", "[[0.5,2],[1,1],3,4]"),
])
def test_complex_pairs_stand_anywhere_in_a_comma_list(text, whole):
    code, out = run(["disc", "--b", text, "--output", "json"])
    assert code == 0 and out == run(["disc", "--b", whole, "--output", "json"])[1]


def test_disc_reads_a_python_complex_literal():
    code, out = run(["disc", "--b", "(1+1j),2,3,4", "--output", "json"])
    _, want = run(["disc", "--b", "1+1i,2,3,4", "--output", "json"])
    assert code == 0 and json.loads(out)["discriminant"] == json.loads(want)["discriminant"]


def test_orbit_takes_complex_pairs_in_its_comma_lists():
    argv = ["orbit", "--word", "s1 g2^-1", "--iters", "2", "--output", "json"]
    code, out = run(argv + ["--x", "[0.1,0],0.2,0.3", "--theta", "[1,0.5],[2,-1],[0.3,0.7],[-1,2]"])
    assert code == 0
    assert out == run(argv + ["--x", "0.1,0.2,0.3", "--theta", "1+0.5i,2-1i,0.3+0.7i,-1+2i"])[1]


def test_verify_subcommand():
    code, out = run(["verify", "--nmax", "20", "--output", "json"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_a_failed_verification_exits_1_with_one_error_line(monkeypatch, capsys):
    from cubicdyn import counting

    def fail(nmax):
        raise AssertionError("N=3: lefschetz 77 != closed 78")

    monkeypatch.setattr(counting, "verify_counts", fail)
    code, out = run(["verify", "--nmax", "3"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: N=3: lefschetz 77 != closed 78\n"


def test_orbit_subcommand():
    code, out = run(
        ["orbit", "--word", "s1 s2 s3", "--x", "0.1,0.2,0.3",
         "--kappa", "1/3,1/4,1/5,1/7", "--iters", "2", "--output", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["steps"]) == 2
    assert data["status"] in ("ok", "escaped")


def test_orbit_writes_its_word_with_each_power_written_out():
    code, out = run(["orbit", "--word", "s1 g2^-2 g3", "--x", "0.1,0.2,0.3", "--theta", "1,2,3,4",
                     "--iters", "1", "--output", "json"])
    assert code == 0
    assert json.loads(out)["word"] == "s1 g2^-1 g2^-1 g3"


def test_an_orbit_that_escapes_stops_at_its_first_step():
    code, out = run(["orbit", "--word", "s1 s2 s3", "--x", "50,60,70", "--theta", "0.3,-0.2,0.1,0.7",
                     "--iters", "5", "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert [s["status"] for s in data["steps"]] == ["escaped"] and data["status"] == "escaped"


def test_orbit_negative_iters_exit_code(capsys):
    code, out = run(["orbit", "--word", "s1 s2 s3", "--x", "0.1,0.2,0.3",
                     "--kappa", "1/3,1/4,1/5,1/7", "--iters", "-1", "--output", "json"])
    assert code == 2 and out == ""
    assert "error: argument --iters: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, least", [
    (["count", "--N", "0"], "--N", 1),
    (["count-kappa", "--N", "0"], "--N", 1),
    (["solve", "--theta", "1,2,3,4", "--N", "0"], "--N", 1),
    (["zeta", "--order", "0"], "--order", 1),
    (["verify", "--nmax", "0"], "--nmax", 1),
    (["orbit", "--word", "s1", "--x", "0.1,0.2,0.3", "--theta", "1,2,3,4", "--iters", "-1"], "--iters", 0),
    (["solve", "--theta", "1,2,3,4", "--N", "2", "--seeds", "0"], "--seeds", 1),
    (["solve", "--theta", "1,2,3,4", "--N", "2", "--rng", "-1"], "--rng", 0),
])
def test_an_integer_flag_below_its_least_value_is_a_usage_error(capsys, argv, flag, least):
    code, out = run([*argv, "--output", "json"])
    assert code == 2 and out == ""
    assert f"error: argument {flag}: must be >= {least}\n" in capsys.readouterr().err


def test_csv_and_pretty_rows_index_lists_of_dicts():
    code, out = run(["lines", "--kappa", "1/3,1/4,1/5,1/7", "--output", "csv"])
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines())
    assert rows["lines[0].label"] == "F12" and rows["lines[26].on_surface"] == "True"
    code, out = run(["solve", "--theta", "[1.3,0.4],[-0.7,0.2],[2.1,-0.3],[0.5,0.1]", "--N", "2",
                     "--seeds", "200", "--output", "pretty"])
    assert code == 0
    keys = [line.split(": ", 1)[0] for line in out.splitlines()]
    assert "points[0].x[0]" in keys and "points[0].residual" in keys


_EVERY_SUBCOMMAND = [
    ["params", "--kappa", "1/3,1/4,1/5,1/7"], ["disc", "--b", "1+1i,[0.5,2],3,4"], ["lattice"],
    ["lines", "--kappa", "1/3,1/4,1/5,1/7", "--verify"],
    ["orbit", "--word", "s1 s2 s3", "--x", "0.1,0.2,0.3", "--kappa", "1/3,1/4,1/5,1/7", "--iters", "5"],
    ["count", "--N", "5"], ["count-kappa", "--N", "3"], ["zeta", "--order", "300"],
    ["solve", "--kappa", "1/3,1/4,1/5,1/7", "--N", "2", "--seeds", "300"], ["verify", "--nmax", "5"],
]


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=[a[0] for a in _EVERY_SUBCOMMAND])
def test_csv_output_is_csv_writers_text(argv):
    # csv and pretty print the flattened pairs of the command's own json,
    # as csv.writer and an f-string write them
    import csv

    from cubicdyn import cli

    code, out = run([*argv, "--output", "json"])
    pairs = list(cli._flatten(json.loads(out)))
    want = io.StringIO()
    csv.writer(want).writerows(pairs)
    assert code == 0 and run([*argv, "--output", "csv"]) == (0, want.getvalue())
    assert run([*argv, "--output", "pretty"]) == (0, "".join(f"{k}: {v}\n" for k, v in pairs))


def test_csv_rows_that_need_quoting_go_through_csv_writer():
    import csv
    import decimal

    import numpy as np

    from cubicdyn import cli

    pairs = [("a", "x,y"), ("b", 'say "hi"'), ("c", "two\nlines"), ("d", "cr\r"), ("e", None), ("f", ""),
             ("g", 1.5), ("h", 1e-300), ("i", np.float64(0.1)), ("i1", 1e16), ("i2", -0.0), ("i3", float("inf")),
             ("i4", float("nan")), ("j", True), ("k", 10**40), ("l", decimal.Decimal("12345678901234567890")),
             ("m", "1 22 405"), ("n", "x"), ("n1", ""), ("n2", None), ("n3", 2), ('o,"p"', "q\r\n")]
    want = io.StringIO()
    csv.writer(want).writerows(pairs)
    got = io.StringIO()
    cli._emit(dict(pairs), "csv", got)
    assert got.getvalue() == want.getvalue()
    assert '"x,y"' in got.getvalue() and '"say ""hi"""' in got.getvalue() and '\r\ne,\r\n' in got.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_every_write_but_the_last_is_a_whole_piece(fmt):
    # verify --nmax 2000 prints 8004 csv or pretty rows
    from cubicdyn import cli

    class Writes(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    sizes = []
    assert dispatch(["verify", "--nmax", "2000", "--output", fmt], stream=Writes()) == 0
    assert len(sizes) > 1 and min(sizes[:-1]) >= cli._WRITE_PIECE, sizes


def test_lines_subcommand():
    # the complex kappa has |b_i| near 2e-6, so b_j b_k - b_i b_4 is below
    # 1e-12 though the surface is in general position
    for kappa in ("1/3,1/4,1/5,1/7", "0.1+4.2i,0.35+4.2i,0.64+4.2i,0.87+4.2i"):
        code, out = run(["lines", "--kappa", kappa, "--verify", "--output", "json"])
        assert code == 0, kappa
        data = json.loads(out)
        assert data["count"] == 27 and data["all_on_surface"] is True and data["general_position"] is True
        assert all(ln["on_surface"] is True for ln in data["lines"])
        assert [c["sigma"] for c in data["sigma_checks"]] == [1, 2, 3]


def test_lines_verify_on_a_wall_reports_the_failed_checks():
    code, out = run(["lines", "--kappa", "1,1/4,1/5,1/7", "--verify", "--output", "json"])
    assert code == 1
    data = json.loads(out)
    assert data["general_position"] is False and "sigma_checks" not in data
    assert data["sigma_checks_error"].startswith("lines not in general position")


@pytest.mark.parametrize("kappa, general", [
    ("0.25,0.25,0.25,0.2500000005", False),  # 5e-10 from the wall k1 + k2 + k3 + k4 = 1
    ("1,1/4,1/5,1/7", False),
    # a whole float kappa_1 of size 1e4, whose kappa_0 meets the constraint within rounding
    ("1e4,0.25,0.2,0.1", False),
    ("1/3,1/4,1/5,1/7", True), ("0.1+4.2i,0.35+4.2i,0.64+4.2i,0.87+4.2i", True),
    ("47/38,25/14,37/24,8/17", True), ("3/29,18/19,19/21,25/26", True), ("3/20,29/27,26/27,24/25", True),
    ("29/30,10/9,21/20,1/39", True), ("45/23,1/9,3/10,15/16", True),
])
def test_params_lines_and_solve_agree_on_the_wall(capsys, caplog, kappa, general):
    # params prints the wall test, lines reports it as general_position and
    # refuses to verify on a wall, though it lists the lines there in
    # silence, and solve refuses a kappa on a wall
    code, out = run(["params", "--kappa", kappa, "--output", "json"])
    assert code == 0 and json.loads(out)["wall"]["on_wall"] is not general
    code, out = run(["lines", "--kappa", kappa, "--verify", "--output", "json"])
    data = json.loads(out)
    assert data["general_position"] is general and code == (0 if general else 1)
    if not general:
        assert data["sigma_checks_error"] == "lines not in general position (kappa lies on a wall)"
        assert "sigma_checks" not in data
        code, out = run(["lines", "--kappa", kappa, "--output", "json"])
        assert code == 0 and json.loads(out)["general_position"] is False
        # no warning either, which the installed script's logging would print to stderr
        assert capsys.readouterr().err == "" and not caplog.records
        code, _ = run(["solve", "--kappa", kappa, "--N", "2", "--seeds", "300"])
        assert code == 1
        assert capsys.readouterr().err == "error: nongeneric parameters: kappa lies on a wall\n"


@pytest.mark.parametrize("kappa, smallest", [("0.0000001,0.25,0.2,0.1", "3.95e-13"),
                                             ("0.00000001,0.25,0.2,0.1", "3.95e-15")])
def test_lines_verify_near_an_integer_kappa_names_the_smallest_factor(kappa, smallest):
    # off every wall, but (b1 - 1/b1)^2 is below the sigma checks' 1e-12
    code, out = run(["lines", "--kappa", kappa, "--verify", "--output", "json"])
    data = json.loads(out)
    assert code == 1 and data["general_position"] is True and "sigma_checks" not in data
    assert data["sigma_checks_error"] == f"a discriminant factor is below 1e-12 in modulus (smallest {smallest})"


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


@pytest.mark.parametrize("kappa, entry", [("3/0,1/4,1/5,1/7", "3/0"), ("1/3,1/4,1/5,-2/0", "-2/0")])
def test_a_zero_denominator_exits_1_naming_the_entry(capsys, kappa, entry):
    code, out = run(["params", "--kappa", kappa])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: zero denominator in {entry!r}\n"


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


def test_one_parser_tree_serves_every_dispatch_call():
    from cubicdyn import cli

    plain = (0, "N: 2\nspace: affine\ncount: 22\n")
    assert run(["count", "--N", "2"]) == plain
    shared = cli._parser()
    assert run(["count", "--N", "2", "--space", "projective", "--output", "json"]) == (
        0, '{"N": 2, "space": "projective", "count": 23}\n')
    assert run(["count", "--N", "2"]) == plain
    assert cli._parser() is shared


def test_every_public_function_is_a_plain_function():
    from cubicdyn import cli, counting, lattice, lines, params, surface

    # the benchmark's tracer wraps types.FunctionType objects alone, so a
    # cache belongs on a private helper, never on a public function
    for mod in (cli, params, surface, lattice, lines, counting):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not isinstance(obj, type):
                assert isinstance(obj, types.FunctionType), f"{mod.__name__}.{name}"


def test_the_package_loads_no_module_and_the_benchmark_inputs_load_four():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cubicdyn

    src = str(Path(cubicdyn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = "print(sorted(m for m in sys.modules if m.startswith('cubicdyn.')))"
    code = f"import sys; import cubicdyn; {loaded}; from cubicdyn import counting, params; {loaded}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    # the package exports nothing; building the benchmark's inputs loads
    # counting and what it imports, never lines or cli
    assert out.splitlines() == [
        "[]", "['cubicdyn.counting', 'cubicdyn.lattice', 'cubicdyn.params', 'cubicdyn.surface']"]


def test_verify_beyond_float_range():
    # (2+sqrt5)^N overflows a float near N = 492; the check is exact
    from cubicdyn import counting

    code, out = run(["verify", "--nmax", "500", "--output", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 500
    assert rows[-1]["lefschetz"] == counting.per_count_closed(500, "projective") + 1


def test_exact_counts_past_the_int_to_str_digit_limit():
    # the counts outgrow the 4300 digits Python converts an int to str by
    # default, in every format; the limit is lifted while the CLI runs, and
    # restored.  The counts at N = 7000 and 3500 have 4389 digits
    from cubicdyn import counting

    zeta = ("zeta", "--order", "3500")
    with _digits_unlimited():
        counts = {("count", "--N", "7000"): _count_text("count", 7000),
                  ("count", "--N", "7000", "--space", "projective"): _count_text("count", 7000, "projective"),
                  ("count-kappa", "--N", "3500"): _count_text("count-kappa", 3500)}
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    outs = {}
    for argv in (zeta, *counts, ("verify", "--nmax", "3500")):
        for fmt in ("json", "csv", "pretty"):
            code, outs[argv, fmt] = run([*argv, "--output", fmt])
            assert code == 0, (argv, fmt)
            if limit is not None:
                assert sys.get_int_max_str_digits() == limit
    for argv, want in counts.items():
        for fmt, text in want.items():
            assert outs[argv, fmt] == text, (argv, fmt)
    # reading the coefficient back needs the limit lifted too
    with _digits_unlimited():
        last = json.loads(outs[zeta, "json"])["coefficients"][-1]
        digits = str(last)
    assert last == counting.zeta_coefficients(3500)[-1]
    assert outs[zeta, "csv"].endswith(f" {digits}\r\n") and outs[zeta, "pretty"].endswith(f" {digits}\n")


def test_unexpected_error_exit_code(monkeypatch, capsys):
    from cubicdyn import counting

    def boom(*args, **kwargs):
        raise RuntimeError("injected\nfailure")

    monkeypatch.setattr(counting, "_per_count", boom)
    code, out = run(["count", "--N", "2"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err == "error: unexpected RuntimeError: injected failure\n"


class _Closed(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("case, argv, want", [
    ("exit 0", ["count", "--N", "2"], 0),
    ("exit 1", ["params", "--kappa", "1/4,1/5,1/7"], 1),
    ("unexpected", ["count", "--N", "2"], 1),
    ("broken pipe", ["zeta", "--order", "30"], 1),
    ("exit 2", ["count", "--N", "0"], 2),
])
def test_dispatch_leaves_the_callers_digit_limit_and_decimal_context(monkeypatch, case, argv, want):
    # dispatch lifts the digit limit and enters _EXACT for the command alone
    from cubicdyn import counting

    if case == "unexpected":
        monkeypatch.setattr(counting, "_per_count", lambda *args: 1 / 0)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(5000)
    stream = _Closed() if case == "broken pipe" else io.StringIO()
    try:
        with decimal.localcontext(decimal.Context(prec=7, traps=[])) as caller:
            assert dispatch([*argv, "--output", "json"], stream=stream) == want
            assert decimal.getcontext() is caller and caller.prec == 7
            assert not any(caller.traps.values()) and not any(caller.flags.values())
        if limit is not None:
            assert sys.get_int_max_str_digits() == 5000
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_a_closed_output_stream_exits_1_in_silence(capsys):
    assert dispatch(["zeta", "--order", "30", "--output", "json"], stream=_Closed()) == 1
    assert capsys.readouterr() == ("", "")


@contextlib.contextmanager
def _digits_unlimited():
    """Python's int-to-str digit limit lifted, as dispatch lifts it, and
    restored on leaving."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _kappa_count(N):
    """Per_kappa(N) = C_N + 4 from C_N's own recurrence, not the CLI's path
    through Per_2N."""
    from itertools import islice

    from cubicdyn import counting

    return next(islice(counting._recurrence(2, 18, 18, -1), N, None)) + 4


def _count_text(command, N, space="affine"):
    """What count or count-kappa prints at N in each format: the int count,
    from the library or (count-kappa) from C_N's recurrence, rendered by
    json.dumps, csv.writer and an f-string.  Needs the digit limit lifted
    past 4300 digits."""
    import csv

    from cubicdyn import counting

    if command == "count":
        head, count = [["N", N], ["space", space]], counting.per_count_closed(N, space)
    else:
        head, count = [["N", N]], _kappa_count(N)
    rows = io.StringIO()
    csv.writer(rows).writerows([*head, ["count", str(count)]])
    return {"json": json.dumps({**dict(head), "count": count}) + "\n", "csv": rows.getvalue(),
            "pretty": "".join(f"{k}: {v}\n" for k, v in [*head, ["count", count]])}


@pytest.fixture
def no_digit_limit():
    with _digits_unlimited():
        yield


@pytest.mark.parametrize("order", [1, 2, 300, 2000, 3500])
def test_zeta_prints_the_digits_of_the_integer_coefficients(no_digit_limit, order):
    # the CLI computes zeta in Decimal and splices its digits into the JSON;
    # the bytes must be those of the library's ints rendered as before
    import csv

    from cubicdyn import counting

    ints = counting.zeta_coefficients(order)
    digits = " ".join(map(str, ints))
    rows = io.StringIO()
    csv.writer(rows).writerows([["order", order], ["coefficients", digits]])
    want = {"json": json.dumps({"order": order, "coefficients": ints}) + "\n", "csv": rows.getvalue(),
            "pretty": f"order: {order}\ncoefficients: {digits}\n"}
    for fmt, text in want.items():
        assert run(["zeta", "--order", str(order), "--output", fmt]) == (0, text), fmt


def test_large_exact_counts_print_as_json_dumps_renders_them(no_digit_limit):
    from cubicdyn import counting

    for argv, data in ((["verify", "--nmax", "500"], counting.verify_counts(500)),
                       (["count", "--N", "7000"],
                        {"N": 7000, "space": "affine", "count": counting.per_count_closed(7000)}),
                       (["count-kappa", "--N", "3500"], {"N": 3500, "count": _kappa_count(3500)})):
        assert run([*argv, "--output", "json"]) == (0, json.dumps(data) + "\n"), argv


@pytest.mark.parametrize("argv", [["count", "--space", "affine"], ["count", "--space", "projective"],
                                  ["count-kappa"]])
def test_count_prints_the_digits_of_the_integer_count(no_digit_limit, argv):
    # the CLI computes the counts in Decimal; the bytes must be those of the
    # ints rendered as before, count-kappa's from the paper's C_N + 4
    for N in (*range(1, 301), 5000):
        for fmt, text in _count_text(argv[0], N, *argv[2:]).items():
            assert run([*argv, "--N", str(N), "--output", fmt]) == (0, text), (N, fmt)


def test_count_arithmetic_raises_where_it_would_round(monkeypatch, capsys):
    import decimal

    from cubicdyn import cli, counting

    # with 10 digits of precision, the counts past about N = 16 (count) and
    # N = 8 (count-kappa) cannot be exact: the context must raise, not round
    short = cli._EXACT.copy()
    short.prec = 10
    monkeypatch.setattr(cli, "_EXACT", short)
    assert run(["count-kappa", "--N", "5"]) == (0, f"N: 5\ncount: {counting.per_kappa_closed(5)}\n")
    for argv in (["count", "--N", "30"], ["count", "--N", "30", "--space", "projective"],
                 ["count-kappa", "--N", "30"]):
        assert run(argv) == (1, ""), argv
        assert capsys.readouterr().err.startswith(("error: unexpected Inexact", "error: unexpected Rounded")), argv


def test_zeta_arithmetic_raises_where_it_would_round():
    import decimal

    from cubicdyn import cli, counting

    # with 10 digits of precision, the coefficients past about z^8 cannot
    # be exact: the context must raise, not round
    short = cli._EXACT.copy()
    short.prec = 10
    with decimal.localcontext(short), pytest.raises((decimal.Inexact, decimal.Rounded)):
        list(counting._zeta_series(30, decimal.Decimal(1)))
    with decimal.localcontext(cli._EXACT):
        assert list(counting._zeta_series(30, decimal.Decimal(1))) == counting.zeta_coefficients(30)


def test_a_reader_leaving_after_the_first_piece_exits_1_in_silence(capsys):
    from cubicdyn import cli

    class OnePiece(io.StringIO):
        def write(self, text):
            if self.tell():
                raise BrokenPipeError(32, "Broken pipe")
            assert len(text) >= cli._WRITE_PIECE
            return super().write(text)

    stream = OnePiece()
    assert dispatch(["zeta", "--order", "3000", "--output", "json"], stream=stream) == 1
    assert stream.getvalue().startswith('{"order": 3000, "coefficients": [1, 22, 405, ')
    assert capsys.readouterr() == ("", "")


def _fail_on_the_last_zeta_term(monkeypatch):
    """Make zeta's series raise RuntimeError where its last term would be."""
    from cubicdyn import counting

    series = counting._zeta_series

    def failing(order, one):
        for n, v in enumerate(series(order, one)):
            if n == order:
                raise RuntimeError("injected failure")
            yield v

    monkeypatch.setattr(counting, "_zeta_series", failing)


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_a_zeta_failure_on_its_last_term_leaves_every_coefficient_before_it(monkeypatch, capsys, fmt):
    # each coefficient is written as it is computed, so a failure leaves the
    # text before the failing term on stdout, and one line on stderr
    from cubicdyn import counting

    *_, before, last = map(str, counting.zeta_coefficients(3000))
    code, full = run(["zeta", "--order", "3000", "--output", fmt])
    assert code == 0
    _fail_on_the_last_zeta_term(monkeypatch)
    code, out = run(["zeta", "--order", "3000", "--output", fmt])
    assert code == 1
    assert capsys.readouterr().err == "error: unexpected RuntimeError: injected failure\n"
    assert full.startswith(out) and out.endswith(before) and full[len(out):].lstrip(", ").startswith(last)


@pytest.mark.parametrize("case", ["complete", "reader leaves", "failure"])
def test_zeta_leaves_the_callers_decimal_context_as_it_was(monkeypatch, case):
    import decimal

    from cubicdyn import cli

    class OnePiece(io.StringIO):
        def write(self, text):
            if self.tell():
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

    if case == "failure":
        _fail_on_the_last_zeta_term(monkeypatch)
    stream = OnePiece() if case == "reader leaves" else io.StringIO()
    with decimal.localcontext(decimal.Context(prec=7, traps=[])) as caller:
        code = dispatch(["zeta", "--order", "3000", "--output", "json"], stream=stream)
        assert decimal.getcontext() is caller
        assert caller.prec == 7 and caller.Emax == decimal.DefaultContext.Emax
        assert not any(caller.traps.values()) and not any(caller.flags.values())
    assert code == (0 if case == "complete" else 1)
    assert len(stream.getvalue()) >= cli._WRITE_PIECE


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_zeta_at_order_3500_holds_one_coefficient_and_one_write_piece(fmt):
    import math
    import tracemalloc

    from cubicdyn import cli, counting

    class Discard(io.TextIOBase):
        # takes the text and keeps none of it, so that only cubicdyn's
        # allocations are traced
        def write(self, text):
            return len(text)

    digits = math.ceil(counting.zeta_coefficients(3500)[-1].bit_length() * math.log10(2))  # about 4400
    dispatch(["zeta", "--order", "1", "--output", fmt], stream=Discard())  # the parser is built once
    tracemalloc.start()
    try:
        assert dispatch(["zeta", "--order", "3500", "--output", fmt], stream=Discard()) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the parts held for one write and their joined copy, each under
    # _WRITE_PIECE characters and one coefficient's part; the recurrence's
    # and the running sums' few Decimals, and the coefficient being turned
    # to text.  A list of the 3501 coefficients would take 3.7 MiB
    assert peak < 2 * cli._WRITE_PIECE + 8 * digits, peak


def _script_env():
    """The environment of a child `python -m cubicdyn.cli`: this package first
    on its path, and PYTHONUNBUFFERED unset, so that its stdout is buffered as
    a shell's is and a broken pipe can first show at main's flush."""
    import os
    from pathlib import Path

    import cubicdyn

    src = str(Path(cubicdyn.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_the_console_script_exits_1_in_silence_when_its_reader_leaves():
    import subprocess
    import sys

    # like `cubicdyn zeta --order 3000 --output json | head -c 100`: the
    # reader leaves long before the output is written
    proc = subprocess.Popen([sys.executable, "-m", "cubicdyn.cli", "zeta", "--order", "3000", "--output", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_script_env())
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1 and err == b""


def test_the_console_script_exits_1_in_silence_when_its_reader_left_before_it_wrote():
    import os
    import subprocess
    import sys

    # like `cubicdyn params ... | true` once true has exited: the short
    # output fits stdout's buffer, so dispatch writes it without error and
    # the broken pipe shows at main's flush
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "cubicdyn.cli", "params", "--kappa", "1/3,1/4,1/5,1/7"],
                              stdout=write, stderr=subprocess.PIPE, env=_script_env(), timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1 and proc.stderr == b""


def test_a_singular_theta_exits_1_with_one_error_line(capsys):
    # the roots of S(0) outnumber the closed form: the solve stops there
    code, out = run(["solve", "--theta", "0,0,0,0", "--N", "2", "--seeds", "300", "--output", "json"])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "closed form 22" in err


def _reject_constant(name):
    # NaN, Infinity and -Infinity are Python's extensions, not JSON
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [["zeta", "--order", "30"], ["lines", "--kappa", "1/3,1/4,1/5,1/7"],
                                  ["solve", "--theta", "[1.3,0.4],[-0.7,0.2],[2.1,-0.3],[0.5,0.1]",
                                   "--N", "2", "--seeds", "200"],
                                  ["params", "--kappa", "1/3,1/4,1/5,1/7"], ["disc", "--b", "1+1i,2,3,4"],
                                  ["lattice"], ["orbit", "--word", "s1 s2", "--x", "0.1,0.2,0.3",
                                                "--theta", "1,2,3,4", "--iters", "3"],
                                  ["count", "--N", "3"], ["count-kappa", "--N", "2"], ["verify", "--nmax", "20"],
                                  # an escaped point overflows, so its residual is not finite
                                  ["orbit", "--word", "s1", "--x", "1e200,1e200,1e200",
                                   "--theta", "1,2,3,4", "--iters", "2"]])
def test_json_output_is_one_line(argv):
    code, out = run([*argv, "--output", "json"])
    assert code == 0 and out.endswith("\n") and out.count("\n") == 1
    assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)


def _record_solver_config(monkeypatch):
    """Record the config of each _find_roots call, the one reader of a
    SolverConfig; each call finds no root."""
    import numpy as np

    from cubicdyn import counting

    seen = []

    def find(theta, n, cfg, divisor_roots):
        seen.append(cfg)
        return np.empty((0, 3), dtype=complex)

    monkeypatch.setattr(counting, "_find_roots", find)
    return seen


def test_solve_default_config_matches_solver(monkeypatch):
    from cubicdyn import counting

    seen = _record_solver_config(monkeypatch)
    theta = "1,2,3,4"
    for N in (2, 3):
        seen.clear()
        run(["solve", "--theta", theta, "--N", str(N)])
        from_cli = seen[0]
        seen.clear()
        counting.solve_periodic(parse_theta(theta), N)
        assert seen[0] == from_cli == SolverConfig()
        assert from_cli.seeds == 200000


# SolverConfig's class constants, and surface's DEFAULT_ESCAPE_RADIUS
_SOLVER_CONSTANTS = ["dedup_radius", "escape_radius", "newton_max_iter", "newton_tol",
                     "saturation_batches", "surface_tol"]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SolverConfig)] + _SOLVER_CONSTANTS)
def test_solve_flags_and_config_keys_reach_the_solver(monkeypatch, name):
    """A SolverConfig field reaches the solver as its flag; a solver
    constant is no flag, and naming it is a usage error."""
    seen = _record_solver_config(monkeypatch)
    value = 7 if isinstance(getattr(SolverConfig, name, None), int) else 0.125
    flag = "--rng" if name == "rng_seed" else "--" + name.replace("_", "-")
    code, _ = run(["solve", "--theta", "1,2,3,4", "--N", "2", flag, str(value)])
    if name in _SOLVER_CONSTANTS:
        assert code == 2 and not seen
    else:
        assert seen[0] == dataclasses.replace(SolverConfig(), **{name: value})


@pytest.mark.parametrize("flag, value, message", [("--rng", "abc", "invalid int value")])
def test_a_solver_setting_out_of_range_is_a_usage_error(monkeypatch, capsys, flag, value, message):
    """argparse rejects a value that is not an int before any solve."""
    from cubicdyn import counting

    called = []
    monkeypatch.setattr(counting, "solve_periodic", lambda *args: called.append(args))
    code, out = run(["solve", "--theta", "1,2,3,4", "--N", "2", flag, value])
    assert code == 2 and out == "" and not called
    assert f"error: argument {flag}: {message}" in capsys.readouterr().err
