"""Command-line front end.

Subcommands cover each module: parameter maps and walls, discriminant,
the exact lattice action, the 27 lines, orbit traces, and the counting
suite.  Output is JSON, CSV or human-readable text.  Settings come from
the command line alone.  The verdicts' tolerances and the orbit escape
radius are the library's constants; a solver setting left unset keeps
SolverConfig's default.

Exit codes: 0 success / all checks pass, 1 verification failure or
any other error (one line on stderr, no traceback), 2 usage error,
among them an integer flag below its least value.  A
reader that closes standard output early gets exit code 1 and nothing on
stderr.
"""

from __future__ import annotations

import argparse
import cmath
import decimal
import json
import logging
import os
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from . import counting, lattice, lines, params, surface

__all__ = ["main", "dispatch"]

_log = logging.getLogger(__name__)

_FORMATS = ("json", "csv", "pretty")
_WRITE_PIECE = 1 << 16  # least characters of output per write, a pipe's capacity on Linux
# the exact counts' arithmetic: every operation exact, or it raises Inexact or Rounded
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.Rounded])


def parse_complex(text):
    """Parse "re+imi" strings, bare reals, or [re, im] JSON pairs of reals."""
    if isinstance(text, (list, tuple)):
        if len(text) != 2:
            raise ValueError(f"complex pair must have two entries: {text!r}")
        parts = []  # each item read from its text, as _split_list gives a JSON list's entries
        for item in (v if isinstance(v, str) else json.dumps(v) for v in text):
            try:
                parts.append(float(item))
            except ValueError:
                raise ValueError(f"cannot parse complex number {item!r}") from None
        return complex(*parts)
    s = str(text).strip()
    if s.startswith("["):
        return parse_complex(json.loads(s))
    try:
        # only a standalone imaginary unit: the i of inf or infinity stays
        return complex(re.sub(r"i(?![a-z])", "j", s.replace(" ", "")))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


def parse_scalar(text: str):
    """Parse the text of a rational ("3/10"), integer, real, or complex scalar."""
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    v = parse_complex(text)
    if v.imag == 0 and "i" not in text and "j" not in text:
        # keep exact integers exact for wall membership
        try:
            return int(text)
        except ValueError:
            return v.real
    return v


def _split_list(text):
    """The entries of text, each as text: a JSON list if that is all it is,
    else a comma list split at the commas outside brackets, so a [re, im]
    pair may stand anywhere in it.  A JSON list's strings stay as they are
    and its other items are written back as JSON, so each entry reads as
    the same comma list's and an integer keeps all its digits."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    if len(parts) == 1 and parts[0].strip().startswith("["):
        return [v if isinstance(v, str) else json.dumps(v) for v in json.loads(parts[0])]
    return [p for p in parts if p.strip()]


def parse_kappa(text) -> params.KappaPoint:
    """kappa from 4 (tail, k0 reconstructed) or 5 comma/JSON entries."""
    vals = [parse_scalar(v) for v in _split_list(text)]
    if len(vals) == 4:
        return params.KappaPoint.from_tail(*vals)
    if len(vals) == 5:
        return params.KappaPoint(*vals)
    raise ValueError("kappa needs 4 entries (k1..k4) or 5 (k0..k4)")


def _parse_point(text, n, name) -> tuple:
    """The n finite complex entries of text; name is the input's in the
    errors."""
    vals = tuple(parse_complex(v) for v in _split_list(text))
    if len(vals) != n:
        raise ValueError(f"{name} needs {n} entries")
    if not all(map(cmath.isfinite, vals)):
        raise ValueError(f"{name} must be finite")
    return vals


def parse_theta(text) -> params.ThetaPoint:
    return params.ThetaPoint(*_parse_point(text, 4, "theta"))


def _fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _emit(data, fmt: str, stream) -> None:
    """Render a JSON-able dict as json, csv (flat rows) or pretty text, each
    write but the last at least _WRITE_PIECE characters.

    A Decimal, the count of count and count-kappa, is a bare number, and so
    is each item of an iterator, zeta's lazy Decimals, computed as it is written.
    """
    _write_in_pieces(_json_parts(data) if fmt == "json" else _row_parts(data, fmt), stream)


def _json_parts(data):
    """The one-line JSON text of the dict data, in parts.  json's C encoder
    has no raw-number path, so a Decimal and an iterator of Decimals are
    spliced in between the encoded rest, each item of the iterator computed
    and turned to str() as it is used."""
    yield "{"
    for i, (key, val) in enumerate(data.items()):
        yield f"{', ' if i else ''}{json.dumps(key)}: "
        if isinstance(val, Iterator):
            yield from _joined("[", ", ", val, "]")
        elif isinstance(val, decimal.Decimal):
            yield str(val)
        else:
            yield json.dumps(val)
    yield "}\n"


def _row_parts(data, fmt):
    """The csv or pretty text of data's flattened pairs, a row each, in parts:
    a csv field as csv.writer writes it, a pretty one as an f-string does.
    An iterator's items are joined with spaces as they are computed."""
    sep, end, field = (",", "\r\n", _csv_field) if fmt == "csv" else (": ", "\n", format)
    for key, val in _flatten(data):
        if isinstance(val, Iterator):
            yield from _joined(f"{field(key)}{sep}", " ", val, end)
        else:
            yield f"{field(key)}{sep}{field(val)}{end}"


def _csv_field(v) -> str:
    """v as csv.writer writes a field in its default dialect: "" for None,
    else str(v), in double quotes with each one inside doubled if it holds a
    comma, a double quote or a line break.  Four scans for one character
    each, where a regular expression's character class takes 100 times as
    long on a count's digits."""
    text = "" if v is None else str(v)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _joined(head, sep, items, tail):
    """head, the str() of each item with sep between them, and tail, lazily."""
    yield head
    yield from (f"{sep if j else ''}{v}" for j, v in enumerate(items))
    yield tail


def _write_in_pieces(parts, stream) -> None:
    """Write the concatenated parts to stream, each write but the last
    joining the parts held until they reach _WRITE_PIECE characters, and
    the parts held when making the next one fails.  A single write that a
    closed pipe takes in part returns without an error, so the write after
    a reader has gone away raises BrokenPipeError."""
    held, size = [], 0
    try:
        for part in parts:
            held.append(part)
            size += len(part)
            if size >= _WRITE_PIECE:
                held[:], size = ["".join(held)], 0
                stream.write(held.pop())  # out of held first, so that a failed write is not repeated
    finally:
        if held:
            stream.write("".join(held))


def _flatten(data, prefix=""):
    if isinstance(data, dict):
        for k, v in data.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(data, (list, tuple)):
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in data)
        if scalars:
            yield prefix.rstrip("."), " ".join(str(v) for v in data)
        else:
            for i, v in enumerate(data):
                yield from _flatten(v, f"{prefix.rstrip('.')}[{i}].")
    else:
        yield prefix.rstrip("."), data


def _at_least(low):
    """The argparse type of an integer flag whose least value is low, so
    that a smaller one is a usage error."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


@lru_cache(maxsize=None)
def _parser():
    """The parser tree, built once per process on first use.

    Each subparser names its command's function as the default of run."""
    parser = argparse.ArgumentParser(
        prog="cubicdyn",
        description="Birational dynamics on affine cubic surfaces: "
        "parameters, lattice action, 27 lines, periodic-point counts.",
    )
    parser.add_argument("--output", choices=_FORMATS, default="pretty")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, run, **kw):
        p = sub.add_parser(name, **kw)
        # --output is accepted after the subcommand too; SUPPRESS keeps a
        # pre-subcommand value from being clobbered by the subparser default
        p.add_argument("--output", choices=_FORMATS, default=argparse.SUPPRESS)
        p.set_defaults(run=run)
        return p

    p = add_parser("params", _cmd_params, help="kappa -> traces, eigenvalues, theta + wall report")
    p.add_argument("--kappa", required=True, help="k1,k2,k3,k4 (rationals allowed) or 5 entries")

    # the inputs of a required group default to SUPPRESS: only the one
    # given is in args, so "kappa" in args tells which input was given
    p = add_parser("disc", _cmd_disc, help="discriminant of the surface in b-coordinates")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kappa", default=argparse.SUPPRESS)
    g.add_argument("--b", default=argparse.SUPPRESS, help='four complex entries "re+imi" or [re,im] pairs')

    add_parser("lattice", _cmd_lattice, help="exact matrices, charpoly, spectral radius, checks")

    p = add_parser("lines", _cmd_lines, help="the 27 lines with on-surface residuals")
    p.add_argument("--kappa", required=True)
    p.add_argument("--verify", action="store_true", help="run the sigma line-swap checks")

    p = add_parser("orbit", _cmd_orbit, help="iterate a generator word from a start point")
    p.add_argument("--word", required=True, help='e.g. "s1 s2 s3" or "g1^2 g2^-2"')
    p.add_argument("--x", required=True, help="three complex start coordinates")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--theta", default=argparse.SUPPRESS)
    g.add_argument("--kappa", default=argparse.SUPPRESS)
    p.add_argument("--iters", type=_at_least(0), default=1)

    p = add_parser("count", _cmd_count, help="closed-form N-periodic point count of c")
    p.add_argument("--N", type=_at_least(1), required=True)
    p.add_argument("--space", choices=("affine", "projective"), default="affine")

    p = add_parser("count-kappa", _cmd_count_kappa, help="closed-form count along the full loop")
    p.add_argument("--N", type=_at_least(1), required=True)

    p = add_parser("zeta", _cmd_zeta, help="Taylor coefficients of the zeta function")
    p.add_argument("--order", type=_at_least(1), required=True)

    p = add_parser("solve", _cmd_solve, help="numerically find the N-periodic points")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--theta", default=argparse.SUPPRESS)
    g.add_argument("--kappa", default=argparse.SUPPRESS)
    p.add_argument("--N", type=_at_least(1), required=True)
    p.add_argument("--seeds", type=_at_least(1))
    p.add_argument("--rng", type=_at_least(0), help="RNG seed")

    p = add_parser("verify", _cmd_verify, help="cross-check every exact counting identity")
    p.add_argument("--nmax", type=_at_least(1), required=True)
    return parser


# Each command returns (data, exit code); dispatch renders data.


def _cmd_params(args):
    kappa = parse_kappa(args.kappa)
    a = params.kappa_to_traces(kappa)
    b = params.kappa_to_eigen(kappa)
    theta = params.rh_params(kappa)
    wall = params.wall_membership(kappa)
    return {
        "kappa": [str(v) for v in kappa.as_tuple()],
        "a": [_fmt_complex(v) for v in a.as_tuple()],
        "b": [_fmt_complex(v) for v in b.as_tuple()],
        "theta": [_fmt_complex(v) for v in theta.as_tuple()],
        "wall": wall.to_json(),
    }, 0


def _cmd_disc(args):
    if "b" in args:
        b = params.EigenParams(*_parse_point(args.b, 4, "b"))
    else:
        b = params.kappa_to_eigen(parse_kappa(args.kappa))
    d = params.discriminant(b)
    return {"b": [_fmt_complex(v) for v in b.as_tuple()],
            "discriminant": _fmt_complex(d), "modulus": abs(complex(d))}, 0


def _cmd_lattice(args):
    cstar = lattice.coxeter_star()
    coeffs = lattice.charpoly(cstar)
    terms = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        sign = ("- " if c < 0 else "+ ") if terms else ("-" if c < 0 else "")
        mag = "" if abs(c) == 1 and deg > 0 else str(abs(c))
        mono = f"x^{deg}" if deg > 1 else "x" * deg
        terms.append(f"{sign}{mag}{mono}")
    return {
        "sigma_star": {str(i): lattice.sigma_star(i).to_json() for i in (1, 2, 3)},
        "coxeter_star": cstar.to_json(),
        "charpoly_coeffs_low_to_high": list(coeffs),
        "charpoly": " ".join(terms),
        "spectral_radius": lattice.spectral_radius(cstar),
        "spectral_radius_closed": 2 + 5 ** 0.5,
        "eigenvector_checks": lattice.eigenvector_checks(),
    }, 0


def _cmd_lines(args):
    kappa = parse_kappa(args.kappa)
    b = params.kappa_to_eigen(kappa)
    theta = params.rh_params(kappa)
    built = lines.all_lines(b)
    flags, residuals = lines.lines_on_surface(built, theta)
    rows = [{**ln.to_json(), "on_surface": ok, "residual": resid}
            for ln, ok, resid in zip(built, flags, residuals)]
    ok_all = all(flags)
    general = not params.wall_membership(kappa).on_wall
    data = {"count": len(rows), "all_on_surface": ok_all, "general_position": general, "lines": rows}
    code = 0 if ok_all else 1
    if args.verify:
        try:
            if not general:
                raise ValueError("lines not in general position (kappa lies on a wall)")
            data["sigma_checks"] = [
                {"sigma": i, "swaps": lines.verify_sigma_line_action(b, i, lines=built)["swaps"]}
                for i in (1, 2, 3)
            ]
        except (AssertionError, ValueError) as exc:
            data["sigma_checks_error"] = str(exc)
            code = 1
    return data, code


def _cmd_orbit(args):
    word = surface.parse_word(args.word)
    x = _parse_point(args.x, 3, "x")
    t = parse_theta(args.theta) if "theta" in args else params.rh_params(parse_kappa(args.kappa))
    steps = []
    status = "ok"
    for n in range(args.iters):
        res = surface.word_apply(word, x, t)
        x, t, status = res.point.as_tuple(), res.theta, res.status
        residual = res.point.residual(t)  # NaN or inf once an escaped point overflows
        steps.append(
            {
                "step": n + 1,
                "x": [_fmt_complex(v) for v in x],
                "theta": [_fmt_complex(v) for v in t.as_tuple()],
                "surface_residual": residual if cmath.isfinite(residual) else None,
                "status": status,
            }
        )
        if status == "escaped":
            break
    return {"word": str(word), "steps": steps, "status": status}, 0


def _cmd_count(args):
    """The count as a Decimal, whose str() is linear in its digits where an int's is quadratic."""
    count = counting._per_count(args.N, args.space, decimal.Decimal(1))
    return {"N": args.N, "space": args.space, "count": count}, 0


def _cmd_count_kappa(args):
    return {"N": args.N, "count": counting._per_kappa(args.N, decimal.Decimal(1))}, 0


def _cmd_zeta(args):
    """zeta's coefficients as lazy Decimals, which _emit computes as it writes them."""
    return {"order": args.order, "coefficients": counting._zeta_series(args.order, decimal.Decimal(1))}, 0


def _cmd_solve(args):
    # the options set by flag; SolverConfig keeps its default for the rest
    options = {"seeds": args.seeds, "rng_seed": args.rng}
    cfg = counting.SolverConfig(**{k: v for k, v in options.items() if v is not None})
    if "kappa" in args:
        report = counting.solve_for_kappa(parse_kappa(args.kappa), args.N, cfg)
    else:
        report = counting.solve_periodic(parse_theta(args.theta), args.N, cfg)
    return report.to_json(), 0 if report.status == "complete" else 1


def _cmd_verify(args):
    return counting.verify_counts(args.nmax), 0


def dispatch(argv, stream=None) -> int:
    """Parse argv, run the chosen subcommand and render its data to stream
    (stdout by default) in the --output format; returns the exit code.

    The parser tree is built once per process and shared by every call.  argv
    is parsed under Python's int-to-str digit limit; the command then runs and
    renders with it lifted, for kappa entries and counts of any length, in _EXACT.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        with decimal.localcontext(_EXACT):
            data, code = args.run(args)
            _emit(data, args.output, stream if stream is not None else sys.stdout)
        return code
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone away, and nothing more can reach it
        return 1
    except Exception as exc:
        # the CLI's boundary: one line on stderr, the traceback at DEBUG
        _log.debug("unexpected error in %s", args.command, exc_info=True)
        print(f"error: unexpected {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    code = dispatch(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone away: point stdout at devnull, so that the
        # flush at exit does not fail again and print to stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
