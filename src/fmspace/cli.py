"""Command-line interface: tables, verification suites, flows, and weights.

Exit codes: 0 success, 1 verification failure or domain error, 2 usage error.
Output is deterministic for identical argv; floats print with 17 significant
digits in JSON mode and 6 in text mode, and `eval --prec P` prints at most P
in either mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Optional

import numpy as np

from . import reference_tables
from .algebra import build_table, decompose
from .catalog import GeneratorId, SHIFT_IDS, get_generator, resolve_id
from .checks import CHECKS, Facts, FlowsRecord
from .flows import FlowResult, FlowSpec, _closed_form, closed_flow, evaluate_flow, invariance_residual
from .fmt import kernel_matrix, kr_weights, mayer_bond, step_hat, step_profile
from .matrices import Mat4
from .ring import is_mpf


def _fmt_float(x, digits: int) -> str:
    """x to `digits` significant digits (the CLI prints 17 in JSON mode, 6 in text mode); an mpf is rounded from its own digits."""
    if is_mpf(x):
        return _fmt_mpf(x, digits)
    return format(float(x), f".{digits}g")


def _fmt_mpf(x, digits: int) -> str:
    """format(x, f".{digits}g") for an mpf of any magnitude, also far beyond float64's range."""
    import mpmath

    if not mpmath.isfinite(x) or not x:
        return format(float(x), f".{digits}g")
    sign = "-" if x < 0 else ""
    # enough digits for the decimal exponent, however long, and for `digits` exact digits after it
    with mpmath.workdps(2 * digits + 40 + len(str(mpmath.mag(x)))):
        x = abs(x)  # rounds at the ambient precision, so only inside this context
        e = int(mpmath.floor(mpmath.log10(x)))
        k = digits - 1 - e
        if abs(k) < 400:  # an exact power of ten keeps a decimal tie of a float64 value a tie
            scaled = x * mpmath.mpf(10) ** k if k >= 0 else x / mpmath.mpf(10) ** -k
        else:  # beyond float64's range: 10**k by repeated squaring would take seconds
            scaled = x * mpmath.exp(k * mpmath.ln10)
        m = int(mpmath.nint(scaled))
    if m >= 10**digits:  # the rounding carried into one more digit
        m, e = m // 10, e + 1
    ds = str(m)
    if -4 <= e < digits:
        text = ds[: e + 1] + "." + ds[e + 1 :] if e >= 0 else "0." + "0" * (-e - 1) + ds
        return sign + text.rstrip("0").rstrip(".")
    tail = ds[1:].rstrip("0")
    return f"{sign}{ds[0]}{'.' + tail if tail else ''}e{e:+03d}"


def _json_value(obj, digits: int = 17) -> str:
    """Deterministic JSON, each float or mpf to `digits` significant digits."""
    if isinstance(obj, dict):
        inner = ", ".join(f'"{k}": {_json_value(v, digits)}' for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v, digits) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)) or is_mpf(obj):
        return _fmt_float(obj, digits)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_numeric_matrix(m: np.ndarray, mode: str, out, digits: int = 6) -> None:
    """The matrix as JSON (17 digits), or in text mode as rows of `digits` significant digits."""
    rows = m.tolist()
    if mode == "json":
        out.write(_json_value(rows) + "\n")
    else:
        for row in rows:
            out.write("  ".join(_fmt_float(x, digits).rjust(13) for x in row) + "\n")


_TABLE_SETS = {
    "isometric": (reference_tables.ISO_ORDER, reference_tables.ISO_ORDER, None),
    "metamorphic": (reference_tables.META_ORDER, reference_tables.META_ORDER, None),
    "mixed": (reference_tables.ISO_ORDER, reference_tables.META_ORDER, None),
    "shift": (reference_tables.SHIFT_ORDER, reference_tables.SHIFT_ORDER, reference_tables.SHIFT_ORDER),
}


def _cmd_tables(args, out) -> int:
    rows, cols, basis = _TABLE_SETS[args.set]
    table = build_table(
        args.kind,
        [resolve_id(n) for n in rows],
        [resolve_id(n) for n in cols],
        basis=[resolve_id(n) for n in basis] if basis else None,
    )
    if args.format == "json":
        out.write(_json_value(table.to_json_dict()) + "\n")
    else:
        out.write(table.to_text() + "\n")
    return 0


MAX_PREC = 10000  # `eval --prec`'s bound: a T3 flow takes about 0.5 s at 10^4 digits, 15 s at 10^5, over 100 s at 10^6


def _cmd_eval(args, out) -> int:
    if args.prec is not None:
        if args.method != "closed":
            raise ValueError("--prec applies to --method closed only")
        if not 1 <= args.prec <= MAX_PREC:
            raise ValueError(f"--prec must be at least 1 and at most {MAX_PREC} decimal digits, got {args.prec}")
    spec = FlowSpec(resolve_id(args.gen), args.param, args.q)
    if args.method == "closed":
        _closed_form(spec.gen)  # a generator without a closed form raises here: no --prec gets past that
    hint = "; pass prec (decimal digits) with --prec to evaluate through mpmath" if args.method == "closed" else ""
    if args.prec is None:
        try:
            result = evaluate_flow(spec, method=args.method)
        except ValueError as exc:
            raise ValueError(f"{exc}{hint}") from None
    else:
        result = FlowResult(closed_flow(spec.gen, spec.param, spec.q, prec=args.prec), "closed_form")
    residual = invariance_residual(result.matrix, prec=args.prec)
    if args.prec is None and not math.isfinite(residual):  # the float64 products of the residual overflowed
        raise ValueError(f"float64 overflow in the invariance residual of exp({spec.param!r} * {spec.gen.value}) at q = {spec.q!r}{hint}")
    # an mpf holds about prec digits: the digits past them are not printed
    limit = math.inf if args.prec is None else args.prec
    if args.format == "json":
        payload = {
            "matrix": result.matrix.tolist(),
            "method": result.method,
            "invariance_residual": residual,
        }
        out.write(_json_value(payload, min(17, limit)) + "\n")
    else:
        digits = min(6, limit)
        out.write(f"exp({_fmt_float(args.param, 6)} * {spec.gen.value}) at q = {_fmt_float(args.q, 6)} ({result.method})\n")
        _print_numeric_matrix(result.matrix, "text", out, digits)
        out.write(f"invariance residual: {_fmt_float(residual, digits)}\n")
    return 0


def _load_json(path: str):
    """The JSON in a file, or in stdin for "-"; ValueError naming an unreadable or invalid file."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None


def _cmd_decompose(args, out) -> int:
    if args.product is not None:
        ids = [resolve_id(n) for n in args.product.split(",") if n.strip()]
        if not ids:
            raise ValueError("empty --product list")
        matrix = get_generator(ids[0])
        for gid in ids[1:]:
            matrix = matrix @ get_generator(gid)
    else:
        matrix = Mat4.from_json_dict(_load_json(args.json))
    basis = SHIFT_IDS if args.basis == "shift" else None
    dec = decompose(matrix, basis=basis)
    if args.format == "json":
        out.write(_json_value(dec.to_json_dict()) + "\n")
    else:
        out.write(str(dec) + "\n")
    return 0


def _cmd_weights(args, out) -> int:
    w = kr_weights(args.R, args.q)
    if args.format == "json":
        out.write(_json_value(w.tolist()) + "\n")
    else:
        for nu, val in enumerate(w):
            out.write(f"w{nu} = {_fmt_float(val, 6)}\n")
    return 0


def _cmd_mayer(args, out) -> int:
    value = mayer_bond(args.Ra, args.Rb, args.q)
    reference = step_hat(args.Ra + args.Rb, args.q)
    if args.format == "json":
        out.write(_json_value({"bond": value, "step_hat_sum": reference}) + "\n")
    else:
        out.write(f"bond = {_fmt_float(value, 6)} (step of summed radii: {_fmt_float(reference, 6)})\n")
    return 0


def _cmd_kernel(args, out) -> int:
    _print_numeric_matrix(kernel_matrix(args.R, args.q), args.format, out)
    return 0


def _cmd_profile(args, out) -> int:
    if args.points < 1:
        raise ValueError(f"--points needs at least 1, got {args.points}")
    if not math.isfinite(args.rmax):  # rmax * 0 would be a NaN radius
        raise ValueError(f"--rmax must be finite, got {args.rmax!r}")
    if args.rmax < 0:  # checked here: one point is r = 0 alone, which never reads rmax
        raise ValueError(f"r must be nonnegative, got --rmax {args.rmax!r}")
    radii = [args.rmax * i / (args.points - 1) if args.points > 1 else 0.0 for i in range(args.points)]
    profile = step_profile(args.R, radii, qmax=args.qmax, n=args.panels)
    for r, f in zip(radii, profile):
        out.write(f"{_fmt_float(r, 6)},{_fmt_float(f, 6)}\n")
    return 0


def _cmd_dump_generators(args, out) -> int:
    payload = {gid.value: get_generator(gid).to_json_dict() for gid in GeneratorId}
    out.write(_json_value(payload) + "\n")
    return 0


# The verify suites; perfbench/tracing.py wraps the entries of this dict.
_SUITES = dict(CHECKS)


def _cmd_verify(args, out) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    facts = Facts()  # the exact facts of this pass, shared by its suites and dropped on return
    all_ok = True
    discrepancies = None
    for name in names:
        record = _SUITES[name](facts)
        all_ok = all_ok and record.ok
        out.write(f"{name}: {'PASS' if record.ok else 'FAIL'} ({record.detail})\n")
        if isinstance(record, FlowsRecord):
            discrepancies = record.discrepancies
    if args.errata:
        out.write("\nknown discrepancies between published forms and generated algebra:\n")
        for d in CHECKS["flows"](facts).discrepancies if discrepancies is None else discrepancies:
            out.write(f"  {d}\n")
        for table, row, col, published, generated in reference_tables.PUBLISHED_TABLE_ERRATA:
            out.write(
                f"  {table} [{row}, {col}]: published {published}, matrix algebra gives {generated}\n"
            )
    return 0 if all_ok else 1


# A negative float literal as float() reads it: digits with optional "_"
# between them, a fraction and an exponent, or inf, infinity or nan, any case
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_FLOAT = re.compile(
    rf"-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[+-]?{_DIGITS})?|inf(?:inity)?|nan)\Z",
    re.IGNORECASE,
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and each of its subparsers, that reads a negative float as a value.

    argparse tells a negative number from an option name by a pattern that
    misses exponents, -inf and -nan (in Python 3.11 it takes only -123 and
    -1.5 forms), so `--q -1e-3` would stop with "expected one argument".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fmspace parser, built once per process: parsing leaves it as it was, so every call shares it."""
    parser = _Parser(
        prog="fmspace",
        description="Operations on the four-dimensional space of local fundamental measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("tables", help="emit a structure table")
    p.add_argument("--kind", choices=("product", "half_commutator", "half_anticommutator"), required=True)
    p.add_argument("--set", choices=tuple(_TABLE_SETS), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=("all",) + tuple(_SUITES), default="all")
    p.add_argument("--errata", action="store_true", help="print the published-form discrepancy ledger")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "eval",
        help="evaluate a one-parameter flow",
        description=(
            "Evaluate exp(param X) at wave number q. Without --prec, the closed form is float64: within 1e-9 of the"
            " exact flow in the graded frame, entry (mu, nu) divided by q^(nu - mu), as max|f - ref| / (1 + max|ref|),"
            " or refused with exit 1. Unscaled, the bound is promised only where the phase |param q^alpha| is at most"
            " 1. The invariance residual is a float64 diagnostic of the printed matrix, not held to the bound."
        ),
    )
    p.add_argument("--gen", required=True)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--method", choices=("closed", "series"), default="closed")
    p.add_argument(
        "--prec", type=int,
        help=f"decimal digits, 1 to {MAX_PREC}: evaluate the closed form through mpmath; JSON prints min(17, prec)"
        " significant digits and text min(6, prec), since the digits past prec are not held",
    )
    add_format(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("decompose", help="decompose a matrix in the generator basis")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--product", help="comma-separated generator names to multiply")
    group.add_argument("--json", help="path to a matrix JSON file, or - for stdin")
    p.add_argument("--basis", choices=("full", "shift"), default="full")
    add_format(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("weights", help="hard-sphere weight vector")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("mayer", help="bilinear form of two weight vectors")
    p.add_argument("--Ra", type=float, required=True)
    p.add_argument("--Rb", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_mayer)

    p = sub.add_parser("kernel", help="shifting kernel exp(R t1)")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("profile", help="real-space step profile via inverse transform (CSV)")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--qmax", type=float, default=200.0)
    p.add_argument("--panels", type=int, default=20000)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("dump-generators", help="all catalog matrices as JSON")
    p.set_defaults(func=_cmd_dump_generators)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if value == []:  # argparse drops "--" from a value, so --R=-- parses as []
            parser.error(f"argument --{name}: expected one value")
    try:
        return args.func(args, sys.stdout)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
