"""Command-line interface: tables, verification suites, flows, and weights.

Exit codes: 0 success, 1 verification failure or domain error, 2 usage error.
Output is deterministic for identical argv; floats print with 17 significant
digits in JSON mode and 6 in text mode.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

import numpy as np

from . import reference_tables
from .algebra import build_table, decompose, verify_reference_tables
from .catalog import (
    GeneratorId,
    ISOMETRIC_IDS,
    METAMORPHIC_IDS,
    SHIFT_IDS,
    get_generator,
    homogeneity_order,
    resolve_id,
    symmetry_class,
    symmetry_space_dimensions,
)
from .flows import (
    STANDARD_PARAM_GRID,
    STANDARD_Q_GRID,
    FlowSpec,
    _fold_max,
    closed_flow,
    evaluate_flow,
    expm_oracle,
    group_law_residual,
    invariance_residual,
    reference_discrepancies,
)
from .fmt import (
    inverse_ft_radial,
    jeffrey_identities,
    kernel_matrix,
    kr_weights,
    mayer_bond,
    step_hat,
)
from .matrices import METRIC, IDENTITY, metric_eigenvalues


def _fmt_float(x: float, mode: str) -> str:
    return format(float(x), ".17g" if mode == "json" else ".6g")


def _json_value(obj, mode: str = "json") -> str:
    """Deterministic JSON with explicit float formatting."""
    if isinstance(obj, dict):
        inner = ", ".join(f'"{k}": {_json_value(v, mode)}' for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v, mode) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj, "json")
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_numeric_matrix(m, mode: str, out) -> None:
    rows = m.tolist() if isinstance(m, np.ndarray) else m
    if mode == "json":
        out.write(_json_value(rows) + "\n")
    else:
        for row in rows:
            out.write("  ".join(_fmt_float(x, "text").rjust(13) for x in row) + "\n")


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


def _cmd_eval(args, out) -> int:
    spec = FlowSpec(resolve_id(args.gen), args.param, args.q)
    result = evaluate_flow(spec, method=args.method)
    residual = invariance_residual(result.matrix)
    if args.format == "json":
        payload = {
            "matrix": result.matrix.tolist(),
            "method": result.method,
            "invariance_residual": residual,
        }
        out.write(_json_value(payload) + "\n")
    else:
        out.write(f"exp({_fmt_float(args.param, 'text')} * {spec.gen.value}) at q = {_fmt_float(args.q, 'text')} ({result.method})\n")
        _print_numeric_matrix(result.matrix, "text", out)
        out.write(f"invariance residual: {_fmt_float(residual, 'text')}\n")
    return 0


def _cmd_decompose(args, out) -> int:
    if args.product is not None:
        ids = [resolve_id(n) for n in args.product.split(",") if n.strip()]
        if not ids:
            raise ValueError("empty --product list")
        matrix = get_generator(ids[0])
        for gid in ids[1:]:
            matrix = matrix @ get_generator(gid)
    else:
        import json as _json

        from .matrices import Mat4

        text = sys.stdin.read() if args.json == "-" else open(args.json).read()
        matrix = Mat4.from_json_dict(_json.loads(text))
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
            out.write(f"w{nu} = {_fmt_float(val, 'text')}\n")
    return 0


def _cmd_mayer(args, out) -> int:
    value = mayer_bond(args.Ra, args.Rb, args.q)
    reference = step_hat(args.Ra + args.Rb, args.q)
    if args.format == "json":
        out.write(_json_value({"bond": value, "step_hat_sum": reference}) + "\n")
    else:
        out.write(f"bond = {_fmt_float(value, 'text')} (step of summed radii: {_fmt_float(reference, 'text')})\n")
    return 0


def _cmd_kernel(args, out) -> int:
    k = kernel_matrix(args.R, args.q)
    _print_numeric_matrix(k, args.format, out)
    return 0


def _cmd_profile(args, out) -> int:
    hat = lambda q: step_hat(args.R, q) if q > 0 else 4.0 * math.pi * args.R**3 / 3.0
    radii = [args.rmax * i / (args.points - 1) if args.points > 1 else 0.0 for i in range(args.points)]
    profile = inverse_ft_radial(hat, radii, qmax=args.qmax, n=args.panels)
    for r, f in zip(radii, profile):
        out.write(f"{_fmt_float(r, 'text')},{_fmt_float(f, 'text')}\n")
    return 0


def _cmd_dump_generators(args, out) -> int:
    payload = {gid.value: get_generator(gid).to_json_dict() for gid in GeneratorId}
    out.write(_json_value(payload) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _suite_tables() -> tuple[bool, str]:
    report = verify_reference_tables()
    detail = f"{report.cells_checked} cells, {len(report.mismatches)} mismatches"
    for m in report.mismatches:
        detail += f"\n    {m}"
    return report.ok, detail


def _suite_symmetry() -> tuple[bool, str]:
    problems = []
    for gid in ISOMETRIC_IDS:
        if symmetry_class(get_generator(gid)).value != "isometric":
            problems.append(f"{gid.value} not isometric")
    for gid in METAMORPHIC_IDS:
        if symmetry_class(get_generator(gid)).value != "metamorphic":
            problems.append(f"{gid.value} not metamorphic")
    for gid in GeneratorId:
        expected = int(gid.value[1]) if gid.value[1].isdigit() else 0
        if gid is GeneratorId.ONE:
            expected = 0
        if homogeneity_order(get_generator(gid)) != expected:
            problems.append(f"{gid.value} homogeneity order != {expected}")
    dims = symmetry_space_dimensions()
    if dims != (6, 10):
        problems.append(f"symmetry space dims {dims} != (6, 10)")
    return not problems, "; ".join(problems) if problems else "15 generators classified, dims (6, 10)"


def _suite_jeffrey() -> tuple[bool, str]:
    report = jeffrey_identities()
    if report.ok:
        return True, f"{len(report.checks)} identities"
    return False, "; ".join(f"{n}: {d}" for n, d in report.failures())


def _suite_flows() -> tuple[bool, str]:
    problems = []
    for gid in GeneratorId:
        worst = 0.0
        for q in STANDARD_Q_GRID:
            for p in STANDARD_PARAM_GRID:
                closed = closed_flow(gid, p, q)
                oracle = expm_oracle(get_generator(gid), p, q, 1e-13)
                rel = float(np.abs(closed - oracle).max()) / (1.0 + float(np.abs(closed).max()))
                worst = _fold_max(worst, rel)
        if not (worst <= 1e-9):
            problems.append(f"{gid.value} closed form vs oracle rel {worst:.2e}")
    for gid in ISOMETRIC_IDS:
        for q in STANDARD_Q_GRID:
            for p in STANDARD_PARAM_GRID:
                r = float(invariance_residual(closed_flow(gid, p, q, prec=60), prec=60))
                if not (r <= 1e-11):
                    problems.append(f"{gid.value} invariance residual {r:.2e} at ({p}, {q})")
    for gid in list(METAMORPHIC_IDS) + list(SHIFT_IDS):
        best = functools.reduce(
            _fold_max,
            (
                float(invariance_residual(closed_flow(gid, p, q)))
                for q in STANDARD_Q_GRID
                for p in STANDARD_PARAM_GRID
            ),
        )
        if not (best > 0.1):
            problems.append(f"{gid.value} never breaks the metric (max residual {best:.2e})")
    discrepancies = reference_discrepancies()
    expected = [(GeneratorId.B2, (3, 1))]
    if [(d.gen, d.entry) for d in discrepancies] != expected:
        problems.append(f"unexpected published-form discrepancies: {[str(d) for d in discrepancies]}")
    return not problems, "; ".join(problems) if problems else "20 flows vs oracle, isometry, discrepancy scan"


def _suite_mayer() -> tuple[bool, str]:
    worst = 0.0
    for Ra in (0.3, 1.0, 2.7):
        for Rb in (0.3, 1.0, 2.7):
            for q in (0.01, 0.5, 1.0, math.pi, 10.0):
                lhs = mayer_bond(Ra, Rb, q)
                rhs = step_hat(Ra + Rb, q)
                worst = _fold_max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = worst <= 1e-10
    limit = mayer_bond(1.0, 0.5, 1e-6)
    volume = 4.0 * math.pi * 1.5**3 / 3.0
    ok = ok and abs(limit - volume) / volume <= 1e-8
    return ok, f"worst rel {worst:.2e}; q->0 volume limit ok"


def _suite_kernel() -> tuple[bool, str]:
    problems = []
    radii = (0.3, 1.0, 2.7)
    qs = (0.01, 0.5, 1.0, math.pi, 10.0)
    for R in radii:
        for q in qs:
            col = np.asarray(kernel_matrix(R, q))[:, 0]
            if not (float(np.abs(col - kr_weights(R, q)).max()) <= 1e-12):
                problems.append(f"column identity fails at R={R}, q={q}")
    import mpmath

    for R in radii:
        for Rp in radii:
            for q in qs:
                add = group_law_residual(GeneratorId.T1, R, Rp, q, prec=50)
                if not (float(add) <= 1e-11):
                    problems.append(f"additivity {float(add):.2e} at ({R}, {Rp}, {q})")
                with mpmath.workdps(70):
                    a = kernel_matrix(R, q, prec=50)
                    b = kernel_matrix(Rp, q, prec=50)
                    comm = functools.reduce(
                        _fold_max,
                        (
                            abs(sum(a[i][k] * b[k][j] for k in range(4)) - sum(b[i][k] * a[k][j] for k in range(4)))
                            for i in range(4)
                            for j in range(4)
                        ),
                    )
                if not (float(comm) <= 1e-11):
                    problems.append(f"commutation {float(comm):.2e} at ({R}, {Rp}, {q})")
    return not problems, "; ".join(problems) if problems else "column, additivity, commutation"


def _suite_metric() -> tuple[bool, str]:
    eigs = metric_eigenvalues()
    ok = functools.reduce(_fold_max, (abs(e - t) for e, t in zip(eigs, (-1.0, -1.0, 1.0, 1.0)))) <= 1e-12
    ok = ok and (METRIC @ METRIC) == IDENTITY
    return ok, f"eigenvalues {[_fmt_float(e, 'text') for e in eigs]}, M^2 = 1 exact"


def _suite_profile() -> tuple[bool, str]:
    hat = lambda q: step_hat(1.0, q) if q > 0 else 4.0 * math.pi / 3.0
    radii, expected = (0.0, 0.5, 1.5, 2.0), (1.0, 1.0, 0.0, 0.0)
    worst = 0.0
    for f, e in zip(inverse_ft_radial(hat, radii), expected):
        worst = _fold_max(worst, abs(f - e))
    return worst <= 5e-3, f"worst deviation {worst:.2e}"


_SUITES = {
    "tables": _suite_tables,
    "symmetry": _suite_symmetry,
    "jeffrey": _suite_jeffrey,
    "flows": _suite_flows,
    "mayer": _suite_mayer,
    "kernel": _suite_kernel,
    "metric": _suite_metric,
    "profile": _suite_profile,
}


def _cmd_verify(args, out) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        ok, detail = _SUITES[name]()
        all_ok = all_ok and ok
        out.write(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})\n")
    if args.errata:
        out.write("\nknown discrepancies between published forms and generated algebra:\n")
        for d in reference_discrepancies():
            out.write(f"  {d}\n")
        for table, row, col, published, generated in reference_tables.PUBLISHED_TABLE_ERRATA:
            out.write(
                f"  {table} [{row}, {col}]: published {published}, matrix algebra gives {generated}\n"
            )
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("eval", help="evaluate a one-parameter flow")
    p.add_argument("--gen", required=True)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--method", choices=("closed", "series"), default="closed")
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
    try:
        return args.func(args, sys.stdout)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
