import collections
import contextlib
import dataclasses
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmspace import checks, cli, flows, fmt, matrices, reference_tables
from fmspace.catalog import GeneratorId, get_generator
from fmspace.cli import main
from fmspace.fmt import kr_weights, mayer_bond
from fmspace.matrices import Mat4
from test_domain import PREC, TOL, _column_reference, _measures, _phase, _w3_measures

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_json_contract(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--gen", "B1", "--param", "0.7", "--q", "1.2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "closed_form"
    assert len(payload["matrix"]) == 4 and len(payload["matrix"][0]) == 4
    assert payload["invariance_residual"] <= 1e-12


def test_eval_series_method(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--gen", "T1", "--param", "1.0", "--q", "0.8",
        "--method", "series", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "series"


def test_eval_prec_goes_past_float64(capsys):
    """The overflow and underflow errors' advice works: --prec evaluates through mpmath and prints at the CLI's digits."""
    code, out, _ = run_cli(capsys, "eval", "--gen", "B1", "--param", "1000", "--q", "1", "--prec", "30")
    assert code == 0
    assert out.splitlines()[1].split() == ["9.85036e+433", "-9.85036e+433", "0", "0"]
    code, out, _ = run_cli(capsys, "eval", "--gen", "B1", "--param", "1000", "--q", "1", "--prec", "30", "--format", "json")
    assert code == 0
    assert out.startswith('{"matrix": [[9.850355570085235e+433, -9.850355570085235e+433, 0, 0], ')
    code, out, _ = run_cli(capsys, "eval", "--gen", "T3", "--param", "1", "--q", "1e-120", "--prec", "30")
    assert code == 0  # and the underflow error's: float64 q^6 is 0 here
    assert out.splitlines()[4].split() == ["1", "-1.98944e-482", "0", "1"]


@pytest.mark.parametrize("argv, decaying, residual", [
    (("--gen", "B0", "--param", "20", "--q", "1"), ((2, "2.06115e-09"), (3, "2.06115e-09")), "0"),
    (("--gen", "P0", "--param", "-20", "--q", "0.5"), ((0, "2.06115e-09"), (3, "2.06115e-09")), None),
    (("--gen", "B0", "--param", "700", "--q", "1"), ((2, "9.85968e-305"), (3, "9.85968e-305")), "0"),
    (("--gen", "B0", "--param", "700", "--q", "1", "--prec", "30"), ((2, "9.85968e-305"), (3, "9.85968e-305")), "3.88085e-32"),
])
def test_eval_diagonal_flow_keeps_its_decaying_entries(capsys, argv, decaying, residual):
    """e^-|tau| on the diagonal, where C 1 + tau S X printed 0 and a residual of 1 once |tau| passed about 18."""
    code, out, _ = run_cli(capsys, "eval", *argv)
    assert code == 0
    lines = out.splitlines()
    for i, value in decaying:
        assert lines[1 + i].split()[i] == value
    if residual is not None:
        assert lines[5] == f"invariance residual: {residual}"


def test_eval_prec_residual_is_taken_at_prec(capsys):
    argv = ("eval", "--gen", "B1", "--param", "0.7", "--q", "1.2", "--format", "json")
    closed = json.loads(run_cli(capsys, *argv)[1])
    code, out, _ = run_cli(capsys, *argv, "--prec", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "closed_form"
    assert np.allclose(payload["matrix"], closed["matrix"], rtol=1e-15, atol=0)
    assert payload["invariance_residual"] <= 1e-35


@pytest.mark.parametrize("extra, words", [
    (("--prec", "30", "--method", "series"), "--prec applies to --method closed only"),
    (("--prec", "0"), "--prec must be at least 1"),
    (("--prec", "-3"), "--prec must be at least 1"),
    (("--prec", "10001"), "--prec must be at least 1 and at most 10000 decimal digits, got 10001"),
    (("--prec", "100000000"), "at most 10000 decimal digits, got 100000000"),
])
def test_eval_prec_rejects(capsys, extra, words):
    code, _, err = run_cli(capsys, "eval", "--gen", "B1", "--param", "1", "--q", "1", *extra)
    assert code == 1
    assert err.startswith("error: ") and words in err


def test_mpf_digits_match_float_formatting():
    """An mpf holding a float prints as that float does, ties and subnormals included."""
    import random
    import struct

    import mpmath

    from fmspace.cli import _fmt_float

    rng = random.Random(11)
    values = [0.5, 2.0**-10, 1234565.0, 123456.5, 999.99, 1000.0, 1e-4, 9.9999e-5, 5e-324, 1.7976931348623157e308]
    values += [struct.unpack("d", struct.pack("Q", rng.getrandbits(63)))[0] for _ in range(2000)]
    values += [rng.randint(-10**9, 10**9) / 2.0 ** rng.randint(0, 30) for _ in range(2000)]
    for x in filter(math.isfinite, values):
        for digits in (6, 17):  # text and JSON
            assert _fmt_float(mpmath.mpf(x), digits) == _fmt_float(x, digits), x
    with mpmath.workdps(30):  # digits beyond float64, and a magnitude beyond its range
        third, big = mpmath.mpf(1) / 3, -mpmath.cosh(mpmath.mpf(10) ** 20)
    assert _fmt_float(third, 17) == "0.33333333333333333"
    assert _fmt_float(big, 17) == "-6.4842820304241448e+43429448190325182764"


@pytest.mark.parametrize("prec, w2", [(1, "1e+01"), (3, "10.6"), (5, "10.574"), (16, "10.57423625632582")])
def test_eval_prec_json_prints_only_the_digits_it_holds(capsys, prec, w2):
    """`eval --prec P --format json` prints min(17, P) significant digits of each mpf; it printed 17 whatever P was.

    At P = 1, entry (2, 0) is w2 = 4 pi sin 1 = 10.5743..., which printed as 10.625.
    """
    code, out, _ = run_cli(capsys, "eval", "--gen", "T1", "--param", "1", "--q", "1", "--prec", str(prec), "--format", "json")
    assert code == 0
    numbers = re.findall(r"-?[0-9][0-9.e+-]*", out)
    assert len(numbers) == 17 and numbers[8] == w2  # the matrix row by row, then the residual; entry (2, 0)
    for number in numbers:
        mantissa = number.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
        assert len(mantissa) <= prec, number


@pytest.mark.parametrize("prec, w2, residual", [(1, "1e+01", "2e+01"), (3, "10.6", "22.9"), (5, "10.574", "22.853")])
def test_eval_prec_text_prints_only_the_digits_it_holds(capsys, prec, w2, residual):
    """`eval --prec P` in text mode prints min(6, P) significant digits of each mpf, the residual too; it printed 6.

    At P = 1, entry (2, 0) is w2 = 4 pi sin 1 = 10.5743..., which printed as 10.625.
    """
    code, out, _ = run_cli(capsys, "eval", "--gen", "T1", "--param", "1", "--q", "1", "--prec", str(prec))
    assert code == 0
    header, *rows, last = out.splitlines()
    assert header == "exp(1 * T1) at q = 1 (closed_form)"
    numbers = [x for row in rows for x in row.split()]
    assert len(numbers) == 16 and numbers[8] == w2
    assert last == f"invariance residual: {residual}"
    for number in numbers + [residual]:
        mantissa = number.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
        assert len(mantissa) <= prec, number


def test_output_determinism(capsys):
    argv = ("eval", "--gen", "D2", "--param", "0.3", "--q", "1.7", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second

    argv = ("tables", "--kind", "product", "--set", "metamorphic")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_tables_text_layout(capsys):
    code, out, _ = run_cli(capsys, "tables", "--kind", "half_commutator", "--set", "isometric")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[1:] == ["B0", "B2", "D2", "B0p", "B1", "D1"]
    assert len(lines) == 7


def test_tables_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "tables", "--kind", "product", "--set", "shift", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == ["T0", "T1", "T2", "T3"]
    # cell (1,1): t1.t1 = 8 pi t2
    cell = payload["cells"][1][1]
    assert list(cell) == ["T2"]
    assert cell["T2"]["terms"] == [{"num": "8", "den": "1", "q": 0, "pi": 1}]


def test_dump_generators_round_trip(capsys):
    code, out, _ = run_cli(capsys, "dump-generators")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {gid.value for gid in GeneratorId}
    for gid in GeneratorId:
        assert Mat4.from_json_dict(payload[gid.value]) == get_generator(gid)


def test_decompose_product(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--product", "B0,F2")
    assert code == 0
    assert out.strip() == "H2"


def test_decompose_json_stdin_equivalent(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(get_generator(GeneratorId.P3).to_json_dict()))
    code, out, _ = run_cli(capsys, "decompose", "--json", str(path))
    assert code == 0
    assert out.strip() == "P3"


def test_weights_and_mayer(capsys):
    code, out, _ = run_cli(capsys, "weights", "--R", "1", "--q", "2", "--format", "json")
    assert code == 0
    w = json.loads(out)
    assert len(w) == 4
    code, out, _ = run_cli(capsys, "mayer", "--Ra", "1", "--Rb", "1", "--q", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["bond"] == pytest.approx(payload["step_hat_sum"], rel=1e-11)


def test_kernel_json(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--R", "1", "--q", "0.8", "--format", "json")
    assert code == 0
    k = np.array(json.loads(out))
    assert k.shape == (4, 4)


def test_profile_csv(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--R", "1", "--rmax", "2", "--points", "5",
        "--qmax", "80", "--panels", "4000",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 5
    assert float(rows[0][1]) == pytest.approx(1.0, abs=5e-3)
    assert float(rows[-1][1]) == pytest.approx(0.0, abs=5e-3)


def test_verify_fast_suites_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "metric")
    assert code == 0
    assert "metric: PASS" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert "0 mismatches" in out


def test_verify_errata_lists_b2_entry(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "metric", "--errata")
    assert code == 0
    assert "B2 transform, entry (3, 1)" in out
    assert "isometric products [B2, D2]" in out


@pytest.mark.parametrize("suite, name, fake", [
    ("mayer", "mayer_bond", lambda Ra, Rb, q: math.nan if q == 0.5 else mayer_bond(Ra, Rb, q)),
    ("profile", "step_profile", lambda R, radii, **kw: [math.nan] * len(radii)),
])
def test_verify_fails_on_nan(capsys, monkeypatch, suite, name, fake):
    monkeypatch.setattr(checks, name, fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 1
    assert out.startswith(f"{suite}: FAIL")


def _negated_w0(R, q, bk, _weights=flows._weights):
    column, s, c = _weights(R, q, bk)
    column[0] = -column[0]
    return column, s, c


@pytest.mark.parametrize("suite, plant, measure", [
    # the published B1 transform with the sign of its (0, 1) entry flipped
    ("flows", lambda m: m.setitem(flows._PUBLISHED, GeneratorId.B1, ("boost", 1, {**flows._PUBLISHED[GeneratorId.B1][2], (0, 1): (1, 1)})),
     "published entries off the ledger (exact)"),
    ("kernel", lambda m: m.setattr(flows, "_weights", _negated_w0), "kernel not a one-parameter group (exact)"),
    ("metric", lambda m: m.setattr(checks, "METRIC", matrices.IDENTITY), "nonzero tr M"),  # 1^2 = 1, tr 1 = 4
], ids=["flows", "kernel", "metric"])
def test_verify_fails_on_a_planted_exact_fault(capsys, monkeypatch, suite, plant, measure):
    """The suites that state exact counts, where a NaN once failed them: a planted fault fails each, naming its count."""
    plant(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 1
    assert out.startswith(f"{suite}: FAIL ({measure} ")


def test_verify_mayer_reports_a_failed_volume_limit(capsys, monkeypatch):
    real = checks.mayer_bond
    monkeypatch.setattr(checks, "mayer_bond", lambda Ra, Rb, q: real(Ra, Rb, q) * (2 if q == 1e-6 else 1))
    code, out, _ = run_cli(capsys, "verify", "--suite", "mayer")
    assert code == 1
    assert out.startswith("mayer: FAIL (")
    assert "ok" not in out[len("mayer: FAIL ("):]
    assert "volume limit rel 1.00e+00, bound <= 1e-08" in out


def test_verify_evaluates_each_flow_once(capsys, monkeypatch):
    counts = collections.Counter()
    names = ((flows, "closed_flow"), (fmt, "kr_weights"), (matrices, "eval_rows"), (flows, "reference_discrepancies"))
    for owner, name in names:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name, kwargs.get("prec")] += 1
            return _original(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "fmspace"]:
            for attr in [a for a, value in vars(module).items() if value is original]:
                monkeypatch.setattr(module, attr, counting)
    closed_form = flows._closed_form

    def counting_closed_form(gid):
        form, rows = closed_form(gid)

        def counting_rows(tau, q, bk):
            counts["rows", "float" if bk is flows._FLOAT_BACKEND else "exact"] += 1
            return rows(tau, q, bk)

        return form, counting_rows

    monkeypatch.setattr(flows, "_closed_form", counting_closed_form)
    code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--errata")
    assert code == 0
    # flows: the 20 certificates, each rows builder once on the exact
    # backend, whose F the errata diff reuses and whose T1 the kernel check
    # reads; no float flow, no oracle and no prec-50 weight vector
    assert counts == {
        ("rows", "exact"): 20,
        ("kr_weights", None): 2 * 3 * 3 * 6,  # mayer: both radii of each pair, at 5 q and at 1e-6
        ("reference_discrepancies", None): 1,
    }


def test_verify_passes_repeat_the_same_table_work(capsys, monkeypatch):
    """Each pass multiplies at most the 241 distinct ordered table products and decomposes nothing; a second pass does the same work."""
    from fmspace import algebra, cli

    assert run_cli(capsys, "verify", "--suite", "all")[0] == 0  # fill the per-generator caches
    where = {"pass": 0, "suite": None}
    counts = collections.Counter()
    for name, check in list(cli._SUITES.items()):
        def tagged(*args, _name=name, _check=check, **kwargs):
            where["suite"] = _name
            return _check(*args, **kwargs)

        monkeypatch.setitem(cli._SUITES, name, tagged)
    matmul, decompose = Mat4.__matmul__, algebra.decompose

    def counting_matmul(self, other):
        counts[where["pass"], where["suite"], "matmul"] += 1
        return matmul(self, other)

    def counting_decompose(*args, **kwargs):
        counts[where["pass"], where["suite"], "decompose"] += 1
        return decompose(*args, **kwargs)

    monkeypatch.setattr(Mat4, "__matmul__", counting_matmul)
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "fmspace"]:
        for attr in [a for a, value in vars(module).items() if value is decompose]:
            monkeypatch.setattr(module, attr, counting_decompose)
    for n in (1, 2):
        where["pass"] = n
        assert run_cli(capsys, "verify", "--suite", "all")[0] == 0
    first = {key[1:]: v for key, v in counts.items() if key[0] == 1}
    second = {key[1:]: v for key, v in counts.items() if key[0] == 2}
    assert first == second
    assert first.get(("tables", "decompose"), 0) == 0
    assert 0 < first.get(("tables", "matmul"), 0) <= 241


def test_one_pass_forms_each_exact_fact_once(capsys, monkeypatch):
    """A verify pass forms each ordered catalog product at most once across tables and jeffrey, and each certificate once.

    The kernel check reads the flows check's T1 certificate.  A second pass
    forms them all again, and a suite run alone forms its own on every call.
    """
    from fmspace import algebra

    products, certificates = collections.Counter(), collections.Counter()
    product, certify = algebra._product, checks.certify

    def counting_product(x, y):
        products[x, y] += 1
        return product(x, y)

    def counting_certify(gid):
        certificates[gid] += 1
        return certify(gid)

    monkeypatch.setattr(algebra, "_product", counting_product)
    monkeypatch.setattr(checks, "certify", counting_certify)
    for _ in range(2):
        products.clear()
        certificates.clear()
        assert run_cli(capsys, "verify", "--suite", "all", "--errata")[0] == 0
        assert len(products) == 245 and set(products.values()) == {1}  # the tables' 241 and 4 [T_nu, One]
        assert certificates == {gid: 1 for gid in GeneratorId}
    for suite, counts, formed in (("jeffrey", products, 20), ("kernel", certificates, 1)):
        for _ in range(2):
            counts.clear()
            assert run_cli(capsys, "verify", "--suite", suite)[0] == 0
            assert len(counts) == formed and set(counts.values()) == {1}, suite


def test_a_fault_planted_between_two_passes_shows_in_the_second(capsys, monkeypatch):
    """No product or certificate of a pass outlives it: reversed catalog products and a flipped weight fail the next pass."""
    from fmspace import algebra

    assert run_cli(capsys, "verify", "--suite", "all", "--errata")[0] == 0
    product = algebra._product
    monkeypatch.setattr(algebra, "_product", lambda x, y: product(y, x))
    monkeypatch.setattr(flows, "_weights", _negated_w0)  # read by T1's rows
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--errata")
    assert code == 1
    failing = {line.split(":")[0] for line in out.splitlines() if ": FAIL (" in line}
    assert failing == {"tables", "flows", "kernel"}  # t0..t3 commute, so jeffrey's products do not move


def test_published_cells_are_multiplied_out_once_per_process(capsys, monkeypatch):
    """The tables check multiplies out each published cell once, and jeffrey reuses its shift cells; products are per pass."""
    from fmspace.algebra import Decomposition

    counts = collections.Counter()
    for cls, name in ((Decomposition, "reconstruct"), (Mat4, "__matmul__")):
        def counting(*args, _name=name, _original=getattr(cls, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cls, name, counting)
    reference_tables.multiplied_cell.cache_clear()
    runs = []
    for suite in ("tables", "jeffrey", "tables", "jeffrey"):
        counts.clear()
        assert run_cli(capsys, "verify", "--suite", suite)[0] == 0
        runs.append((suite, counts["reconstruct"], counts["__matmul__"]))
    # 180 distinct (text, basis, divisor) in the tables; of the 4 shift decompositions, "One" is among them
    assert runs == [("tables", 180, 241), ("jeffrey", 3, 20), ("tables", 0, 241), ("jeffrey", 0, 20)]


def test_second_verify_pass_parses_no_cell_and_samples_no_scalar_step(capsys, monkeypatch):
    """Each cell text is parsed once per process; the profile check takes the step spectrum as one array."""
    from fmspace import cli, fmt, reference_tables, ring

    assert run_cli(capsys, "verify", "--suite", "all")[0] == 0
    where = {"suite": None}
    counts = collections.Counter()
    for name, check in list(cli._SUITES.items()):
        def tagged(*args, _name=name, _check=check, **kwargs):
            where["suite"] = _name
            return _check(*args, **kwargs)

        monkeypatch.setitem(cli._SUITES, name, tagged)
    for original in (ring.parse_linear, fmt.step_hat):
        def counting(*args, _original=original, **kwargs):
            counts[where["suite"], _original.__name__] += 1
            return _original(*args, **kwargs)

        for module in (ring, reference_tables, fmt, checks):
            for attr in [a for a, value in vars(module).items() if value is original]:
                monkeypatch.setattr(module, attr, counting)
    assert run_cli(capsys, "verify", "--suite", "all")[0] == 0
    assert sum(n for (_suite, name), n in counts.items() if name == "parse_linear") == 0
    assert counts[("profile", "step_hat")] == 0
    assert counts[("mayer", "step_hat")] == 45  # the guard sees the calls it counts


@pytest.mark.parametrize("R", ["6e102", "5e102"])
def test_profile_overflowing_volume_exits_one(capsys, R):
    """R**3 overflows at 6e102 and 4 pi R^3 at 5e102: exit 1 with a message, not a traceback or a NaN profile.

    No grid of a radius that large is both free of aliasing and inside the float64 domain."""
    code, out, err = run_cli(capsys, "profile", "--R", R, "--rmax", "1", "--points", "2")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: the step profile at R = {float(R)!r} would alias: ")
    code, out, err = run_cli(capsys, "profile", "--R", R, "--rmax", "1", "--points", "2", "--qmax", "1e-100")
    assert (code, out) == (1, "")
    assert err == f"error: float64 underflow in the step transform at radius {float(R)!r}, q = 1e-100\n"


def test_jeffrey_failure_prints_the_mismatched_cell(capsys, monkeypatch):
    """A wrong published t_nu decomposition fails jeffrey on its cell [T_nu, One], and not the tables check."""
    spec = reference_tables.SHIFT_DECOMPOSITIONS
    cells = spec.cells[:1] + (("(F1 - H1)/2",),) + spec.cells[2:]
    monkeypatch.setattr(reference_tables, "SHIFT_DECOMPOSITIONS", dataclasses.replace(spec, cells=cells))
    code, out, _ = run_cli(capsys, "verify", "--suite", "jeffrey")
    assert code == 1
    assert out.startswith(
        "jeffrey: FAIL (36 cells, 1 mismatches\n"
        "    shift decompositions [T1, One]: expected 1/2 F1 - 1/2 H1, generated 1/2 F1 + "
    )
    assert out.count("\n") == 2
    assert run_cli(capsys, "verify", "--suite", "tables")[:2] == (0, "tables: PASS (599 cells, 0 mismatches)\n")


def test_shift_product_failure_fails_jeffrey_and_tables(capsys, monkeypatch):
    """Both checks hold the 32 shift-table cells, so `verify --suite jeffrey` alone catches a wrong one."""
    i = next(k for k, spec in enumerate(reference_tables.TABLES) if spec.name == "shift products")
    spec = reference_tables.TABLES[i]
    cells = [list(row) for row in spec.cells]
    cells[1][1] = "4pi T2"  # t1 t1 = 8 pi t2
    corrupted = dataclasses.replace(spec, cells=tuple(map(tuple, cells)))
    monkeypatch.setattr(reference_tables, "TABLES", reference_tables.TABLES[:i] + (corrupted,) + reference_tables.TABLES[i + 1 :])
    for suite, cells_checked in (("jeffrey", 36), ("tables", 599)):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 1
        assert out == (
            f"{suite}: FAIL ({cells_checked} cells, 1 mismatches\n"
            "    shift products [T1, T1]: expected 4 pi T2, generated 8 pi T2)\n"
        )


def test_domain_error_exit_one(capsys):
    code, _, err = run_cli(capsys, "eval", "--gen", "B1", "--param", "1", "--q", "-3")
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "eval", "--gen", "XYZ", "--param", "1", "--q", "1")
    assert code == 1


@pytest.mark.parametrize("argv, words", [
    (("eval", "--gen", "B1", "--param", "1000", "--q", "1"), "float64 overflow"),
    (("eval", "--gen", "F3", "--param", "1", "--q", "1e120"), "float64 overflow"),
    (("eval", "--gen", "T2", "--param", "1", "--q", "inf"), "wave number q must be finite"),
    (("eval", "--gen", "One", "--param", "1e308", "--q", "1", "--method", "series"), "float64 overflow"),
    (("weights", "--R", "inf", "--q", "1"), "radius must be finite"),
    (("kernel", "--R", "inf", "--q", "1"), "radius must be finite"),
    (("profile", "--R", "1", "--rmax", "-1", "--points", "3", "--panels", "10"), "r must be nonnegative"),
    (("eval", "--gen", "B1", "--param", "1", "--q", "1e308", "--method", "series"), "float64 overflow"),
    (("weights", "--R", "1", "--q", "1e308"), "float64 overflow in the weight vector"),
    (("weights", "--R", "1e308", "--q", "1e308"), "float64 overflow in the weight vector"),
    (("weights", "--R", "1", "--q", "1e100"), "float64 overflow in the weight vector"),
    (("mayer", "--Ra", "1", "--Rb", "1", "--q", "1e308"), "float64 overflow"),
    (("mayer", "--Ra", "1e200", "--Rb", "1e200", "--q", "1"), "float64 phase error in the weight vector at radius 1e+200, q = 1.0"),
    (("decompose", "--product", ""), "empty --product list"),
    (("eval", "--gen", "B1", "--param", "0.5", "--q", "1000"), "float64 overflow"),  # residual overflows
    (("eval", "--gen", "B1", "--param", "0.5", "--q", "1000", "--format", "json"), "float64 overflow"),
    (("decompose", "--json", str(DATA / "no_such_matrix.json")), "cannot read"),
    (("decompose", "--json", str(DATA / "bad_matrix_rows_5.json")), "a matrix must be"),
    (("decompose", "--json", str(DATA / "bad_matrix_list.json")), "a matrix must be"),
    (("decompose", "--json", str(DATA / "bad_matrix_zero_den.json")), "zero denominator"),
    (("weights", "--R", "1e200", "--q", "1e-200"), "float64 underflow in the weight vector at radius 1e+200, q = 1e-200"),
    (("mayer", "--Ra", "1e200", "--Rb", "1", "--q", "1e-200"), "float64 underflow in the weight vector at radius 1e+200"),
    # `kernel` has no --prec: its message ends at q, with no hint; `eval` names --prec
    (("kernel", "--R", "1e200", "--q", "1e-200"), "float64 underflow in exp(1e+200 * T1) at q = 1e-200\n"),
    (("eval", "--gen", "T1", "--param", "1e200", "--q", "1e-200"), "float64 underflow in exp(1e+200 * T1) at q = 1e-200; pass prec"),
    (("eval", "--gen", "T3", "--param", "1", "--q", "1e-110"), "float64 underflow in exp(1.0 * T3) at q = 1e-110; pass prec"),
    (("profile", "--R", "1", "--rmax", "2", "--points", "0"), "--points needs at least 1, got 0"),
    (("profile", "--R", "1", "--rmax", "2", "--points", "-3"), "--points needs at least 1, got -3"),
    (("kernel", "--R", "1", "--q", "1e100"), "float64 overflow in exp(1.0 * T1) at q = 1e+100\n"),
    (("profile", "--R", "1", "--rmax", "inf", "--points", "3", "--panels", "10"), "--rmax must be finite, got inf"),
    (("profile", "--R", "1", "--rmax", "nan", "--points", "1"), "--rmax must be finite, got nan"),
    # a negative number in exponent notation, or -inf, is a value, not an option name
    (("mayer", "--Ra", "1", "--Rb", "1", "--q", "-1e-3"), "wave number q must be positive"),
    (("weights", "--R", "-2E+1", "--q", "1"), "radius must be positive, got -20.0"),
    (("kernel", "--R", "1", "--q", "-inf"), "wave number q must be positive, got -inf"),
    (("profile", "--R", "1", "--rmax", "-1e0", "--points", "3", "--panels", "10"), "r must be nonnegative"),
    # the message of a KeyError, without its repr quotes
    (("decompose", "--product", "X9"), "error: unknown generator name 'X9'\n"),
    (("eval", "--gen", "X9", "--param", "1", "--q", "1"), "error: unknown generator name 'X9'\n"),
    # one point is r = 0 alone; the sign of --rmax is checked all the same
    (("profile", "--R", "1", "--rmax", "-1", "--points", "1"), "r must be nonnegative, got --rmax -1.0\n"),
    # Simpson's rule would alias the integrand's top frequency R + max r
    (("profile", "--R", "150", "--rmax", "170", "--points", "2"), "(R + max r) * qmax / panels = 3.2 is above 1"),
    (("profile", "--R", "1e100", "--rmax", "1", "--points", "2"), "would alias"),
    # the Gaussian window is under-resolved on fewer than 20 panels
    (("profile", "--R", "1", "--rmax", "0", "--points", "1", "--qmax", "8", "--panels", "8"), "at least 20 panels to resolve its window, got 8"),
    # past the phase bound, or with a power of q out of the normal floats, a float64 answer would miss 1e-9
    (("eval", "--gen", "T3", "--param", "1", "--q", "1e-106"), "float64 underflow in exp(1.0 * T3) at q = 1e-106; pass prec"),
    (("eval", "--gen", "D1", "--param", "0.1", "--q", "1e10", "--format", "json"),
     "float64 phase error in exp(0.1 * D1) at q = 10000000000.0: |param q^1| = 1e+09 is above the phase bound 70368.7; pass prec"),
    (("weights", "--R", "1e5", "--q", "1"), "float64 phase error in the weight vector at radius 100000.0, q = 1.0: |q R| = 100000 is above the phase bound 70368.7\n"),
    (("weights", "--R", "1e308", "--q", "1"), "float64 phase error in the weight vector at radius 1e+308, q = 1.0"),
    (("kernel", "--R", "1", "--q", "1e5"), "float64 phase error in exp(1.0 * T1) at q = 100000.0: |param q| = 100000 is above the phase bound 70368.7\n"),
    (("mayer", "--Ra", "5e4", "--Rb", "1", "--q", "2"), "float64 phase error in the weight vector at radius 50000.0, q = 2.0: |q R| = 100000"),
    # a term's q and pi are ints, its num and den ints or strings of one: nothing is truncated
    (("decompose", "--json", str(DATA / "bad_matrix_float_q.json")), "q must be an integer in ring term {'num': '1', 'den': '1', 'q': 1.5, 'pi': True}"),
    (("decompose", "--json", str(DATA / "bad_matrix_bool_pi.json")), "pi must be an integer in ring term"),
    (("decompose", "--json", str(DATA / "bad_matrix_decimal_num.json")), "num must be an integer in ring term {'num': '1.5'"),
    (("decompose", "--json", str(DATA / "bad_matrix_float_den.json")), "den must be an integer in ring term"),
    # a second term with the same powers, or a key to_json_dict never writes, would be dropped: a wrong answer
    (("decompose", "--json", str(DATA / "bad_matrix_duplicate_term.json")),
     "a second term with q = 0, pi = 0 in ring term {'num': '2', 'den': '1', 'q': 0, 'pi': 0}"),
    (("decompose", "--json", str(DATA / "bad_matrix_extra_key.json")), "unknown key 'junk' in a matrix"),
    (("decompose", "--json", str(DATA / "bad_matrix_extra_term_key.json")),
     "unknown key 'junk' in ring term {'num': '1', 'den': '1', 'q': 0, 'pi': 0, 'junk': 0}"),
])
def test_out_of_domain_input_exits_one_with_a_message(capsys, argv, words):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and words in err
    assert "--prec" not in err or argv[0] == "eval"  # only eval has --prec


def test_negative_exponent_value_reads_as_its_decimal(capsys):
    decimal = run_cli(capsys, "eval", "--gen", "B1", "--param", "-0.002", "--q", "1")
    assert decimal[0] == 0
    assert run_cli(capsys, "eval", "--gen", "B1", "--param", "-2e-3", "--q", "1") == decimal


@pytest.mark.parametrize("text", [
    "-1", "-0", "-1.", "-.5", "-1.5", "-2e-3", "-2E+3", "-1e5", "-.5e1", "-1.e1", "-1_000", "-1_0.5e1_0",
    "-inf", "-Infinity", "-NaN", "-nan",
    "-h", "-e5", "-1e", "-1e+", "-.", "-1_", "-1__0", "-_1", "-1e_5", "-infin", "-nanx", "--1", "-1.5.", "-0x10", "-1x",
])
def test_negative_float_pattern_is_what_float_reads(text):
    try:
        float(text)
    except ValueError:
        is_float = False
    else:
        is_float = True
    assert bool(cli._NEGATIVE_FLOAT.match(text)) == is_float


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--gen", "B1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--R=--", "--q=1"])  # argparse parses the value as []
    assert exc.value.code == 2


_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.builds(lambda x, sign: repr(sign * x), st.floats(min_value=1e300, max_value=1.7976931348623157e308), st.sampled_from([1, -1])),
    st.sampled_from(["inf", "-inf", "nan", "-nan", "1e308", "-1e308", "1e309", "5e-324", "0", "-0"]),
    st.text(alphabet="0123456789.e+-_xinfa ", max_size=8),
)
_NAMES = st.one_of(st.sampled_from([g.value for g in GeneratorId] + ["b0p", "F3'"]), st.text(max_size=4))
_FORMATS = st.sampled_from(["text", "json"])
# absent, small digit counts (below 1 too), or not an integer
_PRECS = st.one_of(st.none(), st.integers(-2, 40).map(str), st.sampled_from(["x", "1.5", "", "--", "1e3"]))


def _options(command, **values):
    return [command] + [f"--{k}={v}" for k, v in values.items() if v is not None]


_ARGV = st.one_of(
    st.builds(
        lambda gen, param, q, method, fmt, prec: _options("eval", gen=gen, param=param, q=q, method=method, format=fmt, prec=prec),
        _NAMES, _NUMBERS, _NUMBERS, st.sampled_from(["closed", "series"]), _FORMATS, _PRECS,
    ),
    st.builds(lambda R, q, fmt: _options("weights", R=R, q=q, format=fmt), _NUMBERS, _NUMBERS, _FORMATS),
    st.builds(lambda Ra, Rb, q: _options("mayer", Ra=Ra, Rb=Rb, q=q), _NUMBERS, _NUMBERS, _NUMBERS),
    st.builds(lambda R, q, fmt: _options("kernel", R=R, q=q, format=fmt), _NUMBERS, _NUMBERS, _FORMATS),
    st.builds(
        lambda names, basis: _options("decompose", product=",".join(names), basis=basis),
        st.lists(_NAMES, max_size=5), st.sampled_from(["full", "shift"]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_fuzzed_argv_exits_with_a_code(argv):
    """Finite, infinite, NaN, 1e308-scale and malformed inputs: exit 0, 1 or 2, no traceback."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().startswith("error: "), argv


# Positive magnitudes: the whole float64 range, and the moderate values most answers come from.
_MAGNITUDES = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.builds(lambda m, e: m * 10.0**e, st.floats(0.1, 10.0), st.integers(-8, 5)),
)
_SIGNED = st.builds(lambda x, sign: sign * x, _MAGNITUDES, st.sampled_from([1.0, -1.0]))
_ANSWERED = st.one_of(
    st.builds(lambda gen, param, q: _options("eval", gen=gen, param=repr(param), q=repr(q), format="json"),
              st.sampled_from([g.value for g in GeneratorId]), _SIGNED, _MAGNITUDES),
    st.builds(lambda R, q: _options("weights", R=repr(R), q=repr(q), format="json"), _MAGNITUDES, _MAGNITUDES),
    st.builds(lambda Ra, Rb, q: _options("mayer", Ra=repr(Ra), Rb=repr(Rb), q=repr(q), format="json"), _MAGNITUDES, _MAGNITUDES, _MAGNITUDES),
    st.builds(lambda R, q: _options("kernel", R=repr(R), q=repr(q), format="json"), _MAGNITUDES, _MAGNITUDES),
)


def _flow_power(i: int) -> int:
    """The power of q that flat entry i = 4 mu + nu of a flow carries: nu - mu."""
    return i % 4 - i // 4


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_ANSWERED)
def test_every_float_answer_is_within_the_bound_of_prec_60(argv):
    """An exit-0 `eval`, `weights`, `mayer` or `kernel` answer, read back from its JSON, is within 1e-9 of prec 60.

    The measure README states: max|f - ref| / (1 + max|ref|) in the graded
    frame (`tests/test_domain.py`), and unscaled as well where the phase is
    at most 1.  A bond or step value is measured in the norm of the weight
    column of Ra + Rb.  `eval`'s invariance residual is a float64 diagnostic
    of the printed matrix, not an answer, and is not judged.
    """
    import mpmath

    code, out, _err = _call(argv)
    if code != 0:
        return
    command = argv[0]
    values = dict(arg[2:].split("=", 1) for arg in argv[1:])
    payload = json.loads(out)
    if command == "mayer":
        Ra, Rb, q = (float(values[k]) for k in ("Ra", "Rb", "q"))
        total = mpmath.mpf(Ra) + mpmath.mpf(Rb)
        column = _column_reference(total, q)
        for value in (payload["bond"], payload["step_hat_sum"]):
            graded, plain = _w3_measures(value, column, q)
            assert graded <= TOL and (plain <= TOL or total * q > 1), (argv, graded, plain)
        return
    if command == "eval":
        gid, tau, q = GeneratorId(values["gen"]), float(values["param"]), float(values["q"])
        answer, reference, power = payload["matrix"], flows.closed_flow(gid, tau, q, prec=PREC), _flow_power
        small = _phase(flows._closed_form(gid)[0], tau, q) <= 1
    elif command == "weights":
        R, q = float(values["R"]), float(values["q"])
        answer, reference, power = payload, kr_weights(R, q, prec=PREC), lambda nu: -nu
        small = R * q <= 1
    else:
        R, q = float(values["R"]), float(values["q"])
        answer, reference, power = payload, flows.closed_flow(GeneratorId.T1, R, q, prec=PREC), _flow_power
        small = R * q <= 1
    graded, plain = _measures(np.ravel(answer).tolist(), np.ravel(reference).tolist(), q, power)
    assert graded <= TOL and (plain <= TOL or not small), (argv, graded, plain)


def _call(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process `cli.main` call, a usage error's SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_the_shared_parser_gives_what_a_fresh_one_gives():
    """`build_parser` is built once per process: calls in sequence read as each call on a parser built for it."""
    sequence = (
        ["verify", "--suite", "tables"],
        ["eval", "--gen", "B1", "--param", "-1e-3", "--q", "2"],
        ["eval", "--gen", "B1", "--param"],  # a usage error, exit 2
        ["verify", "--suite", "all", "--errata"],
    )
    shared = [_call(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(_call(argv))
    assert [code for code, _out, _err in shared] == [0, 0, 2, 0]
    assert shared == fresh
    assert cli.build_parser() is cli.build_parser()


@pytest.fixture
def planted_catalog(monkeypatch):
    """Plant a catalog entry with `plant(gid, index)`; every cache built from the catalog is cleared around it."""
    from fmspace import algebra, catalog

    caches = (catalog.get_generator, reference_tables.multiplied_cell, algebra._inverse_norm, algebra._by_entry, flows._closed_form)

    def clear():
        for cache in caches:
            cache.cache_clear()

    def plant(gid, index):
        r, c, coef, *pows = catalog._ENTRIES[gid][index]
        flipped = list(catalog._ENTRIES[gid])
        flipped[index] = (r, c, -coef, *pows)
        monkeypatch.setitem(catalog._ENTRIES, gid, flipped)
        clear()

    clear()
    yield plant
    monkeypatch.undo()
    clear()


@pytest.mark.parametrize("gid", list(GeneratorId))
def test_a_flipped_catalog_entry_fails_verify_with_every_suite_line(planted_catalog, gid):
    """One entry's sign flipped in one catalog matrix: `verify --suite all` runs every suite and exits 1, with no error line.

    A square-class X so flipped has no closed form, and the flows check counts all 16 entries of its F.
    """
    real_closed_forms = {g: flows._closed_form(g) for g in GeneratorId}
    planted_catalog(gid, 0)
    code, out, err = _call(["verify", "--suite", "all"])
    assert code == 1
    assert err == ""
    suites = [line.split(": ")[0] for line in out.splitlines() if not line.startswith(" ")]
    assert suites == list(checks.CHECKS)
    assert out.startswith("tables: FAIL (")
    if getattr(real_closed_forms[gid][1], "func", None) is flows._square_rows:  # X^2 is no longer +-q^(2 alpha) 1
        assert f"\nflows: FAIL (no closed form for {gid.value}; closed forms not exp(tau X) (exact) 1.60e+01, " in out


def test_eval_names_a_generator_without_a_closed_form(planted_catalog):
    """A flipped entry leaves D1's square off +-q^2 1: `eval` exits 1 naming that, and does not offer --prec."""
    planted_catalog(GeneratorId.D1, 0)
    for extra in ([], ["--prec", "20"]):
        code, out, err = _call(["eval", "--gen", "D1", "--param", "1", "--q", "1", *extra])
        assert (code, out) == (1, "")
        assert err == "error: D1 has no closed form: its square is not +-q^(2 alpha) times 1\n"
