import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homsphere
from homsphere import cli
from homsphere.cli import main
from homsphere.core import GroupKind, MetricTriple
from homsphere.geometry import berger_lambda1_diam2_extrema
from homsphere.oracle import low_irrep_eigenvalues
from homsphere.spectrum import lambda1_closed, spectrum_up_to


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_round_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--a", "1", "--b", "1", "--c", "1",
        "--group", "su2", "--lambda-max", "15",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1"
    assert record["command"] == "spectrum"
    entries = [(e["value"], e["multiplicity"]) for e in record["results"]["entries"]]
    assert entries == [(0.0, 1), (3.0, 4), (8.0, 9), (15.0, 16)]


def test_spectrum_stretched_first_positive(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--a", "3", "--b", "1", "--c", "1",
        "--group", "su2", "--lambda-max", "9",
    )
    assert code == 0
    entries = json.loads(out)["results"]["entries"]
    assert entries[1]["value"] == pytest.approx(8.0, rel=1e-15)
    assert entries[1]["multiplicity"] == 3


def test_spectrum_so3_round(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--a", "1", "--b", "1", "--c", "1",
        "--group", "so3", "--lambda-max", "9",
    )
    entries = [(e["value"], e["multiplicity"]) for e in json.loads(out)["results"]["entries"]]
    assert code == 0
    assert entries == [(0.0, 1), (8.0, 9)]


@pytest.mark.parametrize(
    "a,lam,last",
    [
        # the k = 3 eigenvalue as printed at --lambda-max 2e7: its block was cut off
        ("941.6055573859235", "13299315.385500833", "13299315.385500833,16,3"),
        # its copies round 1 ulp either side of the bound: 12 of them were counted
        ("0.0267785934910023", "0.025098257427472275", "0.025098257427472275,36,5"),
    ],
)
def test_round_spectrum_at_a_bound_equal_to_an_entry_is_complete(capsys, a, lam, last):
    code, out, _ = run_cli(
        capsys, "spectrum", "--a", a, "--b", a, "--c", a, "--group", "su2",
        "--lambda-max", lam, "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[-1] == last


def test_spectrum_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--a", "1", "--b", "1", "--c", "1",
        "--group", "su2", "--lambda-max", "8", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity,k_sources"
    assert lines[1] == "0,1,0"
    assert lines[2] == "3,4,1"
    assert lines[3] == "8,9,2"


def test_spectrum_berger_closed_form_matches_numeric(capsys):
    # a > b = c and both a = b > c shapes print the same bytes with the flag
    for a, b, c, group in [("2", "1", "1", "su2"), ("3", "3", "1", "su2"),
                           ("1.3", "1.3", "0.5", "so3")]:
        args = ["spectrum", "--a", a, "--b", b, "--c", c, "--group", group,
                "--lambda-max", "25", "--format", "csv"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args, "--berger-closed-form")
        assert code1 == code2 == 0
        assert out1 == out2


def test_output_is_byte_identical_across_runs(capsys):
    args = [
        "spectrum", "--a", "2.7", "--b", "1.31", "--c", "0.55",
        "--group", "su2", "--lambda-max", "40",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_numeric_output_round_trips(capsys):
    t = MetricTriple(2.7, 1.31, 0.55)
    _, out, _ = run_cli(
        capsys,
        "spectrum", "--a", "2.7", "--b", "1.31", "--c", "0.55",
        "--group", "su2", "--lambda-max", "40",
    )
    parsed = json.loads(out)["results"]["entries"]
    table = spectrum_up_to(40.0, t, GroupKind.SU2)
    assert len(parsed) == len(table.entries)
    for got, want in zip(parsed, table.entries):
        assert got["value"] == pytest.approx(want.value, rel=1e-12)
        assert got["multiplicity"] == want.multiplicity


def test_lambda1_command(capsys):
    code, out, _ = run_cli(
        capsys, "lambda1", "--a", "2", "--b", "1", "--c", "1", "--group", "su2"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results == {"value": 6.0, "multiplicity": 4, "regime": "SumDominates"}


def test_geometry_command(capsys):
    code, out, _ = run_cli(
        capsys, "geometry", "--a", "2", "--b", "1", "--c", "1", "--group", "su2"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["scalar_curvature"] == pytest.approx(7.5, rel=1e-15)
    assert results["volume"] == pytest.approx(math.pi**2, rel=1e-15)
    assert results["diameter"]["exact"] == pytest.approx(math.pi / math.sqrt(3), rel=1e-15)
    assert results["yamabe_gap"] == pytest.approx(2.25, rel=1e-15)


def test_estimate_command_point(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--a", "1", "--b", "1", "--c", "1", "--group", "su2"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["lambda1_diam2"]["lower"] == pytest.approx(3 * math.pi**2, rel=1e-15)
    assert results["lambda1_diam2"]["exact_point"] is True


def test_estimate_berger_extrema(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--berger-extrema")
    assert code == 0
    results = json.loads(out)["results"]
    report = berger_lambda1_diam2_extrema()
    assert results["min"] == pytest.approx(report.min_value, rel=1e-12)
    assert results["max"] == pytest.approx(3 * math.pi**2, rel=1e-12)


def test_product_command(capsys):
    code, out, _ = run_cli(capsys, "product", "--su2", "1,1,1", "--su2", "1,1,1")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["lambda1"] == 3.0
    assert results["diam2"]["lower"] == pytest.approx(2 * math.pi**2, rel=1e-15)
    assert results["product"]["lower"] == pytest.approx(6 * math.pi**2, rel=1e-15)


def test_rigidity_command_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "rigidity", "--a", "3.1", "--b", "1.7", "--c", "0.9", "--group", "so3"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["roundtrip_rel_err"] < 1e-9
    assert results["recovered_triple"] == pytest.approx([3.1, 1.7, 0.9], rel=1e-9)
    assert results["invariants"]["multiplicity"] == 3
    # a thin SU(2) metric: c^2 is split off a^2 and b^2 without cancellation
    code, out, _ = run_cli(
        capsys, "rigidity", "--a", "1", "--b", "1", "--c", "1e-6", "--group", "su2"
    )
    assert code == 0
    assert json.loads(out)["results"]["roundtrip_rel_err"] <= 1e-12


def test_geometry_of_a_thin_metric_with_finite_curvature(capsys):
    # (a/c)^2 = 1e310 overflows, while Scal = -2 (ab/c)^2 = -2e306 does not
    code, out, _ = run_cli(
        capsys, "geometry", "--a", "1", "--b", "1e-2", "--c", "1e-155", "--group", "su2"
    )
    assert code == 0
    assert json.loads(out)["results"]["scalar_curvature"] == pytest.approx(-2e306, rel=1e-15)


def test_rigidity_of_a_thin_metric_scales_to_a_finite_curvature(capsys):
    # lambda1 = 9.3e-4: scaled to [1, 4), Scal = -4.7e304 would reach -1.9e308
    triple = ("0.021560479293827695", "0.015211490393212417", "2.1490768618697476e-156")
    code, out, _ = run_cli(
        capsys, "rigidity", "--a", triple[0], "--b", triple[1], "--c", triple[2],
        "--group", "so3",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["roundtrip_rel_err"] <= 1e-15
    assert results["recovered_triple"] == pytest.approx(list(map(float, triple)), rel=1e-15)


def test_rigidity_with_lambda1_and_curvature_far_apart_round_trips(capsys):
    # lambda1 = 1.3e-192 and Scal = -8.4e303: no power-of-two scale brings
    # both near 1, and the z equation needs none
    triple = ("9.378564640743972e+125", "5.754525979001847e-97", "8.335200757708145e-123")
    code, out, _ = run_cli(
        capsys, "rigidity", "--a", triple[0], "--b", triple[1], "--c", triple[2],
        "--group", "su2",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["roundtrip_rel_err"] <= 1e-15
    assert results["recovered_triple"] == pytest.approx(list(map(float, triple)), rel=1e-15)


@pytest.mark.parametrize("group", ["su2", "so3"])
def test_rigidity_of_a_prolate_metric_whose_a_squared_overflows(capsys, group):
    # (1.5e154)^2 overflows, while v = 1.5e154, Scal = 8 and lambda1 = 8 do not
    code, out, err = run_cli(
        capsys, "rigidity", "--a", "1.5e154", "--b", "1", "--c", "1", "--group", group
    )
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["recovered_triple"] == [1.5e154, 1.0, 1.0]
    assert results["roundtrip_rel_err"] == 0.0


def test_rigidity_of_a_thin_metric_on_the_cubic_path(capsys):
    # multiplicity 4 with lambda1 = 2.1e-6: the cubic is solved at lambda1
    # in [1, 4), where its noise floor is set
    triple = ("0.0012439181670596115", "0.0007274974906688384", "1.3215241791093798e-160")
    code, out, _ = run_cli(
        capsys, "rigidity", "--a", triple[0], "--b", triple[1], "--c", triple[2],
        "--group", "su2",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["invariants"]["multiplicity"] == 4
    assert results["roundtrip_rel_err"] <= 1e-8


def test_rigidity_compare(capsys):
    code, out, _ = run_cli(
        capsys,
        "rigidity", "--a", "2", "--b", "1", "--c", "1", "--group", "su2",
        "--compare", "2.0001,1,1",
    )
    assert code == 0
    iso = json.loads(out)["results"]["isospectral"]
    assert iso["verdict"] == "distinct_spectra"
    assert iso["first_differing_index"] == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("group", ["su2", "so3"])
@pytest.mark.parametrize(
    "command",
    ["spectrum --lambda-max 40", "lambda1", "geometry", "estimate", "rigidity",
     "rigidity --compare 0.8,1.2,1.7001"],
)
def test_permuting_the_parameters_leaves_stdout_unchanged(capsys, command, group, fmt):
    # a permutation of (a, b, c) is an isometry: every order of the three
    # values prints the same bytes
    name, *rest = command.split()
    outs = set()
    for a, b, c in itertools.permutations(("1.7", "1.2", "0.8")):
        code, out, _ = run_cli(capsys, name, "--a", a, "--b", b, "--c", c, "--group", group,
                               "--format", fmt, *rest)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def _stub_criteria(monkeypatch, verdicts):
    # the real criteria run in tests/test_acceptance.py; these stubs check
    # only how `verify` reports them
    from homsphere import acceptance

    stubs = tuple(
        (lambda cid=cid, ok=ok: acceptance.CriterionResult(cid, f"stub {cid}", ok, "d"))
        for cid, ok in enumerate(verdicts, start=1)
    )
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stubs)


def test_verify_command_passes(capsys, monkeypatch):
    _stub_criteria(monkeypatch, [True] * 11)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:-1] == [f"PASS  criterion {i:2d}  stub {i}: d" for i in range(1, 12)]
    assert lines[-1] == "11/11 criteria passed"


def test_verify_command_fails(capsys, monkeypatch):
    _stub_criteria(monkeypatch, [True, False])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines == [
        "PASS  criterion  1  stub 1: d",
        "FAIL  criterion  2  stub 2: d",
        "1/2 criteria passed",
    ]


def _run_verify_in_child(prelude: str) -> subprocess.Popen:
    src = str(Path(homsphere.__file__).resolve().parents[1])
    code = f"import sys\n{prelude}\nfrom homsphere.cli import main\nsys.exit(main(['verify']))\n"
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_verify_reader_closing_early_exits_1_silently():
    stub = (
        "from homsphere import acceptance\n"
        "acceptance.ALL_CRITERIA = tuple(\n"
        "    (lambda i=i: acceptance.CriterionResult(i, 'stub', True, 'd')) for i in range(11)\n"
        ")"
    )
    proc = _run_verify_in_child(stub)
    proc.stdout.close()  # before the child can write, so its write fails
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == ""


def test_bound_violation_exit_1(capsys, monkeypatch):
    from homsphere.geometry import BoundViolation

    def escaped(lam, d, g):
        raise BoundViolation("lambda1*diam^2 interval [1.0, 2.0] escapes (pi^2, 8 pi^2]")

    monkeypatch.setattr(cli, "_lambda1_diam2_of", escaped)
    code, out, err = run_cli(
        capsys, "estimate", "--a", "2", "--b", "1", "--c", "1", "--group", "su2"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("internal error:")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,rows",
    [
        # b^2 overflows: the envelope puts every block k > 0 above the bound
        ("spectrum --a 1e154 --b 1e154 --c 1e154 --group su2 --lambda-max 10", ["0,1,0"]),
        # a^2 overflows at the caller's scale and decouples at the unit scale
        ("spectrum --a 1.5e154 --b 1 --c 1 --group su2 --lambda-max 10", ["0,1,0", "8,3,2"]),
        (
            "spectrum --a 1e160 --b 2 --c 1 --group so3 --lambda-max 200",
            ["0,1,0", "20,3,2", "60,5,4", "120,7,6", "200,9,8"],
        ),
    ],
)
def test_squares_overflowing_at_the_callers_scale_print_their_table(capsys, argv, rows):
    code, out, err = run_cli(capsys, *argv.split(), "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["value,multiplicity,k_sources", *rows]


@pytest.mark.parametrize(
    "argv,b,c,last_p",
    [
        # a^2 is inf at the unit scale (b in [1, 2)): only the d = 0 run is left
        ("spectrum --a 1e150 --b 1e-10 --c 1e-11 --group su2 --lambda-max 1e-16", 1e-10, 1e-11, 69),
        # a^2 is finite, but (k-2l)^2 a^2 overflows from d = 14 on
        ("spectrum --a 1e153 --b 1 --c 0.5 --group su2 --lambda-max 100", 1.0, 0.5, 5),
        # d^2 a^2 overflows from d = 2 on: both halves of block 2's even indices are +inf
        ("spectrum --a 1e154 --b 1.5 --c 1 --group su2 --lambda-max 45", 1.5, 1.0, 2),
    ],
)
def test_rows_overflowing_at_the_unit_scale_drop_out(capsys, argv, b, c, last_p):
    # a +inf row decouples exactly, so below the bound only the d = 0
    # entries 2p(p+1)(b^2 + c^2) of the even blocks k = 2p are left
    code, out, err = run_cli(capsys, *argv.split(), "--format", "csv")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(float(v), int(m), ks) for v, m, ks in rows] == [
        (2 * p * (p + 1) * (b * b + c * c), 2 * p + 1, str(2 * p)) for p in range(last_p + 1)
    ]


def test_large_representable_parameters_still_work(capsys):
    code, out, _ = run_cli(
        capsys, "lambda1", "--a", "1e160", "--b", "1", "--c", "1", "--group", "su2"
    )
    assert code == 0
    assert json.loads(out)["results"] == {"value": 8.0, "multiplicity": 3, "regime": "FourBC"}


@pytest.mark.parametrize("command", ["geometry", "rigidity"])
def test_curvature_near_1e154_is_representable(capsys, command):
    # Scal is about 6.3e154 here, while a^2 b^2 alone would overflow
    code, out, err = run_cli(
        capsys, command, "--a", "3e77", "--b", "1e77", "--c", "0.9e77", "--group", "su2"
    )
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    if command == "rigidity":
        assert results["roundtrip_rel_err"] < 1e-12
        results = results["invariants"]
    assert results["scalar_curvature"] == pytest.approx(6.2577777777777724e154, rel=1e-14)


def test_reader_closing_early_exits_1_without_traceback():
    src = str(Path(homsphere.__file__).resolve().parents[1])
    argv = "spectrum --a 1 --b 1 --c 1 --group su2 --lambda-max 30000".split()
    proc = subprocess.Popen(
        [sys.executable, "-m", "homsphere.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # before the child can write, so its write fails
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception" not in err


# The one place each documented edge input is checked: (exit status, argv,
# a regular expression that stderr matches in full).  "." stops at a line
# break, so ERROR is exactly one "error:" line.  Stdout is empty exactly
# when the status is not 0.
ERROR = r"error: .*\n"
RANGE = r"error: parameters out of floating-point range: .*\n"
VOLUME = (r"error: parameters out of floating-point range: volume = 2 pi\^2 / abc"
          r".* is outside the normal float range\n")
CAP = r"error: truncation bound .* needs more than 10000 blocks, cap is 10000\n"
USAGE = r"usage: homsphere(?s:.*)\nhomsphere.*: error: .*\n"
EDGE_INPUTS = [
    # NaN and infinite bounds
    (2, "spectrum --a 1.7 --b 1.2 --c 0.8 --group su2 --lambda-max nan", ERROR),
    (2, "spectrum --a 1.7 --b 1.2 --c 0.8 --group su2 --lambda-max inf", ERROR),
    (2, "spectrum --a 1.7 --b 1.2 --c 0.8 --group so3 --lambda-max inf", ERROR),
    (2, "rigidity --a 1 --b 1 --c 1 --group so3 --compare 1,1,1 --lambda-max nan", ERROR),
    # a comparison bound below the one the two tables need
    (2, "rigidity --a 1 --b 1 --c 1 --group su2 --compare 1,1,1 --lambda-max 1", ERROR),
    # finite bounds past K_CAP blocks, refused promptly: a cut-off walk that
    # never ends runs into the child's timeout instead of hanging the suite
    (3, "spectrum --a 1.7 --b 1.2 --c 0.8 --group su2 --lambda-max 1e308", CAP),
    (3, "spectrum --a 1 --b 1 --c 1 --group su2 --lambda-max 1e9",
     r"error: truncation bound 1000000000\.0 needs more than 10000 blocks, cap is 10000\n"),
    (3, "spectrum --a 1 --b 1 --c 1 --group su2 --lambda-max 1e300", CAP),
    (3, "rigidity --a 2 --b 1 --c 1 --group su2 --compare 2,1,1 --lambda-max 1e300", CAP),
    (3, "spectrum --a 1e10 --b 1e10 --c 1e10 --group su2 --lambda-max 1e300", CAP),
    (3, "spectrum --a 1 --b 1 --c 1e-30 --group su2 --lambda-max 1e12", CAP),
    # b^2 and c^2 underflow to 0, so the computed envelope of every block
    # is 0; the true K is about 5e39
    (3, "spectrum --a 1 --b 1e-170 --c 1e-200 --group su2 --lambda-max 1e-300", CAP),
    # parameters that are no metric, and flags that need or refuse others
    (2, "lambda1 --a -1 --b 1 --c 1 --group su2", ERROR),
    (2, "product --su2 1,1,nan", ERROR),
    (2, "rigidity --a 1 --b 1 --c 1 --group so3 --compare 1,1,inf", ERROR),
    (2, "spectrum --a 3 --b 2 --c 1 --group su2 --lambda-max 25 --berger-closed-form",
     r"error: .*equal parameters.*\n"),
    (2, "estimate --berger-extrema --a 3", ERROR),
    (2, "rigidity --a 2 --b 1 --c 1 --group su2 --lambda-max 12", ERROR),
    (2, "product", r"error: .*factor.*\n"),
    # a^2 overflowing at the unit scale (a/b = 1e160, b = c and generic)
    (0, "spectrum --a 1e150 --b 1e-10 --c 1e-10 --group su2 --lambda-max 1e-16", ""),
    (0, "spectrum --a 1e150 --b 1e-10 --c 1e-10 --group so3 --lambda-max 1e-16", ""),
    (0, "spectrum --a 1e150 --b 1e-10 --c 1e-11 --group su2 --lambda-max 1e-16", ""),
    # rows (k-2l)^2 a^2 overflowing while a^2 does not
    (0, "spectrum --a 1e153 --b 1 --c 0.5 --group su2 --lambda-max 100", ""),
    (0, "spectrum --a 1e154 --b 1.5 --c 1 --group su2 --lambda-max 45", ""),
    # tables whose a^2 overflows at the caller's scale (b = c and generic)
    (0, "spectrum --a 1.5e154 --b 1 --c 1 --group su2 --lambda-max 10", ""),
    (0, "spectrum --a 1e160 --b 2 --c 1 --group so3 --lambda-max 200", ""),
    # a table with K = 200, which plans and keeps 200 blocks
    (0, "spectrum --a 1e6 --b 1 --c 0.9 --group su2 --lambda-max 33000", ""),
    # K = 258, past _PLAN_K_MAX, whose blocks 257 and 258 are planned on
    # each call and not kept (258's odd block ends in a coupling with
    # sqrt 2 folded into its root)
    (0, "spectrum --a 1e4 --b 1 --c 0.5 --group su2 --lambda-max 17200", ""),
    # a^2 at the unit scale exactly 2^128 = _DECOUPLED, the largest the
    # solver takes, and the next float of a, which is read off the closed form
    (0, "spectrum --a 18446744073709551616 --b 1 --c 0.5 --group su2 --lambda-max 100", ""),
    (0, "spectrum --a 18446744073709555712 --b 1 --c 0.5 --group so3 --lambda-max 100", ""),
    # the tie a^2 - b^2 = b^2 - c^2 of the frame rule in casimir._squares,
    # which keeps the a frame
    (0, "spectrum --a 7 --b 5 --c 1 --group su2 --lambda-max 2000", ""),
    # an extreme oblate table, solved in the (c, a, b) frame
    (0, "spectrum --a 1 --b 0.9999999999999999 --c 1e-8 --group so3 --lambda-max 100", ""),
    # product windows whose lower end rounds to pi^2
    (0, "estimate --a 1e10 --b 1 --c 1e-10 --group su2", ""),
    (0, "estimate --a 1e10 --b 1 --c 1e-10 --group so3", ""),
    (0, "product --su2 1e10,1,1e-10", ""),
    (0, "product --so3 1e10,1,1e-10", ""),
    # a subnormal triple
    (2, "spectrum --a 1e-310 --b 1e-311 --c 1e-312 --group su2 --lambda-max 1", RANGE),
    (2, "lambda1 --a 1e-310 --b 1e-311 --c 1e-312 --group so3", RANGE),
    (2, "geometry --a 1e-310 --b 1e-311 --c 1e-312 --group su2", VOLUME),
    (2, "estimate --a 1e-310 --b 1e-311 --c 1e-312 --group su2", RANGE),
    (2, "rigidity --a 1e-310 --b 1e-311 --c 1e-312 --group su2", RANGE),
    # lambda1 squares to 0 (1e-170) or to a subnormal (1e-160): printing
    # that would give 0 with a Boundary tie, or a value short of digits
    (2, "lambda1 --a 1e-170 --b 1e-170 --c 1e-170 --group su2", RANGE),
    (2, "lambda1 --a 1e-170 --b 1e-170 --c 1e-170 --group so3", RANGE),
    (2, "lambda1 --a 1e-160 --b 1e-160 --c 1e-160 --group su2", RANGE),
    (2, "lambda1 --a 1e-160 --b 1e-160 --c 1e-160 --group so3", RANGE),
    # a^2 + b^2 + c^2 = 1.4e-319 is positive, but a subnormal keeps about
    # 5 digits, so the table is refused as lambda1 is
    (2, "spectrum --a 3e-160 --b 2e-160 --c 1e-160 --group su2 --lambda-max 1e-318",
     r"error: parameters out of floating-point range.*normal float range\n"),
    (2, "lambda1 --a 3e-160 --b 2e-160 --c 1e-160 --group su2",
     r"error: parameters out of floating-point range.*normal float range\n"),
    # results beyond the float range
    (2, "geometry --a 1e200 --b 1 --c 1e-200 --group su2", ERROR),
    (2, "geometry --a 1e150 --b 1 --c 1e-150 --group su2", ERROR),
    (2, "geometry --a 1e300 --b 1 --c 1e-300 --group so3", RANGE),  # Scal is -inf
    (2, "spectrum --a 1e-200 --b 1e-200 --c 1e-200 --group su2 --lambda-max 1", ERROR),
    (2, "lambda1 --a 1e200 --b 1e200 --c 1e200 --group su2", ERROR),
    (2, "estimate --a 1e300 --b 1e300 --c 1 --group su2", ERROR),
    (2, "estimate --a 1e200 --b 1e200 --c 1e200 --group so3", ERROR),
    (2, "estimate --a 1e-200 --b 1e-200 --c 1e-200 --group so3", ERROR),
    (2, "product --su2 1e300,1e300,1", ERROR),
    # a volume that would print as 0: abc is so small a subnormal that
    # 2 pi^2 / abc is +inf, or abc overflows
    (2, "geometry --a 1e-120 --b 1e-100 --c 1e-100 --group su2", VOLUME),
    (2, "geometry --a 1e120 --b 1e120 --c 1e120 --group su2", VOLUME),
    # an inverse map whose a^2 overflows at the caller's scale
    (0, "rigidity --a 1.5e154 --b 1 --c 1 --group su2", ""),
    (0, "rigidity --a 1.5e154 --b 1 --c 1 --group so3", ""),
    # a fingerprint whose Scal is -inf
    (2, "rigidity --a 1 --b 1 --c 1e-160 --group su2", RANGE),
    # every invariant is finite, but bringing v / lambda1 below 2^499 takes
    # P = lambda1 / 4 to 0, where the z equation divides by it
    (2, "rigidity --a 2e300 --b 1e-150 --c 1e-150 --group su2",
     r"error: parameters out of floating-point range: .*lambda1 / 4 is 0 once scaled.*\n"),
    (2, "rigidity --a 1e300 --b 1e-100 --c 1e-100 --group so3",
     r"error: parameters out of floating-point range: .*lambda1 / 4 is 0 once scaled.*\n"),
    # abc is one subnormal ulp, 4.9e-324, so v carries no digits of the metric
    (2, "rigidity --a 1.967167815186089e-72 --b 2.524406037927144e-106"
        " --c 5.066134399917201e-147 --group su2",
     r"error: parameters out of floating-point range: v = 4\.94.*\n"),
    # abc = 1e-460 is 0 in floats, which the fingerprint must not pass on
    # as a user's v = 0
    (2, "rigidity --a 1e-150 --b 1e-150 --c 1e-160 --group su2",
     r"error: parameters out of floating-point range: (?!.*must be positive).*abc.*\n"),
    (2, "rigidity --a 1e-150 --b 1e-150 --c 1e-160 --group so3",
     r"error: parameters out of floating-point range: (?!.*must be positive).*abc.*\n"),
    # verify runs on the standard library; its stderr holds only the eleven
    # known cluster merges of criterion 9 (ROADMAP item 2, KNOWN_MERGES in
    # tests/test_acceptance.py), and test_verify_needs_no_numpy reads its stdout
    (0, "verify", r"(?:[^\n]*: ClusterMergeWarning: merged near-degenerate [^\n]*\n){11}"),
    # argv that cli._read leaves to argparse, which rejects them (none, an
    # unknown command, a leftover argument, a float flag that is no float,
    # a format it does not know) or answers them (help)
    (2, "", USAGE),
    (2, "bogus", USAGE),
    (2, "lambda1 --a 1 --b 1 --c 1 --group su2 extra", USAGE),
    (2, "lambda1 --a x --b 1 --c 1 --group su2", USAGE),
    (2, "spectrum --a 1 --b 1 --c 1 --group su2 --lambda-max 10 --format xml", USAGE),
    (0, "lambda1 -h", ""),
]

# runs every row in-process, as `python -m homsphere.cli` would in a fresh
# interpreter on the standard library alone
_EDGE_CHILD = """
import contextlib, io, json, sys, traceback, warnings
for name in ("numpy", "scipy", "mpmath"):
    sys.modules[name] = None  # as if not installed
warnings.simplefilter("always")  # not once per process: every row shows its own
from homsphere.cli import main
outcomes = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse
            status = exc.code
        except Exception:
            traceback.print_exc()
            status = None
    outcomes.append((status, out.getvalue(), err.getvalue()))
json.dump(outcomes, sys.stdout)
"""


@pytest.fixture(scope="module")
def edge_outcomes():
    src = str(Path(homsphere.__file__).resolve().parents[1])
    argvs = [argv for _, argv, _ in EDGE_INPUTS]
    done = subprocess.run(
        [sys.executable, "-c", _EDGE_CHILD],
        input=json.dumps([argv.split() for argv in argvs]),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return dict(zip(argvs, json.loads(done.stdout)))


@pytest.mark.parametrize(
    "status, argv, stderr", EDGE_INPUTS, ids=[argv or "(none)" for _, argv, _ in EDGE_INPUTS]
)
def test_edge_input_ends_in_its_documented_status(edge_outcomes, status, argv, stderr):
    got, out, err = edge_outcomes[argv]
    assert "Traceback" not in err, err
    # an error names its reason, not Python's arithmetic message
    assert not re.search("division by zero|math domain error|float division", err), err
    assert (got, out != "") == (status, status == 0), err
    assert re.fullmatch(stderr, err), err


def test_verify_needs_no_numpy(edge_outcomes):
    status, out, _ = edge_outcomes["verify"]
    assert status == 0 and out.endswith("\n11/11 criteria passed\n"), out


# sha256 of stdout, taken from the output before the record path was shared
PINNED_STDOUT = {
    "spectrum --a 1 --b 1 --c 1 --group su2 --lambda-max 15":
        "db34becea622a2f2ec5af27df2ac74fd2813b7ae91a0d445d8b76e048cd08e17",
    "spectrum --a 1 --b 1 --c 1 --group su2 --lambda-max 15 --format csv":
        "e934b6da8f1578852d227898989519734ba893a267739e40106aef9f875447a2",
    "spectrum --a 2 --b 1 --c 1 --group su2 --lambda-max 40 --berger-closed-form --format csv":
        "7ce7a6f1c68b5d710dc633caa2db2e794abccaec158c67a2dff4c89cfd1c02bc",
    # generic triples: these two go through the tridiagonal solver; pinned
    # again when Newton finishing moved their values (by at most 4.9e-13
    # relative) to within 5e-16 of a 40-digit solve.  The su2 table, and the
    # one at --lambda-max 500 below, were pinned again when each coupling
    # became off sqrt(N): 14 of their 182 values moved, by at most 3 ulp,
    # and all stay within 4.2e-16 relative of a 40-digit solve with exact
    # entries.  Both were pinned again when Newton began from the perturbed
    # diagonal: 1 of the 52 and 2 of the 130 values moved, each by 1 ulp;
    # the worst error against the 40-digit solve stays at 4.7e-16 relative
    "spectrum --a 1.7 --b 1.2 --c 0.8 --group su2 --lambda-max 200":
        "46546eb4f2c7b2a672fb64b75e257c03a8b1ae157220c0eb23114636157d28cf",
    "spectrum --a 2 --b 1 --c 0.95 --group so3 --lambda-max 120 --format csv":
        "bc0540195bb9f27efc47f35618fad200f0027e29d492508dc2724c0051acec4e",
    "lambda1 --a 2 --b 1 --c 1 --group su2":
        "2afe9e677f96d804bc276291dacb53fdcd6c08de6d892af1a55b3048f98be176",
    "geometry --a 2 --b 1 --c 1 --group so3":
        "91373e9808b80e92b399ec6051a03416afea6593f42c587d540dab340efe5cd7",
    "geometry --a 2 --b 1 --c 1 --group so3 --format csv":
        "03aaa63b432d6155c15d412eb32fa564874c8ca921f2524e23e3907ce03e57d8",
    "estimate --a 2 --b 1 --c 1 --group su2":
        "c4b0c48aca9b3554111e8ef73663e405ae702ac2d690ac7e2cca78dc39154462",
    "estimate --berger-extrema":
        "dec85feb0df52f9df432c791857a491087799448e9757ad3168bdfa3563ea9eb",
    "product --su2 1,1,1 --su2 1,1,1 --so3 2,1,0.5":
        "4e98dfa2c65d572b086b010d0ad3ecef90fe21edfdab307fe45f019bc104555a",
    # Scal = 70/9 is the float nearest to it, printed 7.7777777777777777
    "rigidity --a 3 --b 1 --c 1 --group su2 --compare 3.0001,1,1 --lambda-max 12":
        "e37b93a2835fb13f1f5314607f2761c5986283f074b68c90f5ea6cdb0f3d451f",
    # entries from two irreps: 21 from k = (4, 6) and 45 from k = (6, 10),
    # so the "," join (JSON) and the ";" join (CSV) of k_sources are pinned
    "spectrum --a 1 --b 1 --c 0.5 --group su2 --lambda-max 60":
        "5cf91a1d854e9693d5be8667245f38f369495d55f35ea5840440f27e7ecb72ee",
    "spectrum --a 1 --b 1 --c 0.5 --group su2 --lambda-max 60 --format csv":
        "7643cebdd2a56e6b14d6b9095fc059e9beadb36b2f9f13785e42584a1eaa35ff",
    # list-valued results, flattened to indexed keys such as recovered_triple[0]
    "rigidity --a 3 --b 1 --c 1 --group su2 --format csv":
        "6cb435b95f0dcb7b48b64c21434dd4652c1663a3c799edeee67c3c28f4f7fd4b",
    "estimate --berger-extrema --format csv":
        "0edd2c1ba7ac9341cac4d0563b2fc668e8c55a66eefe9aa8093289816bee2ae4",
    # closed-form tables cut off at K = 130, the size of the benchmark's
    # spectra: both groups, both shapes (a = b > c and a > b = c), both
    # formats; 549 to 2,732 entries each
    "spectrum --a 2 --b 2 --c 1 --group su2 --lambda-max 18074.5 --berger-closed-form":
        "0c564e9fb3f2f3ab3bb060ea6e8ecf5398e02cd1762d6c4594465946c8db655f",
    "spectrum --a 2 --b 2 --c 1 --group su2 --lambda-max 18074.5 --berger-closed-form"
    " --format csv":
        "8b4d5cf93475c94ebfaf21d5ddaa52ca4165fda05993559b7b4107f1fc9cc175",
    "spectrum --a 1.9 --b 1 --c 1 --group su2 --lambda-max 17291.5 --berger-closed-form":
        "68a0f4558a9f54b588d52147f24bce3be625ebed13df71ec0b752fdc558a3d3d",
    "spectrum --a 1.9 --b 1 --c 1 --group su2 --lambda-max 17291.5 --berger-closed-form"
    " --format csv":
        "bbbe1aa132e969e2c497c938baad0084a255090724780635cd9ee8e14ab702d7",
    "spectrum --a 1.3 --b 1.3 --c 0.7 --group so3 --lambda-max 8786.03 --berger-closed-form":
        "090abba3e7bc53646a4c195135d3c9f49fd9998dfd6ea332ef0545e26e759e84",
    "spectrum --a 1.3 --b 1.3 --c 0.7 --group so3 --lambda-max 8786.03 --berger-closed-form"
    " --format csv":
        "64b89b442e4cc6a762bb087a8507a3e7fe176956fd19634e6ddda1dfa9dd047e",
    "spectrum --a 3.1 --b 1.7 --c 1.7 --group so3 --lambda-max 49972.4 --berger-closed-form":
        "7ec24d1afb7d2259cdd273afc6615c6775c4781e8e823315b4894d168a1f1abf",
    "spectrum --a 3.1 --b 1.7 --c 1.7 --group so3 --lambda-max 49972.4 --berger-closed-form"
    " --format csv":
        "cd2f8a1d62b0b2939e5b7e0358cab73b151e4efd69174d7f0528b868e9c8fc17",
    # the shape of the benchmark's spectrum commands: 1,944 entries (JSON)
    # and 1,414 entries (CSV), pinned before the rows were written from the
    # table's columns instead of its entries
    "spectrum --a 1.8 --b 1.8 --c 1 --group su2 --lambda-max 17876 --berger-closed-form":
        "7c1ec847b402b082047d035be9e198dcfdf847882b258ee94ef40c7c4c863b20",
    "spectrum --a 1.8 --b 1 --c 1 --group so3 --lambda-max 17292 --berger-closed-form"
    " --format csv":
        "705fefd670c767d46fbaea1f12f2abf700d3bf41f5127c3b6d4ec52788b91779",
    # generic, blocks up to k = 25, so thirteen odd-k blocks
    "spectrum --a 1.7 --b 1.2 --c 0.8 --group su2 --lambda-max 500":
        "64a358c5ee9a4dd369be291f0153888a039e00848a2773ff912b95562b49918e",
    # round: every diagonal run of the closed form meets the others at
    # k(k+2) a^2, so exact ties across runs are merged
    "spectrum --a 1 --b 1 --c 1 --group so3 --lambda-max 500 --berger-closed-form":
        "249e3bf32d3ab605fa11f1d26747bd334d5136eefceb140ef13a1d4551bacaf4",
    "spectrum --a 1 --b 1 --c 1 --group so3 --lambda-max 500 --berger-closed-form --format csv":
        "50ed9407ad98bada84c4b44779f6a6cda19c544e77738cb0afc516d3fb90477f",
    # the bound is the table's own last entry, 44.549999999999997 of
    # multiplicity 48 from k = 7 and k = 15
    "spectrum --a 0.9 --b 0.9 --c 0.3 --group su2 --lambda-max 44.55 --berger-closed-form":
        "fb43cba7c5db22d3aa02598d303f93e68890ede9825c642d20516ff650ca0d17",
    "spectrum --a 0.9 --b 0.9 --c 0.3 --group su2 --lambda-max 44.55 --berger-closed-form"
    " --format csv":
        "b8e1f060fc32d08806c160f7a46dbb610077f7d8a5b9aecedb87d12d179a9a38",
}


def _assert_pinned(capsys, argvs):
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv], argv


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_output_bytes_are_pinned(capsys, argv):
    _assert_pinned(capsys, [argv])


def test_shared_parser_gives_pinned_bytes_in_any_order_and_after_rejections(capsys):
    assert cli.build_parser() is cli.build_parser()
    order = sorted(PINNED_STDOUT)
    order = order[::2] + order[1::2]  # alternate subcommands and formats
    rejected = (["spectrum"], ["lambda1", "--a", "1", "--format", "xml"])
    for argv, argvs in zip(rejected, (order, order[::-1])):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        _assert_pinned(capsys, argvs)


def test_command_patched_after_the_first_call_takes_effect(capsys, monkeypatch):
    argv = "lambda1 --a 2 --b 1 --c 1 --group su2".split()
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "_cmd_lambda1", lambda args: ({"patched": True}, {"value": 1.5}))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["inputs"] == {"patched": True}
    assert json.loads(out)["results"] == {"value": 1.5}


_TRIPLE = "--a 2 --b 1 --c 1 --group su2"
# shell words: '' is an empty argument
DISPATCH_ARGVS = [
    "",
    "bogus",
    "-h",
    "--help",
    "spectrum",
    f"lambda1 {_TRIPLE} --bogus 1",
    f"lambda1 {_TRIPLE} extra",
    "lambda1 --a x --b 1 --c 1 --group su2",
    "lambda1 --a 2 --b 1 --c 1 --gr su2",
    "lambda1 --a=2 --b 1 --c 1 --group su2",
    f"lambda1 -- {_TRIPLE}",
    f"lambda1 {_TRIPLE} -- extra",
    f"lambda1 {_TRIPLE} --format csv --format json",
    "lambda1 -h",
    "lambda1 --a -1 --b 1 --c 1 --group su2",
    "lambda1 --a 2 --b 1 --c 1 --group su3",
    "product --su2 2,1,1 --su2 1.5,1,0.5",
    # the boundaries of cli._read: store_true and append flags, repeated
    # flags, values that start with "-" or that float reads oddly, help
    # after valid flags and a missing required flag
    f"spectrum {_TRIPLE} --lambda-max 10 --berger-closed-form",
    f"spectrum {_TRIPLE} --lambda-max 10",
    "estimate --berger-extrema",
    "estimate --berger-extrema --c nan",
    "product --su2 1,1,1 --so3 2,1,0.5 --su2 1,1,1",
    f"geometry {_TRIPLE} --format csv --format csv --group so3",
    "lambda1 --a -1e5 --b 1 --c 1 --group su2",
    f"rigidity {_TRIPLE} --compare -1,1,1",
    "lambda1 --a '' --b 1 --c 1 --group su2",
    "lambda1 --a 1_0 --b 1 --c 1 --group su2",
    "lambda1 --a nan --b 1 --c 1 --group su2",
    "lambda1 --a ' 1.5' --b 1 --c 1 --group su2",
    f"lambda1 {_TRIPLE} -h",
    "lambda1 --a 2 --b 1 --c 1",
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argparse(argv):
    return cli.build_parser().parse_args(argv)


def _parsed(parse, argv):
    """repr of the namespace (NaN equals itself there), or argparse's exit."""
    try:
        return repr(parse(argv))
    except SystemExit as exc:
        return exc.code


def _main_with(parse, argv):
    """main's status, stdout and stderr with cli._parse replaced by parse."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_parse", parse), \
            mock.patch.object(cli, "_cmd_verify", lambda: ("verified", 0)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _assert_read_as_argparse_would(argv):
    assert _parsed(cli._parse, argv) == _parsed(_argparse, argv)
    assert _main_with(cli._parse, argv) == _main_with(_argparse, argv)


@pytest.mark.parametrize("argv", DISPATCH_ARGVS)
def test_dispatch_matches_the_top_level_parser(argv):
    _assert_read_as_argparse_would(shlex.split(argv))


_ALL_FLAGS = sorted({flag for _, flags in cli._COMMANDS.values() for flag in flags})
_VALUES = ["1", "2.5", "-1", "-1e5", "", "nan", "1_0", " 1.5", "su2", "so3", "su3", "json",
           "csv", "xml", "1,1,1", "-1,1,1", "2,1,0.5"]


def _accepted(spec):
    """Values a flag takes: the start of an argv cli._read can read."""
    if "choices" in spec:
        return spec["choices"]
    return ["2", "1_0", " 1.5", "nan"] if spec.get("type") is float else ["1,1,1", "2,1,0.5"]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    flags = cli._COMMANDS.get(command, ("", {}))[1]
    items = []
    for flag, spec in flags.items():
        if spec.get("required") or draw(st.booleans()):
            value = [] if spec.get("action") == "store_true" else [draw(st.sampled_from(_accepted(spec)))]
            items.append([flag, *value])
    names = st.sampled_from(sorted(flags) or _ALL_FLAGS)
    values = st.sampled_from(_VALUES)
    noise = st.one_of(
        st.tuples(names, values).map(list),
        st.tuples(st.sampled_from(_ALL_FLAGS), values).map(list),
        names.map(lambda flag: [flag]),
        st.tuples(names, st.integers(3, 8)).map(lambda fn: [fn[0][:fn[1]]]),  # abbreviations
        st.tuples(names, values).map(lambda fv: ["=".join(fv)]),
        st.sampled_from(["--", "-h", *_VALUES]).map(lambda word: [word]),
    )
    items += draw(st.lists(noise, max_size=3))
    return [command, *itertools.chain.from_iterable(draw(st.permutations(items)))]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=_argvs())
def test_reader_equals_argparse(argv):
    _assert_read_as_argparse_would(argv)


# sha256 of each help text at 80 columns, taken before the parsers were
# built from cli._COMMANDS: (Python 3.10-3.12, 3.13), since 3.13's argparse
# wraps usage lines at other words
PINNED_HELP = {
    "-h": ("7e022ced9ec78958190e3b249325dbd7d5e534fbc0a22236667ea5f35313ded8",
           "4a07e134b144e1b1bea296129a14bec24fbe0756966f4a385fdaa87b4f3a3dc2"),
    "spectrum -h": ("bdfd93e046e26fde27787eeebcb6bcf519e1178dac043373725c21da76552d59",
                    "a519fa998aeb77a74a899171bb80b58797d206957e677d42ec2993fe968c381b"),
    "lambda1 -h": ("1543d087a7e94be2a1e4de219900536e7e0a9dc93ea3e080c8075ab852a4e276",
                   "1eff323cdc1f4f7a3c85d3469639491c44ee352b724488fc29c6b8cc86dc2d44"),
    "geometry -h": ("b1461b050744cc478f9469e9bff25d55bfdeabe79c32007648d12c23578b2946",
                    "f45b76f35674331ad49e20a6c83cbeb2af9a38f39a1b0c82c341a6d3c74aba61"),
    "estimate -h": ("d7d9279fe8c7ebb1889b6d91778ad4d540c035ef44c730cc68d64f35f62a52cd",
                    "d7d9279fe8c7ebb1889b6d91778ad4d540c035ef44c730cc68d64f35f62a52cd"),
    "rigidity -h": ("8cda021ad4893444ed5b271bc52225b436d0084481ee6e176255e45519a7844f",
                    "41b0cd29576e5664805f3db00716d48166858751a78defa0df6976c8289ded33"),
    "product -h": ("fcdf10ca7877af09042f68231fa85f6a7bd676cea2cd99ff5930fa6e2d13b112",
                   "fcdf10ca7877af09042f68231fa85f6a7bd676cea2cd99ff5930fa6e2d13b112"),
    "verify -h": ("eb58033c237dc6b02cd846a3771988846d3cfd29cb2f3834c078b612893a1b37",
                  "eb58033c237dc6b02cd846a3771988846d3cfd29cb2f3834c078b612893a1b37"),
}


@pytest.mark.skipif(sys.version_info >= (3, 14), reason="digests taken on Python 3.10-3.13")
@pytest.mark.parametrize("argv", sorted(PINNED_HELP))
def test_help_bytes_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _outcome(capsys, argv.split())
    assert code == 0
    digest = PINNED_HELP[argv][sys.version_info >= (3, 13)]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_well_formed_argvs_leave_the_parser_unbuilt(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_verify", lambda: ("verified", 0))
    cli.build_parser.cache_clear()
    for argv in [
        f"spectrum {_TRIPLE} --lambda-max 10 --berger-closed-form",
        f"lambda1 {_TRIPLE}",
        f"geometry {_TRIPLE} --format csv",
        "estimate --berger-extrema",
        f"rigidity {_TRIPLE} --compare 2,1,1 --lambda-max 12",
        "product --su2 1,1,1 --su2 2,1,0.5",
        "verify",
    ]:
        assert _outcome(capsys, argv.split())[0] == 0, argv
        assert cli.build_parser.cache_info().currsize == 0, argv
    for argv in ["lambda1 -h", "lambda1 --a 2 --b 1 --c 1 --group su3"]:
        cli.build_parser.cache_clear()
        _outcome(capsys, argv.split())
        assert cli.build_parser.cache_info().currsize == 1, argv


def _reference_json(obj) -> str:
    if isinstance(obj, dict):
        return "{%s}" % ",".join(json.dumps(k) + ":" + _reference_json(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(map(_reference_json, obj))
    return f"{obj:.17g}" if isinstance(obj, float) else json.dumps(obj)


def test_to_json_writes_the_bytes_of_json_dumps():
    texts = ["", "plain", "\u00e9t\u00e9 \u4e2d \U0001f600", 'say "hi"', "back\\slash",
             "\x00\x01\x1f\x7f\n\r\t\b\f", "\u2028"]
    ints = [0, 1, -7, 2**63, 2**63 + 1, -(2**70)]
    floats = [0.0, -0.0, 0.1, -2.5e-300, 1.7976931348623157e308, 5e-324]
    scalars = [*texts, *ints, True, False, None, *floats]
    obj = {
        "scalars": scalars,
        "by_key": {text: value for text, value in zip(texts, scalars[::-1])},
        "nested": [[], {}, [None, [True, {"x": [False, -1, 0.5]}]], {"": {"y": ""}}],
        "pair": (1, "two"),
    }
    text = cli._to_json(obj)
    assert text == _reference_json(obj)
    assert text.isascii()
    assert json.loads(text) == {**obj, "pair": [1, "two"]}


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


def _reference_csv(results: dict) -> str:
    lines = ["key,value"]

    def walk(path, obj):
        if isinstance(obj, dict):
            for key, val in obj.items():
                walk(f"{path}.{key}" if path else key, val)
        elif isinstance(obj, (list, tuple)):
            for i, val in enumerate(obj):
                walk(f"{path}[{i}]", val)
        else:
            lines.append(f"{path},{obj:.17g}" if isinstance(obj, float) else f"{path},{obj}")

    walk("", results)
    return "\n".join(lines)


# keys and leaves of any record the writers take: escaped text, ints past 64
# bits, bools, None, -0.0 and subnormals, and subclasses of str, int and float;
# "entries" is left out, since the CSV writer takes it for a spectrum's table
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    st.text(), st.integers(), st.sampled_from([2**63, -(2**63) - 1, -0.0, 5e-324, 1e-310]),
    st.booleans(), st.none(), _FINITE,
    st.text().map(_Str), st.integers().map(_Int), _FINITE.map(_Float),
)
_KEYS = st.text().filter(lambda key: key != "entries")
_VALUES_OF_RECORDS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4),
), max_leaves=12)
_RECORDS = st.dictionaries(_KEYS, _VALUES_OF_RECORDS, max_size=5)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(record=_RECORDS)
def test_writers_equal_their_references(record):
    assert cli._to_json(record) == _reference_json(record)
    assert cli._record_to_csv(record) == _reference_csv(record)


def test_csv_writes_key_paths_and_python_spellings():
    results = {"a": {"b": [1.5, True], "c": (None, False)}, "d": 0.1, "e": -0.0, "f": "x",
               "g": {}, "h": [], "i": [[2**63]]}
    assert cli._record_to_csv(results) == "\n".join([
        "key,value", "a.b[0],1.5", "a.b[1],True", "a.c[0],None", "a.c[1],False",
        "d,0.10000000000000001", "e,-0", "f,x", "i[0][0],9223372036854775808",
    ])
    assert cli._record_to_csv(results) == _reference_csv(results)


@st.composite
def _records_with_a_non_finite_leaf(draw):
    kind = draw(st.sampled_from([float, _Float]))
    value = kind(draw(st.sampled_from([math.inf, -math.inf, math.nan])))
    for _ in range(draw(st.integers(0, 4))):
        siblings = draw(st.lists(_VALUES_OF_RECORDS, max_size=2))
        siblings.insert(draw(st.integers(0, len(siblings))), value)
        value = draw(st.sampled_from([
            list, tuple, lambda vals: {f"k{i}": val for i, val in enumerate(vals)},
        ]))(siblings)
    return {"results": value}


@settings(max_examples=50, derandomize=True, deadline=None)
@given(record=_records_with_a_non_finite_leaf())
def test_writers_reject_a_non_finite_leaf_at_any_depth(record):
    with pytest.raises(OverflowError):
        cli._to_json(record)
    with pytest.raises(OverflowError):
        cli._record_to_csv(record)


def test_generic_table_low_irreps_match_closed_forms(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--a", "1.7", "--b", "1.2", "--c", "0.8", "--group", "su2",
        "--lambda-max", "200",
    )
    assert code == 0
    closed = low_irrep_eigenvalues(MetricTriple(1.7, 1.2, 0.8))
    entries = json.loads(out)["results"]["entries"]
    for k in (0, 1, 2):
        got = [e["value"] for e in entries if e["k_sources"] == [k]]
        assert len(got) == len(set(closed[k]))
        for value, want in zip(got, sorted(set(closed[k]))):
            assert abs(value - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--a", "1e10", "--b", "1", "--c", "1e-10", "--group", "su2"],
        ["estimate", "--a", "1e10", "--b", "1", "--c", "1e-10", "--group", "so3"],
        ["product", "--su2", "1e10,1,1e-10"],
        ["product", "--so3", "1e10,1,1e-10"],
    ],
)
def test_product_window_whose_lower_end_rounds_to_pi2_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    window = "lambda1_diam2" if argv[0] == "estimate" else "product"
    assert json.loads(out)["results"][window]["lower"] == math.pi**2


@pytest.mark.parametrize("group", ["su2", "so3"])
def test_spectrum_whose_a_squared_overflows_at_unit_scale_exits_0(capsys, group):
    argv = ["spectrum", "--a", "1e150", "--b", "1e-10", "--c", "1e-10", "--group", group,
            "--format", "csv", "--lambda-max"]
    code, out, err = run_cli(capsys, *argv, "1e-16")
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert len(rows) == 50 and rows[0] == "0,1,0"
    code, out, _ = run_cli(capsys, *argv, "8.1e-20")  # just above 4(b^2 + c^2) = 8e-20
    assert code == 0
    assert out.splitlines()[1:] == ["0,1,0", "8.0000000000000008e-20,3,2"]
