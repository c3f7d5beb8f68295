import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homsphere
from homsphere.cli import main
from homsphere.core import GroupKind, MetricTriple
from homsphere.geometry import berger_lambda1_diam2_extrema
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


def test_spectrum_berger_closed_form_rejects_generic(capsys):
    code, _, err = run_cli(
        capsys,
        "spectrum", "--a", "3", "--b", "2", "--c", "1",
        "--group", "su2", "--lambda-max", "25", "--berger-closed-form",
    )
    assert code == 2
    assert "equal parameters" in err


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


def test_product_requires_factors(capsys):
    code, _, err = run_cli(capsys, "product")
    assert code == 2
    assert "factor" in err


def test_rigidity_command_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "rigidity", "--a", "3.1", "--b", "1.7", "--c", "0.9", "--group", "so3"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["roundtrip_rel_err"] < 1e-9
    assert results["recovered_triple"] == pytest.approx([3.1, 1.7, 0.9], rel=1e-9)
    assert results["invariants"]["multiplicity"] == 3


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


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "lambda1", "--a", "-1", "--b", "1", "--c", "1", "--group", "su2"
    )
    assert code == 2
    assert "error" in err


def test_cutoff_cap_exit_3(capsys):
    code, _, err = run_cli(
        capsys,
        "spectrum", "--a", "1", "--b", "1", "--c", "1",
        "--group", "su2", "--lambda-max", "1e9",
    )
    assert code == 3
    assert "cap is 10000" in err


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


SPECTRUM_GENERIC = [
    "spectrum", "--a", "1.7", "--b", "1.2", "--c", "0.8", "--group", "su2",
]


@pytest.mark.parametrize("bound", ["inf", "nan"])
def test_non_finite_lambda_max_exit_2(capsys, bound):
    code, out, err = run_cli(capsys, *SPECTRUM_GENERIC, "--lambda-max", bound)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_nonconvergence_exit_1(capsys, monkeypatch):
    from homsphere import NonConvergence, eigensolve

    def stuck(block):
        raise NonConvergence(f"eigenvalue 0 of a {block.n}x{block.n} block did not converge")

    monkeypatch.setattr(eigensolve, "eigenvalues", stuck)
    code, _, err = run_cli(capsys, *SPECTRUM_GENERIC, "--lambda-max", "20")
    assert code == 1
    assert err.startswith("internal error:")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "geometry --a 1e200 --b 1 --c 1e-200 --group su2",
        "spectrum --a 1e-200 --b 1e-200 --c 1e-200 --group su2 --lambda-max 1",
        "rigidity --a 1e60 --b 1 --c 1e-60 --group su2",
        "geometry --a 1e150 --b 1 --c 1e-150 --group su2",
        "lambda1 --a 1e200 --b 1e200 --c 1e200 --group su2",
        "spectrum --a 1e154 --b 1e154 --c 1e154 --group su2 --lambda-max 10",
        "spectrum --a 1.5e154 --b 1 --c 1 --group su2 --lambda-max 10",
        "spectrum --a 1e154 --b 1.5 --c 1 --group su2 --lambda-max 45",
        "estimate --a 1e300 --b 1e300 --c 1 --group su2",
        "estimate --a 1e200 --b 1e200 --c 1e200 --group so3",
        "estimate --a 1e-200 --b 1e-200 --c 1e-200 --group so3",
        "product --su2 1e300,1e300,1",
    ],
)
def test_parameters_beyond_float_range_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_large_representable_parameters_still_work(capsys):
    code, out, _ = run_cli(
        capsys, "lambda1", "--a", "1e160", "--b", "1", "--c", "1", "--group", "su2"
    )
    assert code == 0
    assert json.loads(out)["results"] == {"value": 8.0, "multiplicity": 3, "regime": "FourBC"}


@pytest.mark.parametrize(
    "argv",
    [
        "spectrum --a 1 --b 1 --c 1 --group su2 --lambda-max 1e300",
        "rigidity --a 2 --b 1 --c 1 --group su2 --compare 2,1,1 --lambda-max 1e300",
        "spectrum --a 1e10 --b 1e10 --c 1e10 --group su2 --lambda-max 1e300",
        "spectrum --a 1 --b 1 --c 1e-30 --group su2 --lambda-max 1e12",
    ],
)
def test_huge_finite_bound_exits_3_promptly(argv):
    # in a subprocess, so that a cut-off walk that never ends fails this test
    # instead of hanging the suite
    src = str(Path(homsphere.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "homsphere.cli", *argv.split()],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and "cap is" in proc.stderr


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


# sha256 of stdout, taken from the output before the record path was shared
PINNED_STDOUT = {
    "spectrum --a 1 --b 1 --c 1 --group su2 --lambda-max 15":
        "db34becea622a2f2ec5af27df2ac74fd2813b7ae91a0d445d8b76e048cd08e17",
    "spectrum --a 1 --b 1 --c 1 --group su2 --lambda-max 15 --format csv":
        "e934b6da8f1578852d227898989519734ba893a267739e40106aef9f875447a2",
    "spectrum --a 2 --b 1 --c 1 --group su2 --lambda-max 40 --berger-closed-form --format csv":
        "7ce7a6f1c68b5d710dc633caa2db2e794abccaec158c67a2dff4c89cfd1c02bc",
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
    "rigidity --a 3 --b 1 --c 1 --group su2 --compare 3.0001,1,1 --lambda-max 12":
        "dc5f1ac2b31088a033d05163cdfb04263153621a3ece4c06f682f8f945209a22",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_output_bytes_are_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]
