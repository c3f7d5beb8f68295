"""Tests of the benchmark itself: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from homsphere import GroupKind, normalize_triple, spectrum, spectrum_up_to  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_tiny_and_emits_the_declared_metrics(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--scale", "0.05")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # counted per operation of the seeded batch, however many batches ran
    assert result["attempted"] == len(workloads.make_ops(workload, 3, 0.05))
    assert 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: {"unit": v["unit"]} for m, v in result["metrics"].items()} == {
        m["name"]: {"unit": m["unit"]} for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_declared_metrics_match_the_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: spec[:2] for name, spec in run.PER_LAYER.items()}


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_ops(w, 7, 0.1) == workloads.make_ops(w, 7, 0.1)
        assert workloads.make_ops(w, 7, 0.1) != workloads.make_ops(w, 8, 0.1)


def _entries(table):
    return [(e.value, e.multiplicity) for e in table.entries]


def test_oracle_accepts_a_correct_table_and_rejects_corrupted_ones():
    t, lam = (1.7, 1.2, 0.8), 120.0
    good = _entries(spectrum_up_to(lam, normalize_triple(*t), GroupKind.SU2))
    assert oracle.check_table(good, lam, t, "su2", 1e-8) == (None, True)

    merged = good[:3] + [(good[3][0], good[3][1] + good[4][1])] + good[5:]
    reason, documented = oracle.check_table(merged, lam, t, "su2", 1e-8)
    assert reason is not None and "multiplicity" in reason and documented is False

    shifted = good[:2] + [(good[2][0] * (1 + 1e-7), good[2][1])] + good[3:]
    assert oracle.check_table(shifted, lam, t, "su2", 1e-8)[0].startswith("entry 2 value")

    missing = good[:-1]
    assert "counting function" in oracle.check_table(missing, lam, t, "su2", 1e-8)[0]


def test_oracle_closed_forms_match_the_tridiagonal_solve():
    lam = 60.0
    round_law = oracle.cluster(oracle.contributions(lam, (1.3, 1.3, 1.3), "su2"), 1e-11)
    assert [m for _, m in round_law] == [(k + 1) ** 2 for k in range(len(round_law))]
    for t in ((2.0, 1.1, 1.1), (1.4, 1.4, 0.6)):
        closed = oracle.cluster(oracle.contributions(lam, t, "so3"), 1e-11)
        nudged = (t[0], t[1] * (1 + 1e-13), t[2])  # generic, solved by LAPACK
        solved = oracle.cluster(oracle.contributions(lam, nudged, "so3"), 1e-9)
        assert [m for _, m in closed] == [m for _, m in solved]
        assert all(abs(v - w) <= 1e-9 * max(1.0, v) for (v, _), (w, _) in zip(closed, solved))


def test_the_known_merge_defect_is_counted_as_a_strict_failure():
    # near-prolate triple at L = 80: the default cluster_tol merges pairs of
    # distinct eigenvalues, such as two near 68.54776 that are 2e-7 apart
    t, lam = (0.58297, 0.31466, 0.18775), 80.0
    with pytest.warns(spectrum.ClusterMergeWarning):
        table = spectrum_up_to(lam, normalize_triple(*t), GroupKind.SU2)
    reason, documented = oracle.check_table(_entries(table), lam, t, "su2",
                                            spectrum.DEFAULT_CLUSTER_TOL)
    assert reason is not None and "multiplicity" in reason
    assert documented is True


def test_command_check_rejects_tampered_output():
    argv = ["lambda1", "--a", "2.0", "--b", "1.0", "--c", "0.5", "--group", "su2"]
    status, out = workloads.run_op(("cli", argv))
    assert workloads.check_op(("cli", argv), (status, out)) == (None, True)
    value = json.loads(out)["results"]["value"]
    tampered = out.replace(f"{value:.17g}", f"{value * (1 + 1e-15):.17g}")
    assert tampered != out
    assert workloads.check_op(("cli", argv), (status, tampered))[1] is False
    assert workloads.check_op(("cli", argv), (2, out)) == ("exit status 2", False)


def test_tracer_records_nested_spans_and_restores_the_library():
    original = spectrum.spectrum_up_to
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.run_op(("spectrum", (1.7, 1.2, 0.8), "su2", 60.0))
    finally:
        tracer.uninstall()
    assert spectrum.spectrum_up_to is original
    stats = tracer.stats()
    top = stats["spectrum.spectrum_up_to"]
    assert top["calls"] == 1 and 0.0 < top["self_ms"] < top["ms"]
    assert stats["eigensolve.eigen_block"]["calls"] == len(
        [s for s in tracer.spans if s[2] == "eigensolve.eigen_block"])
    kept, computed = (tracer.counters[k] for k in
                      ("eigensolve.eigs_kept", "eigensolve.eigs_computed"))
    assert 0 < kept <= computed
    assert tracer.counters["spectrum.entries_out"] > 0
    assert all(s[1] == -1 or s[1] < i for i, s in enumerate(tracer.spans))


def test_tail_is_the_nearest_rank_percentile_with_its_count_beyond():
    samples = list(range(200, 0, -1))
    assert run.tail(samples, 95.0) == (190, 10)
    assert run.tail(samples, 90.0) == (180, 20)
    assert run.tail(list(range(1, 1001)), 99.0) == (990, 10)
