"""homsphere benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload deep --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the library from its
``src`` directory; without one it exits with status 2 and prints no result.
A run generates the workload's fixed batch of operations from the seed,
repeats the batch for ``--seconds`` (longer if the tail percentile still
has fewer than 10 samples beyond it), checks the first batch's outputs
with the oracle and every later batch against the first, and prints a
readable report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` is the
number of operations in the batch and ``failed`` the number of them that
raised, failed the oracle or changed output in a later batch, so both
depend on the seed alone.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds one traced batch and reports the
per-layer metrics.  A full record (environment, failures, tail percentile)
goes to ``.bench_out/`` in the checkout.  See README.md for the metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 9
# Start-up calibration (see README.md): before each set-up probe, a reference
# interpreter that imports a fixed set of standard-library modules is timed,
# and the probe's time is scaled by REFERENCE_STARTUP_S / (that time).
REFERENCE_STARTUP = (
    "import argparse, csv, dataclasses, decimal, email.mime.text, fractions, "
    "http.client, inspect, json, logging, pathlib, statistics, typing, unittest, "
    "xml.dom.minidom"
)
REFERENCE_STARTUP_S = 0.12
# Host-speed calibration (see README.md): a fixed pure-Python recurrence is
# timed between calls, at least every CALIBRATE_EVERY_S, and each call time
# is scaled by REFERENCE_S / (the kernel time interpolated at that call),
# i.e. expressed at the speed where the kernel takes REFERENCE_S.
REFERENCE_S = 200e-6
CALIBRATE_EVERY_S = 0.02
# tail percentile per workload (README.md says why); a run goes on past
# --seconds until at least TAIL_BEYOND samples lie beyond it
TAIL_PERCENTILE = {"deep": 90.0, "sweep": 95.0, "commands": 99.0}
TAIL_BEYOND = 10

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "call_p50_ms": ("ms", "lower"),
    "call_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# name -> (unit, better, the end-to-end metrics it should move, and where)
PER_LAYER = {
    "eigensolve.eigenvalues.ms": ("ms", "lower", "wall_s, call_tail_ms on deep; call_p50_ms on sweep"),
    "eigensolve.eigen_block.self_ms": ("ms", "lower", "wall_s, call_tail_ms on deep; call_p50_ms on sweep"),
    "eigensolve.tridiag_rows": ("count", "lower", "wall_s, call_tail_ms on deep; call_p50_ms on sweep"),
    "eigensolve.eigs_computed": ("count", "lower", "wall_s on deep"),
    "eigensolve.eigs_kept": ("count", "higher", "wall_s on deep"),
    "eigensolve.keep_ratio": ("ratio", "higher", "wall_s on deep"),
    "casimir.build_irrep_block.calls": ("count", "lower", "call_p50_ms on sweep"),
    "casimir.build_irrep_block.ms": ("ms", "lower", "call_p50_ms on sweep"),
    "casimir.casimir_matrix.calls": ("count", "lower", "call_p50_ms on sweep"),
    "spectrum.spectrum_up_to.self_ms": ("ms", "lower", "call_tail_ms on deep; fail_frac"),
    "spectrum.entries_out": ("count", "higher", "call_tail_ms on deep; fail_frac"),
    "spectrum.merge_warnings": ("count", "lower", "call_tail_ms on deep; fail_frac"),
    "spectrum.berger_spectrum_up_to.ms": ("ms", "lower", "call_p50_ms, call_tail_ms on commands"),
    "cli.main.self_ms": ("ms", "lower", "call_p50_ms, call_tail_ms on commands"),
    "cli.stdout_bytes": ("bytes", "lower", "call_p50_ms, call_tail_ms on commands"),
    "rigidity.recover_triple.ms": ("ms", "lower", "call_p50_ms on commands"),
    "rigidity.isospectral_check.self_ms": ("ms", "lower", "call_p50_ms on commands; call_tail_ms on sweep"),
    "geometry.diameter.ms": ("ms", "lower", "call_p50_ms on commands"),
    "geometry.lambda1_diam2.ms": ("ms", "lower", "call_p50_ms on commands"),
    "geometry.berger_lambda1_diam2_extrema.ms": ("ms", "lower", "call_tail_ms on commands"),
    "geometry.product_estimate.ms": ("ms", "lower", "call_p50_ms on commands"),
    "setup.import_ms": ("ms", "lower", "setup_s on every workload"),
    "setup.inputs_ms": ("ms", "lower", "setup_s on every workload"),
    "trace.overhead_frac": ("ratio", "lower", "none: the cost of tracing itself"),
}


def _kernel() -> int:
    """The calibration kernel: a Sturm-style pivot recurrence, 4,000 steps."""
    d, count = 1.0, 0
    for _ in range(4000):
        d = (1.5 - 0.37) - 0.25 / d
        if d < 0.0:
            count += 1
    return count


def calibrate() -> float:
    """Median of three timings of the calibration kernel, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Calibration marks along a phase, and raw times rescaled by them."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (when, kernel seconds)

    def mark(self, force: bool = False) -> None:
        """Time the kernel if forced or if the last mark is CALIBRATE_EVERY_S old."""
        t0 = time.perf_counter()
        if force or not self.marks or t0 - self.marks[-1][0] >= CALIBRATE_EVERY_S:
            kernel = calibrate()
            self.marks.append((0.5 * (t0 + time.perf_counter()), kernel))

    def scale(self, calls: list[tuple[float, float]]) -> list[float]:
        """Each call's (start, end) as a duration at the reference speed.

        The kernel time is interpolated linearly at the call's midpoint
        between the marks around it.
        """
        when = [m[0] for m in self.marks]
        out = []
        for start, end in calls:
            i = bisect.bisect(when, 0.5 * (start + end))
            if i == 0 or i == len(when):
                kernel = self.marks[min(i, len(when) - 1)][1]
            else:
                (w0, k0), (w1, k1) = self.marks[i - 1], self.marks[i]
                kernel = k0 + (k1 - k0) * (0.5 * (start + end) - w0) / (w1 - w0)
            out.append((end - start) * REFERENCE_S / kernel)
        return out


def _import_library():
    """Import homsphere from this checkout's src, refusing any other copy."""
    if not (SRC / "homsphere" / "__init__.py").is_file():
        print(f"error: no homsphere sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import homsphere.cli  # noqa: F401  (the import a CLI user pays for)

    if Path(sys.modules["homsphere"].__file__).resolve().parent != SRC / "homsphere":
        print("error: imported a homsphere outside this checkout", file=sys.stderr)
        raise SystemExit(2)


def _probe(args) -> int:
    """Child process: import, build the inputs, report when the first call could start."""
    t0 = time.perf_counter()
    _import_library()
    t1 = time.perf_counter()
    import workloads

    workloads.make_ops(args.workload, args.seed, args.scale)
    t2 = time.perf_counter()
    print(json.dumps({"ready": t2, "import_ms": 1e3 * (t1 - t0), "inputs_ms": 1e3 * (t2 - t1)}))
    return 0


def _measure_setup(args) -> dict:
    """Median over fresh interpreters of the time from launch to the first call.

    Each probe is scaled by the reference start-up timed just before it.
    """
    cmd = [sys.executable, __file__, "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", repr(args.scale)]
    runs = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_STARTUP], timeout=120, check=True)
        reference = time.perf_counter() - start
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        rec = json.loads(done.stdout.splitlines()[-1])
        raw = rec["ready"] - start
        runs.append((raw * REFERENCE_STARTUP_S / reference, raw, reference,
                     rec["import_ms"], rec["inputs_ms"]))
    return {
        "probes": runs,
        "setup_s": statistics.median(r[0] for r in runs),
        "raw_setup_s": statistics.median(r[1] for r in runs),
        "reference_startup_s": statistics.median(r[2] for r in runs),
        "setup.import_ms": statistics.median(r[3] for r in runs),
        "setup.inputs_ms": statistics.median(r[4] for r in runs),
    }


def _merge_warning_class():
    import homsphere.spectrum

    return getattr(homsphere.spectrum, "ClusterMergeWarning", None)


def _run_batch(ops, run_op, speed: HostSpeed, tracer=None) -> tuple[list, list, list]:
    """Run the batch once: outputs, raw call times, and the same at reference speed."""
    clock = time.perf_counter
    outs, calls = [], []
    for i, op in enumerate(ops):
        speed.mark()
        if tracer is not None:
            tracer.call_id = i
        t0 = clock()
        try:
            out = run_op(op)
        except Exception as exc:  # a call that raises is a counted failure
            out = ("raised", f"{type(exc).__name__}: {exc}")
        calls.append((t0, clock()))
        outs.append(out)
    speed.mark(force=True)
    return outs, [end - start for start, end in calls], speed.scale(calls)


def _timed_phase(ops, run_op, seconds: float, percentile: float) -> dict:
    """Repeat the batch for ``seconds`` and until the tail is well sampled.

    The first batch's outputs are kept; later batches record which outputs
    differ from them.
    """
    speed = HostSpeed()
    walls, raw_walls, samples, first, differs = [], [], [], None, []
    merge = _merge_warning_class()
    start = time.perf_counter()
    with warnings.catch_warnings():
        if merge is not None:
            warnings.simplefilter("ignore", merge)
        while True:
            outs, raw, scaled = _run_batch(ops, run_op, speed)
            walls.append(sum(scaled))
            raw_walls.append(sum(raw))
            samples += scaled
            if first is None:
                first = outs
            else:
                differs.append({i for i, (a, b) in enumerate(zip(outs, first)) if a != b})
            n = len(samples)
            if (time.perf_counter() - start >= seconds
                    and n - _rank(n, percentile) >= TAIL_BEYOND):
                break
    return {"walls": walls, "raw_walls": raw_walls, "samples": samples, "first": first,
            "differs": differs, "kernel_s": [k for _, k in speed.marks]}


def _traced_phase(ops, run_op) -> dict:
    """One batch under the tracer; ClusterMergeWarning is counted, not shown."""
    import tracing

    tracer = tracing.Tracer()
    merge = _merge_warning_class()
    with warnings.catch_warnings(record=True) as caught:
        if merge is not None:
            warnings.simplefilter("always", merge)
        tracer.install()
        try:
            outs, _, scaled = _run_batch(ops, run_op, HostSpeed(), tracer)
        finally:
            tracer.uninstall()
    if merge is not None:
        tracer.counters["spectrum.merge_warnings"] = sum(
            1 for w in caught if issubclass(w.category, merge))
    tracer.counters["cli.stdout_bytes"] = sum(
        len(out[1].encode()) for op, out in zip(ops, outs) if op[0] == "cli")
    return {"tracer": tracer, "wall": sum(scaled), "outs": outs}


def _rank(n: int, percentile: float) -> int:
    """Nearest-rank position (1-based) of a percentile among n samples."""
    return max(math.ceil(percentile / 100.0 * n), 1)


def tail(samples: list, percentile: float) -> tuple[float, int]:
    """The percentile's value and how many samples lie beyond it."""
    rank = _rank(len(samples), percentile)
    return sorted(samples)[rank - 1], len(samples) - rank


def layer_metrics(tracer, untraced_wall: float, traced_wall: float, setup: dict) -> dict:
    stats = tracer.stats()
    out = {}
    for name in PER_LAYER:
        func, _, stat = name.rpartition(".")
        if stat in ("calls", "ms", "self_ms"):
            out[name] = stats[func][stat] if func in stats else 0
        elif name in setup:
            out[name] = setup[name]
        else:
            out[name] = tracer.counters.get(name, 0)
    computed = tracer.counters.get("eigensolve.eigs_computed", 0)
    out["eigensolve.keep_ratio"] = (
        tracer.counters.get("eigensolve.eigs_kept", 0) / computed if computed else 0.0)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def _verdicts(ops, outputs, check_op) -> list[tuple[str | None, bool]]:
    out = []
    for op, output in zip(ops, outputs):
        if isinstance(output, tuple) and output[:1] == ("raised",):
            out.append((output[1], False))
        else:
            out.append(check_op(op, output))
    return out


def run(args) -> dict:
    setup = _measure_setup(args)
    import workloads

    ops = workloads.make_ops(args.workload, args.seed, args.scale)
    percentile = TAIL_PERCENTILE[args.workload]
    timed = _timed_phase(ops, workloads.run_op, args.seconds, percentile)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = _traced_phase(ops, workloads.run_op) if args.trace else None

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verdicts = _verdicts(ops, timed["first"], workloads.check_op)
    bad = {i for i, (reason, _) in enumerate(verdicts) if reason is not None}
    reps = len(timed["walls"])
    later = list(timed["differs"])
    if traced is not None:
        later.append({i for i, (a, b) in enumerate(zip(traced["outs"], timed["first"]))
                      if a != b})
    # Counted per operation of the seeded batch, not per repetition, so that
    # the counts depend on the seed alone and not on how many batches the
    # host's speed allowed within --seconds.
    attempted = len(ops)
    failed = len(bad.union(*later))
    correct = all(ok for _, ok in verdicts) and not any(later)

    wall = statistics.median(timed["walls"])
    tail_s, beyond = tail(timed["samples"], percentile)
    e2e = {
        "setup_s": setup["setup_s"],
        "wall_s": wall,
        "call_p50_ms": 1e3 * statistics.median(timed["samples"]),
        "call_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "env": environment(args),
        "end_to_end": e2e,
        "fail_frac": failed / attempted,
        "batch_ops": len(ops),
        "batches": reps,
        "batch_walls_s": timed["walls"],
        "raw": {"setup_s": setup["raw_setup_s"],
                "reference_startup_s": setup["reference_startup_s"],
                "wall_s": statistics.median(timed["raw_walls"]),
                "batch_walls_s": timed["raw_walls"]},
        "kernel_s": {"median": statistics.median(timed["kernel_s"]),
                     "min": min(timed["kernel_s"]), "max": max(timed["kernel_s"]),
                     "count": len(timed["kernel_s"])},
        "setup_probes": setup["probes"],
        "samples": len(timed["samples"]),
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "failures": [f"op {i} {ops[i][:1]}: {verdicts[i][0]}" for i in sorted(bad)],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    if traced is not None:
        tracer = traced["tracer"]
        record["per_layer"] = layer_metrics(tracer, wall, traced["wall"], setup)
        record["absent"] = tracer.absent
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    return record


def report(record: dict, trace: bool) -> dict:
    """Print the readable report; return the metrics of the final JSON line."""
    env = record["env"]
    print(f"homsphere bench  workload={env['workload']} seed={env['seed']} "
          f"seconds={env['seconds']} trace={int(trace)}")
    print("  env: " + ", ".join(f"{k}={env[k]}" for k in
                                ("python", "numpy", "scipy", "cpu", "nproc", "affinity")))
    print(f"  batch of {record['batch_ops']} calls, run {record['batches']} times; "
          f"{record['samples']} call samples; tail = p{record['tail_percentile']:g} "
          f"with {record['tail_beyond']} samples beyond")
    table = record["per_layer"] if trace else record["end_to_end"]
    units = PER_LAYER if trace else END_TO_END
    for name, value in table.items():
        print(f"  {name:42s} {value:>14.6g} {units[name][0]}")
    print(f"  {'fail_frac':42s} {record['fail_frac']:>14.6g} ratio  "
          f"({record['failed']} of {record['attempted']} operations)")
    for line in record["failures"][:5]:
        print(f"    {line}")
    if trace and record["absent"]:
        print("  absent (reported as 0): " + ", ".join(record["absent"]))
    return {name: {"value": value, "unit": units[name][0]} for name, value in table.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("deep", "sweep", "commands"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the batch size (tests use a tiny one)")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return _probe(args)
    _import_library()
    record = run(args)
    metrics = report(record, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
