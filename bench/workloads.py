"""Seeded workload inputs, the calls that run them, and their checks.

An operation is a plain tuple built from the seed alone:

* ``("spectrum", (a, b, c), group, lam_max)`` runs ``spectrum_up_to``;
* ``("isospectral", t1, t2, group, lam_max)`` runs ``isospectral_check``;
* ``("cli", argv)`` runs ``homsphere.cli.main(argv)`` in-process with
  stdout captured.

The library sees only these generated inputs.  Calls go through module
attributes (``spectrum.spectrum_up_to``), so the traced run's wrappers,
which replace those attributes, see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random

from homsphere import cli, core, geometry, rigidity, spectrum

WORKLOADS = ("deep", "sweep", "commands")

# deep: block count K per call (SO(3) solves only even k, so it gets about
# 2^(1/3) more to cost the same); each call then takes roughly 0.05-0.1 s
DEEP_K = {"su2": 44, "so3": 56}
# deep: calls per batch for each group, by triple shape
DEEP_SHAPES = {"generic": 6, "near_prolate": 3, "near_oblate": 3}
# sweep: spectrum calls per group for each class, and isospectral pairs.
# Generic triples get the largest share so that the median call lies inside
# their spread of costs, not on the edge between the fast diagonal classes
# (round, a>b=c) and the tridiagonal ones.
SWEEP_MIX = {"round": 200, "berger_ab": 200, "berger_bc": 200, "generic": 600}
SWEEP_PAIRS = 192
# commands: invocations per batch; the spectra are sized to K blocks, which
# yields about 1,000-3,000 distinct entries each
COMMAND_MIX = {
    "lambda1": 20,
    "geometry": 20,
    "estimate": 18,
    "estimate_extrema": 2,
    "rigidity": 12,
    "rigidity_compare": 8,
    "product": 16,
    "spectrum_json": 12,
    "spectrum_csv": 12,
}
COMMAND_SPECTRUM_K = 130

ROUNDTRIP_MAX = 1e-8


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def envelope(k: int, triple) -> float:
    """Lower bound 2k b^2 + k^2 c^2 of irrep k's eigenvalues, canonical b >= c."""
    _, b, c = sorted(triple, reverse=True)
    return 2.0 * k * b * b + float(k) * k * c * c


def bound_for_blocks(k: int, triple) -> float:
    """A truncation bound whose cut-off is exactly block k."""
    return 0.5 * (envelope(k, triple) + envelope(k + 1, triple))


def lambda1(triple, group: str) -> float:
    """Closed-form lowest positive eigenvalue (used only to size bounds)."""
    _, b, c = sorted(triple, reverse=True)
    bc2 = b * b + c * c
    if group == "so3":
        return 4.0 * bc2
    return min(sum(x * x for x in triple), 4.0 * bc2)


def _shape(rng: random.Random, shape: str) -> tuple[float, float, float]:
    s = _loguniform(rng, 0.3, 3.0)
    if shape == "near_prolate":  # b ~ c < a
        d = _loguniform(rng, 1e-3, 1e-1)
        return (s * _loguniform(rng, 1.3, 3.0), s, s * (1.0 - d))
    if shape == "near_oblate":  # a ~ b > c
        d = _loguniform(rng, 1e-3, 1e-1)
        return (s, s * (1.0 - d), s * _loguniform(rng, 0.3, 0.8))
    if shape == "round":
        return (s, s, s)
    if shape == "berger_ab":  # a = b > c
        x, y = sorted((s, _loguniform(rng, 0.1, 10.0)), reverse=True)
        return (x, x, y)
    if shape == "berger_bc":  # a > b = c
        x, y = sorted((s, _loguniform(rng, 0.1, 10.0)), reverse=True)
        return (x, y, y)
    return tuple(sorted((s * _loguniform(rng, 0.1, 10.0) for _ in range(3)), reverse=True))


def _deep(rng: random.Random, scale: float) -> list[tuple]:
    ops = []
    for group, k in DEEP_K.items():
        k = max(4, round(k * scale))
        for shape, n in DEEP_SHAPES.items():
            for _ in range(_scaled(n, scale)):
                t = _shape(rng, shape)
                ops.append(("spectrum", t, group, bound_for_blocks(k, t)))
    return ops


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled.

    Stratifying the bound multipliers keeps the batch's total work nearly
    the same from seed to seed while every value still comes from the seed.
    """
    out = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _sweep(rng: random.Random, scale: float) -> list[tuple]:
    ops = []
    for group in ("su2", "so3"):
        for shape, n in SWEEP_MIX.items():
            for u in _strata(rng, _scaled(n, scale), 1.1, 4.0):
                t = _shape(rng, shape)
                ops.append(("spectrum", t, group, u * lambda1(t, group)))
    n_pairs = _scaled(SWEEP_PAIRS, scale)
    for i, u in enumerate(_strata(rng, n_pairs, 1.1, 2.5)):
        group = ("su2", "so3")[i % 2]
        t1 = _shape(rng, "generic")
        if i % 4 < 2:  # the same metric with its parameters permuted
            t2 = (t1[1], t1[2], t1[0])
        else:  # one parameter stretched a little
            j = rng.randrange(3)
            t2 = tuple(x * (1.0 + _loguniform(rng, 1e-3, 1e-1)) if n == j else x
                       for n, x in enumerate(t1))
        ops.append(("isospectral", t1, t2, group,
                    u * max(lambda1(t1, group), lambda1(t2, group))))
    return ops


def _flags(t) -> list[str]:
    return ["--a", repr(t[0]), "--b", repr(t[1]), "--c", repr(t[2])]


def _commands(rng: random.Random, scale: float) -> list[tuple]:
    shapes = ("generic", "generic", "round", "berger_ab", "berger_bc")
    ops = []
    for name, n in COMMAND_MIX.items():
        for i in range(_scaled(n, scale)):
            group = rng.choice(("su2", "so3"))
            t = _shape(rng, shapes[i % len(shapes)])
            fmt = ["--format", "csv" if i % 3 == 2 else "json"]
            if name in ("lambda1", "geometry", "estimate", "rigidity"):
                argv = [name, *_flags(t), "--group", group, *fmt]
            elif name == "estimate_extrema":
                argv = ["estimate", "--berger-extrema", *fmt]
            elif name == "rigidity_compare":
                other = (t[1], t[2], t[0]) if i % 2 else tuple(
                    x * (1.0 + _loguniform(rng, 1e-4, 1e-1)) for x in t)
                argv = ["rigidity", *_flags(t), "--group", group,
                        "--compare", ",".join(map(repr, other)), *fmt]
            elif name == "product":
                argv = ["product"]
                for _ in range(rng.randint(1, 4)):
                    argv += [rng.choice(("--su2", "--so3")),
                             ",".join(map(repr, _shape(rng, "generic")))]
                argv += fmt
            else:  # half a=b>c, half a>b=c, with a narrow aspect ratio so
                # that every seed prints about the same number of entries
                x = _loguniform(rng, 0.3, 3.0)
                y = x * _loguniform(rng, 1.5, 2.0)
                t = (y, y, x) if i % 2 else (y, x, x)
                k = max(6, round(COMMAND_SPECTRUM_K * scale))
                argv = ["spectrum", *_flags(t), "--group", ("su2", "so3")[i // 2 % 2],
                        "--lambda-max", repr(bound_for_blocks(k, t)),
                        "--berger-closed-form",
                        "--format", "csv" if name == "spectrum_csv" else "json"]
            ops.append(("cli", argv))
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, scale: float = 1.0) -> list[tuple]:
    """The fixed batch of operations for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {"deep": _deep, "sweep": _sweep, "commands": _commands}[workload](rng, scale)


def run_op(op: tuple):
    """Run one operation and return its output."""
    if op[0] == "spectrum":
        _, t, group, lam = op
        return spectrum.spectrum_up_to(lam, core.normalize_triple(*t), core.GroupKind(group))
    if op[0] == "isospectral":
        _, t1, t2, group, lam = op
        return rigidity.isospectral_check(
            core.normalize_triple(*t1), core.normalize_triple(*t2), core.GroupKind(group), lam
        )
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(op[1])
        except SystemExit as exc:  # argparse rejecting argv, as in a shell
            status = exc.code
    return status, out.getvalue()


# ---- checks -----------------------------------------------------------------


def check_op(op: tuple, output) -> tuple[str | None, bool]:
    """(reason the strict check rejects the output or None, documented contract held)."""
    import oracle  # loads scipy, so only once the timed phase is over

    if op[0] == "spectrum":
        _, t, group, lam = op
        entries = [(e.value, e.multiplicity) for e in output.entries]
        return oracle.check_table(entries, lam, t, group, spectrum.DEFAULT_CLUSTER_TOL)
    if op[0] == "isospectral":
        _, t1, t2, group, lam = op
        got = (output.verdict.value, output.mu_index, output.values)
        strict = _iso_mismatch(got, oracle.expected_isospectral(
            t1, t2, group, lam, oracle.RESOLUTION))
        if strict is None:
            return None, True
        return strict, _iso_mismatch(got, oracle.expected_isospectral(
            t1, t2, group, lam, spectrum.DEFAULT_CLUSTER_TOL)) is None
    return _check_command(op[1], *output)


def _iso_mismatch(got, want) -> str | None:
    import oracle

    verdict, index, values = got
    if verdict != want[0] or index != want[1]:
        return f"isospectral verdict {verdict} at {index}, expected {want[0]} at {want[1]}"
    for v, w in zip(values or (), want[2] or ()):
        if (v is None) != (w is None) or (
            v is not None and abs(v - w) > oracle.VALUE_RTOL * max(1.0, abs(w))
        ):
            return f"isospectral values {values}, expected {want[2]}"
    return None


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else key, val, out)
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _flatten(f"{prefix}[{i}]", val, out)
    else:
        out[prefix] = obj


def _parse(argv: list[str], stdout: str):
    """The results of one command's stdout as a flat {key: value} dict, or entries."""
    if "csv" not in argv:
        return json.loads(stdout)["results"]
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] == ["value", "multiplicity", "k_sources"]:
        return {"entries": [
            {"value": float(v), "multiplicity": int(m),
             "k_sources": [int(k) for k in ks.split(";")]}
            for v, m, ks in rows[1:]
        ]}
    return {key: value for key, value in rows[1:]}


def _argv_value(argv: list[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _reference(argv: list[str]) -> dict:
    """The numbers a command must print, computed by direct library calls."""
    cmd = argv[0]
    if cmd == "product":
        su2, so3 = [], []
        for flag, val in zip(argv[1::2], argv[2::2]):
            if flag in ("--su2", "--so3"):
                (su2 if flag == "--su2" else so3).append(
                    core.normalize_triple(*map(float, val.split(","))))
        est = geometry.product_estimate(geometry.ProductSpec(tuple(su2), tuple(so3)))
        return {"lambda1": est.lambda1, "diam2": {"lower": est.diam2_lower,
                "upper": est.diam2_upper}, "product": {"lower": est.product_lower,
                "upper": est.product_upper}, "cap": est.cap}
    if "--berger-extrema" in argv:
        rep = geometry.berger_lambda1_diam2_extrema()
        return {"min": rep.min_value, "min_triple": list(rep.min_triple.as_tuple()),
                "max": rep.max_value, "max_triple": list(rep.max_triple.as_tuple())}
    t = core.normalize_triple(*(float(_argv_value(argv, f)) for f in ("--a", "--b", "--c")))
    g = core.GroupKind(_argv_value(argv, "--group"))
    if cmd == "lambda1":
        res = spectrum.lambda1_closed(t, g)
        return {"value": res.value, "multiplicity": res.multiplicity,
                "regime": res.regime.value}
    if cmd in ("geometry", "estimate"):
        d = geometry.diameter(t, g)
        diam = {"lower": d.lower, "upper": d.upper, "exact": d.exact}
        if cmd == "estimate":
            lo, hi = geometry.lambda1_diam2(t, g)
            return {"lambda1": spectrum.lambda1_closed(t, g).value, "diameter": diam,
                    "lambda1_diam2": {"lower": lo, "upper": hi, "exact_point": lo == hi}}
        return {"classification": core.classify(t).value,
                "scalar_curvature": geometry.scalar_curvature(t),
                "volume": geometry.volume(t, g), "diameter": diam,
                "yamabe_gap": geometry.yamabe_gap(t, g)}
    if cmd == "rigidity":
        inv = rigidity.invariants(t, g)
        out = {"invariants": {"vol_param": inv.vol_param, "scalar_curvature": inv.scal,
                              "lambda1": inv.lambda1, "multiplicity": inv.mult1},
               "recovered_triple": list(rigidity.recover_triple(inv, g).as_tuple())}
        other = _argv_value(argv, "--compare")
        if other is not None:
            t2 = core.normalize_triple(*map(float, other.split(",")))
            lam = 1.2 * max(spectrum.lambda1_closed(t, g).value,
                            spectrum.lambda1_closed(t2, g).value)
            res = rigidity.isospectral_check(t, t2, g, lam)
            out["isospectral"] = {
                "verdict": res.verdict.value, "lambda_max": lam,
                "first_differing_index": res.mu_index,
                "first_differing_values": list(res.values) if res.values else None}
        return out
    x, y = (t.c, t.b) if core.classify(t) is core.MetricClass.BERGER_AB else (t.a, t.b)
    lam = float(_argv_value(argv, "--lambda-max"))
    table = spectrum.berger_spectrum_up_to(lam, x, y, g)
    return {"truncation_bound": lam, "entries": [
        {"value": e.value, "multiplicity": e.multiplicity, "k_sources": list(ks)}
        for e, ks in zip(table.entries, table.k_sources)],
        "eigenvalues_counted": table.counting_function(lam)}


def _same(have, want) -> bool:
    """Whether a parsed JSON value (or CSV string) prints the library's value."""
    if isinstance(have, str) and not isinstance(want, str):
        if want is None or isinstance(want, (bool, int)):
            return have == str(want)
        return have == f"{want:.17g}"
    if want is None or isinstance(want, bool):
        return have is want
    if isinstance(want, (int, float)):
        return isinstance(have, (int, float)) and not isinstance(have, bool) and have == want
    return have == want


def _top(key: str) -> str:
    return key.split(".")[0].split("[")[0]


def _check_command(argv: list[str], status: int, stdout: str) -> tuple[str | None, bool]:
    if status != 0:
        return f"exit status {status}", False
    try:
        got = _parse(argv, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {exc!r}", False
    want, flat = {}, {}
    _flatten("", _reference(argv), want)
    _flatten("", got, flat)
    if argv[0] == "spectrum" and "csv" in argv:  # the CSV schema has only the entries
        want = {key: val for key, val in want.items() if _top(key) == "entries"}
    tops = {_top(key) for key in want}
    extra = [key for key in flat if _top(key) in tops and key not in want]
    if extra:
        return f"{argv[0]} printed unexpected {extra[0]}", False
    for key, val in want.items():
        if not _same(flat.get(key), val):
            return f"{argv[0]} {key} = {flat.get(key)!r}, expected {val!r}", False
    if argv[0] == "rigidity":
        t = sorted((float(_argv_value(argv, f)) for f in ("--a", "--b", "--c")), reverse=True)
        rec = [float(flat[f"recovered_triple[{i}]"]) for i in range(3)]
        err = max(abs(x - y) / max(1.0, abs(y)) for x, y in zip(rec, t))
        if err > ROUNDTRIP_MAX:
            return f"recover_triple round trip error {err:.3e}", True
    return None, True
