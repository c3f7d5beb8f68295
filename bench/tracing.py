"""Spans and counters around the library's public functions, from outside it.

``Tracer.install`` replaces each function in ``WRAPPED`` by a wrapper in
every loaded ``homsphere`` module that refers to it, so calls between
modules are seen too; ``uninstall`` puts the originals back.  A span is
``[call_id, parent_span, name, start, end]``: ``call_id`` is the workload
operation that caused it and ``parent_span`` the index of the enclosing
span, or -1.  Spans stay in memory until ``write`` at the end of the run.

A function a later version no longer has is skipped and reported in
``absent``; its metrics read 0.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

# Layer module -> public functions on the user path.  spectrum.k_cutoff and
# cli.build_parser stay unwrapped so that their time counts as the caller's
# own (cut-off and argument parsing).
WRAPPED = {
    "cli": ("main",),
    "spectrum": ("spectrum_up_to", "berger_spectrum_up_to", "lambda1_closed"),
    "eigensolve": ("eigen_block", "eigenvalues"),
    "casimir": ("build_irrep_block", "casimir_matrix", "symmetrize", "tridiagonal_split"),
    "rigidity": ("invariants", "recover_triple", "isospectral_check"),
    "geometry": (
        "diameter",
        "lambda1_diam2",
        "berger_lambda1_diam2_extrema",
        "product_estimate",
        "scalar_curvature",
        "volume",
        "yamabe_gap",
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call_id = -1
        self.counters: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self._blocks: list[tuple] = []
        self._patched: list[tuple] = []

    # ---- counters taken at the span boundaries ----

    def _after(self, name: str, args, result) -> None:
        c = self.counters
        if name == "eigensolve.eigenvalues":
            c["eigensolve.tridiag_rows"] += getattr(args[0], "n", 0)
        elif name == "eigensolve.eigen_block":
            self._blocks.append(tuple(result))
        elif name == "spectrum.spectrum_up_to":
            lam = args[0]
            for values in self._blocks:
                c["eigensolve.eigs_computed"] += len(values)
                c["eigensolve.eigs_kept"] += sum(1 for v in values if v <= lam)
            self._blocks.clear()
            c["spectrum.entries_out"] += len(result.entries)
        elif name == "spectrum.berger_spectrum_up_to":
            c["spectrum.entries_out"] += len(result.entries)

    def _wrap(self, name: str, fn):
        spans, stack, clock, after = self.spans, self.stack, time.perf_counter, self._after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.call_id, stack[-1] if stack else -1, name, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            after(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "homsphere" or n.startswith("homsphere."))]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"homsphere.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # ---- derived metrics ----

    def stats(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive ms and self ms (minus child spans)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = collections.defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (_, _, name, start, end) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["ms"] += 1e3 * (end - start)
            s["self_ms"] += 1e3 * (end - start - child[i])
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: call, span, parent, name, start_us, end_us."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("call\tspan\tparent\tname\tstart_us\tend_us\n")
            for i, (call, parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{call}\t{i}\t{parent}\t{name}\t"
                         f"{1e6 * (start - t0):.1f}\t{1e6 * (end - t0):.1f}\n")
