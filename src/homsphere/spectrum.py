"""Assembly of truncated Laplace spectra and closed-form lowest eigenvalues.

Every eigenvalue of the Laplace-Beltrami operator of a left-invariant
metric arises from the Casimir matrix of some irrep k, repeated (k+1)
times.  SO(3) sees only the even-k irreps.  The lower envelope
2k b^2 + k^2 c^2 of the block eigenvalues turns any truncation bound into
a finite, provably complete set of blocks to solve.  Tolerances and the
block cap are module constants, and every comparison is relative.
"""

from __future__ import annotations

import enum
import math
import os
import sys
import warnings
from dataclasses import dataclass

from .core import (
    EigenPair,
    GroupKind,
    HomsphereError,
    MetricTriple,
    SpectrumTable,
    normalize_triple,
)
from .eigensolve import eigen_block

# two values merge when their relative gap is at most this
DEFAULT_CLUSTER_TOL = 1e-8
# the most irrep blocks a table may need: beyond this, pure-Python
# bisection takes hours
K_CAP = 10000

# relative gap above which a cluster merge is reported as suspicious
_MERGE_WARN_GAP = 1e-10
# warnings are attributed to the first frame outside this directory
_PACKAGE_DIR = os.path.join(os.path.dirname(__file__), "")


class CutoffTooLarge(HomsphereError, ValueError):
    """The truncation bound requires more irrep blocks than ``K_CAP``."""


class ClusterMergeWarning(UserWarning):
    """Two computed eigenvalues with a suspiciously large gap were merged."""


class Regime(enum.Enum):
    """Which closed formula produced the lowest eigenvalue."""

    SUM_DOMINATES = "SumDominates"  # a^2 < 3(b^2+c^2): lambda1 = a^2+b^2+c^2
    BOUNDARY = "Boundary"            # a^2 = 3(b^2+c^2): the two formulas tie
    FOUR_BC = "FourBC"              # a^2 > 3(b^2+c^2): lambda1 = 4(b^2+c^2)
    SO3 = "SO3"                      # SO(3): lambda1 = 4(b^2+c^2) always


@dataclass(frozen=True)
class Lambda1Result:
    """Smallest positive eigenvalue, its multiplicity, and the active regime."""

    value: float
    multiplicity: int
    regime: Regime


def lambda1_closed(t: MetricTriple, g: GroupKind) -> Lambda1Result:
    """Closed-form smallest positive eigenvalue with its multiplicity.

    SU(2): min(a^2+b^2+c^2, 4(b^2+c^2)); multiplicity 4, 7 or 3 according
    to whether a^2+b^2+c^2 is below, equal to, or above 4(b^2+c^2).
    SO(3): 4(b^2+c^2); multiplicity 3 if a > b, 6 if a = b > c, 9 if round.
    The tie test is exact on the computed floats.
    """
    bc2 = t.b * t.b + t.c * t.c
    s = t.a * t.a + bc2
    f = 4.0 * bc2
    if g is GroupKind.SO3:
        if t.a > t.b:
            mult = 3
        elif t.b > t.c:
            mult = 6
        else:
            mult = 9
        return Lambda1Result(value=f, multiplicity=mult, regime=Regime.SO3)
    if s < f:
        return Lambda1Result(value=s, multiplicity=4, regime=Regime.SUM_DOMINATES)
    if s == f:
        return Lambda1Result(value=s, multiplicity=7, regime=Regime.BOUNDARY)
    return Lambda1Result(value=f, multiplicity=3, regime=Regime.FOUR_BC)


def k_cutoff(lam_max: float, t: MetricTriple, g: GroupKind) -> int:
    """Largest irrep label whose block can still contain an eigenvalue <= lam_max.

    Every eigenvalue of block k is at least 2k b^2 + k^2 c^2, so the
    returned K satisfies 2K b^2 + K^2 c^2 <= lam_max while K+1 (K+2 for
    SO(3), which only sees even k) does not.  Blocks beyond K cannot
    contribute, which makes truncated tables complete.

    Raises:
        ValueError: if ``lam_max`` is not a positive finite number.
        CutoffTooLarge: if K would exceed ``K_CAP``.
    """
    if not 0.0 < lam_max < math.inf:
        raise ValueError(f"truncation bound must be positive and finite, got {lam_max}")
    b2, c2 = t.b * t.b, t.c * t.c

    def bound(k: int) -> float:
        return 2.0 * k * b2 + float(k) * k * c2

    # the root of bound(k) = lam_max, in a form that neither cancels nor overflows
    k = int(lam_max / (b2 + math.hypot(b2, math.sqrt(lam_max) * t.c)))
    # Far beyond the cap the estimate alone decides; there the walk could
    # stall, since above 2**53 bound(k + 1) rounds to bound(k).
    if k <= K_CAP + 2:
        while bound(k + 1) <= lam_max:
            k += 1
        while k > 0 and bound(k) > lam_max:
            k -= 1
    if g is GroupKind.SO3:
        k -= k % 2
    if k > K_CAP:
        raise CutoffTooLarge(
            f"truncation bound {lam_max} needs blocks up to k={k:.17g}, cap is {K_CAP}"
        )
    return k


def _cluster(
    contributions: list[tuple[float, int, int]],
) -> tuple[tuple[EigenPair, ...], tuple[tuple[int, ...], ...]]:
    """Merge near-equal eigenvalue contributions into (value, multiplicity) pairs.

    ``contributions`` holds (value, multiplicity, source_k) records.  A
    value is merged into the current cluster when it exceeds the cluster's
    first (smallest) value, its representative, by at most
    DEFAULT_CLUSTER_TOL times that value.  Merges with a relative gap above
    1e-10 are reported via ClusterMergeWarning, since they may indicate an
    accidental near-degeneracy rather than a genuinely repeated eigenvalue.
    """
    entries: list[EigenPair] = []
    sources: list[tuple[int, ...]] = []
    suspicious: list[tuple[float, float]] = []
    rep = None
    mult = 0
    ks: set[int] = set()
    for value, m, k in sorted(contributions):
        if rep is not None and value - rep <= DEFAULT_CLUSTER_TOL * rep:
            gap = value - rep
            if gap > _MERGE_WARN_GAP * rep:
                suspicious.append((rep, gap))
            mult += m
            ks.add(k)
            continue
        if rep is not None:
            entries.append(EigenPair(rep, mult))
            sources.append(tuple(sorted(ks)))
        rep, mult, ks = value, m, {k}
    if rep is not None:
        entries.append(EigenPair(rep, mult))
        sources.append(tuple(sorted(ks)))
    if suspicious:
        detail = ", ".join(f"{v:.12g} (gap {g:.3e})" for v, g in suspicious)
        warnings.warn(
            f"merged near-degenerate eigenvalue clusters: {detail}",
            ClusterMergeWarning,
            stacklevel=_caller_stacklevel(),
        )
    return tuple(entries), tuple(sources)


def _caller_stacklevel() -> int:
    """``stacklevel`` that points a warning at the first frame outside this package.

    Counted from the function that calls this one and then warns, so the
    warning names the user's call whichever public function led to it.
    """
    frame = sys._getframe(1)
    level = 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame = frame.f_back
        level += 1
    return level


def spectrum_up_to(lam_max: float, t: MetricTriple, g: GroupKind) -> SpectrumTable:
    """All distinct eigenvalues <= lam_max with multiplicities (inclusive bound).

    Takes the eigenvalues of one Casimir block per admissible irrep (even k
    only for SO(3)) from ``eigen_block``, so a triple with two equal
    parameters gets its closed form and any other the solver, weights each
    by the irrep dimension k+1, and clusters equal values.  The result is
    complete below ``lam_max``.  The blocks are solved for the triple
    scaled by 2^-h, with b 2^-h in [1, 2), and the values scaled back by
    4^h, so scaling the triple and ``lam_max`` by 2^j and 4^j scales every
    value by 4^j exactly.

    Raises:
        ValueError: if ``lam_max`` is not a positive finite number.
        OverflowError: if a^2 + b^2 + c^2 is 0 or infinite in floating
            point, or a block entry leaves the float range.
        CutoffTooLarge: if the bound needs more than ``K_CAP`` blocks.
    """
    if not 0.0 < t.a * t.a + t.b * t.b + t.c * t.c < math.inf:
        raise OverflowError(f"the squares of {t.as_tuple()} leave the float range")
    cutoff = k_cutoff(lam_max, t, g)
    h = math.frexp(t.b)[1] - 1
    unit = MetricTriple(*(math.ldexp(x, -h) for x in t.as_tuple()))
    lam_unit = math.ldexp(lam_max, -2 * h)
    step = 2 if g is GroupKind.SO3 else 1
    contributions = [
        (math.ldexp(value, 2 * h), k + 1, k)
        for k in range(0, cutoff + 1, step)
        for value in eigen_block(k, unit)
        if value <= lam_unit
    ]
    entries, sources = _cluster(contributions)
    return SpectrumTable(
        entries=entries,
        truncation_bound=lam_max,
        group=g,
        triple=t,
        k_sources=sources,
    )


def berger_spectrum_up_to(lam_max: float, a: float, b: float, g: GroupKind) -> SpectrumTable:
    """Closed-form truncated spectrum of the metric with parameters (a, b, b).

    The same table as ``spectrum_up_to`` on ``normalize_triple(a, b, b)``:
    no eigensolver runs, since block k is diagonal with entries bitwise
    equal to ``oracle.berger_eigenvalue(k, j, a, b)`` for j = 0..k, each of
    multiplicity k+1.  Works for either parameter order (a >= b or a < b).

    Raises:
        ValueError: if ``lam_max`` is not a positive finite number.
    """
    return spectrum_up_to(lam_max, normalize_triple(a, b, b), g)
