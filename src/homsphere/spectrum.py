"""Assembly of truncated Laplace spectra and closed-form lowest eigenvalues.

Every eigenvalue of the Laplace-Beltrami operator of a left-invariant
metric arises from the Casimir matrix of some irrep k, repeated (k+1)
times.  SO(3) sees only the even-k irreps.  The lower envelope
2k b^2 + k^2 c^2 of the block eigenvalues turns any truncation bound into
a finite, provably complete set of blocks to solve.
"""

from __future__ import annotations

import enum
import math
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .casimir import _diagonal
from .core import (
    EigenPair,
    GroupKind,
    HomsphereError,
    MetricTriple,
    SpectrumTable,
    normalize_triple,
)
from .eigensolve import eigen_block

DEFAULT_SOLVER_TOL = 1e-12
DEFAULT_CLUSTER_TOL = 1e-8
DEFAULT_K_CAP = 10000

# relative gap above which a cluster merge is reported as suspicious
_MERGE_WARN_GAP = 1e-10


class CutoffTooLarge(HomsphereError, ValueError):
    """The truncation bound requires more irrep blocks than the configured cap."""


class NotFound(HomsphereError, LookupError):
    """No spectrum entry matches the queried eigenvalue."""


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


def berger_eigenvalue(k: int, j: int, a: float, b: float) -> float:
    """Closed eigenvalue a^2 (k-2j)^2 + 2 b^2 ((2j+1)k - 2j^2) of g_(a,b,b)."""
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    return a * a * (k - 2 * j) ** 2 + 2.0 * (b * b) * ((2 * j + 1) * k - 2 * j * j)


def k_cutoff(
    lam_max: float, t: MetricTriple, g: GroupKind, k_cap: int = DEFAULT_K_CAP
) -> int:
    """Largest irrep label whose block can still contain an eigenvalue <= lam_max.

    Every eigenvalue of block k is at least 2k b^2 + k^2 c^2, so the
    returned K satisfies 2K b^2 + K^2 c^2 <= lam_max while K+1 (K+2 for
    SO(3), which only sees even k) does not.  Blocks beyond K cannot
    contribute, which makes truncated tables complete.

    Raises:
        ValueError: if ``lam_max`` is not a positive finite number or
            ``k_cap`` is negative.
        CutoffTooLarge: if K would exceed ``k_cap``.
    """
    if not 0.0 < lam_max < math.inf:
        raise ValueError(f"truncation bound must be positive and finite, got {lam_max}")
    if k_cap < 0:
        raise ValueError(f"k_cap must be nonnegative, got {k_cap}")
    b2, c2 = t.b * t.b, t.c * t.c

    def bound(k: int) -> float:
        return 2.0 * k * b2 + float(k) * k * c2

    k = max(int((-b2 + math.sqrt(b2 * b2 + lam_max * c2)) / c2), 0)
    # Far beyond the cap the estimate alone decides; there the walk could
    # stall, since above 2**53 bound(k + 1) rounds to bound(k).
    if k <= k_cap + 2:
        while bound(k + 1) <= lam_max:
            k += 1
        while k > 0 and bound(k) > lam_max:
            k -= 1
    if g is GroupKind.SO3:
        k -= k % 2
    if k > k_cap:
        raise CutoffTooLarge(
            f"truncation bound {lam_max} needs blocks up to k={k:.17g}, cap is {k_cap}"
        )
    return k


def _cluster(
    contributions: list[tuple[float, int, int]], cluster_tol: float
) -> tuple[tuple[EigenPair, ...], tuple[tuple[int, ...], ...]]:
    """Merge near-equal eigenvalue contributions into (value, multiplicity) pairs.

    ``contributions`` holds (value, multiplicity, source_k) records.  Two
    values are merged when they differ by at most cluster_tol * max(1, value);
    the cluster keeps its first (smallest) value as representative.  Merges
    with a relative gap above 1e-10 are reported via ClusterMergeWarning,
    since they may indicate an accidental near-degeneracy rather than a
    genuinely repeated eigenvalue.
    """
    entries: list[EigenPair] = []
    sources: list[tuple[int, ...]] = []
    suspicious: list[tuple[float, float]] = []
    rep = None
    mult = 0
    ks: set[int] = set()
    for value, m, k in sorted(contributions):
        if rep is not None and value - rep <= cluster_tol * max(1.0, abs(rep)):
            gap = value - rep
            if gap > _MERGE_WARN_GAP * max(1.0, abs(rep)):
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
            stacklevel=4,  # past _assemble and the public function, to its caller
        )
    return tuple(entries), tuple(sources)


def _assemble(
    lam_max: float,
    t: MetricTriple,
    g: GroupKind,
    block_values: Callable[[int], Iterable[float]],
    cluster_tol: float,
    k_cap: int,
) -> SpectrumTable:
    """Table of the values of blocks 0..K that are <= lam_max, each of weight k+1."""
    if not 0.0 <= cluster_tol < math.inf:
        raise ValueError(f"cluster_tol must be nonnegative and finite, got {cluster_tol}")
    cutoff = k_cutoff(lam_max, t, g, k_cap)
    step = 2 if g is GroupKind.SO3 else 1
    contributions = [
        (value, k + 1, k)
        for k in range(0, cutoff + 1, step)
        for value in block_values(k)
        if value <= lam_max
    ]
    entries, sources = _cluster(contributions, cluster_tol)
    return SpectrumTable(
        entries=entries,
        truncation_bound=lam_max,
        group=g,
        triple=t,
        k_sources=sources,
    )


def spectrum_up_to(
    lam_max: float,
    t: MetricTriple,
    g: GroupKind,
    tol: float = DEFAULT_SOLVER_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    k_cap: int = DEFAULT_K_CAP,
) -> SpectrumTable:
    """All distinct eigenvalues <= lam_max with multiplicities (inclusive bound).

    Solves one Casimir block per admissible irrep (even k only for SO(3)),
    weights each block eigenvalue by the irrep dimension k+1, and clusters
    equal values.  The result is complete below ``lam_max``.

    Raises:
        ValueError: if ``tol`` is not positive, ``cluster_tol`` is negative
            or not finite, or ``lam_max`` is not a positive finite number,
            whichever branch the triple takes.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return _assemble(lam_max, t, g, lambda k: eigen_block(k, t, tol), cluster_tol, k_cap)


def berger_spectrum_up_to(
    lam_max: float,
    a: float,
    b: float,
    g: GroupKind,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    k_cap: int = DEFAULT_K_CAP,
) -> SpectrumTable:
    """Closed-form truncated spectrum of the metric with parameters (a, b, b).

    No eigensolver runs: block k is diagonal, with entries bitwise equal to
    ``berger_eigenvalue(k, j, a, b)`` for j = 0..k, each of multiplicity
    k+1.  Works for either parameter order (a >= b or a < b).

    Raises:
        ValueError: if ``cluster_tol`` is negative or not finite, or
            ``lam_max`` is not a positive finite number.
    """
    t = normalize_triple(a, b, b)
    a2, bc2 = a * a, b * b + b * b
    return _assemble(lam_max, t, g, lambda k: _diagonal(k, a2, bc2), cluster_tol, k_cap)


def mu_index_of(value: float, table: SpectrumTable, tol: float = 1e-9) -> int:
    """Position of ``value`` among the distinct positive eigenvalues (1-based).

    Raises:
        NotFound: if no positive entry matches within tol * max(1, |value|).
    """
    slack = tol * max(1.0, abs(value))
    index = 0
    for entry in table.entries:
        if entry.value == 0.0:
            continue
        index += 1
        if abs(entry.value - value) <= slack:
            return index
    raise NotFound(f"no positive spectrum entry within {slack:.3e} of {value}")


def low_irrep_eigenvalues(t: MetricTriple) -> dict[int, tuple[float, ...]]:
    """Closed eigenvalues of the first three irrep blocks (k = 0, 1, 2).

    k=0 gives {0}; k=1 gives a^2+b^2+c^2 twice; k=2 gives
    4(b^2+c^2), 4(a^2+c^2), 4(a^2+b^2) sorted ascending.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    s = a2 + (b2 + c2)
    pi2 = tuple(sorted((4.0 * (b2 + c2), 4.0 * (a2 + c2), 4.0 * (a2 + b2))))
    return {0: (0.0,), 1: (s, s), 2: pi2}
