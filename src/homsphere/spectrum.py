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
from operator import itemgetter

from .casimir import _squares
from .core import (
    GroupKind,
    HomsphereError,
    MetricTriple,
    SpectrumTable,
    _Record,
    normalize_triple,
)
from .eigensolve import eigen_block

# two values merge when their relative gap is at most this
DEFAULT_CLUSTER_TOL = 1e-8
# the most irrep blocks a table may need: beyond this, pure-Python
# bisection takes hours
K_CAP = 10000

# a^2 past which the rows with d = k-2l != 0 decouple in double precision,
# at the unit scale of ``spectrum_up_to`` (b in [1, 2), so |c^2 - b^2| < 4)
# and for k <= K_CAP.  Each coupling is at most |c^2 - b^2| (k+2)^2 / 4 < 1.1e8,
# and every bound is below the envelope at K_CAP + 1, about 4e8.  So every
# row with d != 0 has its Gershgorin disc above a^2 - 3e8, above every
# bound.  The d = 0 row's neighbours in its half have |d| = 4, so its
# eigenvalue lies within about 2 (1.1e8)^2 / (16 * 2^128) ~ 4e-24 of its
# entry 2p(p+1)(b^2 + c^2), which is at least 4 for k = 2p > 0: far below
# an ulp.  Past it a table is the d = 0 run of ``_diagonal_runs``, and a^2
# is capped here, so no row on the table path exceeds K_CAP^2 2^128 ~ 3.4e46.
_DECOUPLED = 2.0**128
# relative gap above which a cluster merge is reported as suspicious
_MERGE_WARN_GAP = 1e-10
# the sort key of a (value, weight, k) record
_VALUE = itemgetter(0)
# warnings are attributed to the first frame outside this directory
_PACKAGE_DIR = os.path.join(os.path.dirname(__file__), "")


class CutoffTooLarge(HomsphereError, ValueError):
    """The truncation bound requires more irrep blocks than ``K_CAP``."""

    def __init__(self, lam_max: float) -> None:
        super().__init__(
            f"truncation bound {lam_max} needs more than {K_CAP} blocks, cap is {K_CAP}"
        )


class ClusterMergeWarning(UserWarning):
    """Two computed eigenvalues with a suspiciously large gap were merged."""


class Regime(enum.Enum):
    """Which closed formula produced the lowest eigenvalue."""

    SUM_DOMINATES = "SumDominates"  # a^2 < 3(b^2+c^2): lambda1 = a^2+b^2+c^2
    BOUNDARY = "Boundary"            # a^2 = 3(b^2+c^2): the two formulas tie
    FOUR_BC = "FourBC"              # a^2 > 3(b^2+c^2): lambda1 = 4(b^2+c^2)
    SO3 = "SO3"                      # SO(3): lambda1 = 4(b^2+c^2) always


class Lambda1Result(_Record):
    """Smallest positive eigenvalue, its multiplicity, and the active regime."""

    __slots__ = ("value", "multiplicity", "regime")

    def __init__(self, value: float, multiplicity: int, regime: Regime) -> None:
        self._fill(value, multiplicity, regime)


def lambda1_closed(t: MetricTriple, g: GroupKind) -> Lambda1Result:
    """Closed-form smallest positive eigenvalue with its multiplicity.

    SU(2): min(a^2+b^2+c^2, 4(b^2+c^2)); multiplicity 4, 7 or 3 according
    to whether a^2+b^2+c^2 is below, equal to, or above 4(b^2+c^2).
    SO(3): 4(b^2+c^2); multiplicity 3 if a > b, 6 if a = b > c, 9 if round.
    The tie test is exact on the computed floats.  The SU(2) value is
    bitwise the first positive entry of ``spectrum_up_to``'s table.  The
    SO(3) value can differ from it by up to 2 ulp: the table reads
    4(b^2+c^2) as the sum of a diagonal entry and a coupling of block 2,
    which no summation order of the closed form matches bitwise.

    Raises:
        OverflowError: if the eigenvalue is not a positive, normal, finite
            float.  Below the normal range a^2+b^2+c^2 and 4(b^2+c^2) lose
            their digits (to 0 for a round metric at 1e-170, which then
            reads as a tie), so neither the value nor the regime would hold.
    """
    # s is summed as the table's k = 1 block is, in the frame of _squares
    a2, bc2, _ = _squares(t.a, t.b, t.c)
    s = a2 + bc2
    f = 4.0 * (t.b * t.b + t.c * t.c)
    if g is GroupKind.SO3:
        value, regime = f, Regime.SO3
        mult = 3 if t.a > t.b else 6 if t.b > t.c else 9
    elif s < f:
        value, mult, regime = s, 4, Regime.SUM_DOMINATES
    elif s == f:
        value, mult, regime = s, 7, Regime.BOUNDARY
    else:
        value, mult, regime = f, 3, Regime.FOUR_BC
    # value is the smaller of s and f: when it is normal, the other one is
    # normal too or inf, and the comparison and the regime hold
    if not sys.float_info.min <= value < math.inf:
        raise OverflowError(f"lambda1 = {value:.17g} is outside the normal float range")
    return Lambda1Result(value=value, multiplicity=mult, regime=regime)


def k_cutoff(lam_max: float, t: MetricTriple, g: GroupKind) -> int:
    """Largest irrep label whose block can still contain an eigenvalue <= lam_max.

    Every eigenvalue of block k is at least 2k b^2 + k^2 c^2, so the
    returned K satisfies 2K b^2 + K^2 c^2 <= lam_max while K+1 (K+2 for
    SO(3), which only sees even k) does not.  Blocks beyond K cannot
    contribute, which makes truncated tables complete.  K is found by
    walking the admissible k upwards along the envelope as computed in
    floating point.  Each of its two terms is a rounded product of
    nondecreasing factors, so the computed envelope never decreases in k,
    and the first k whose envelope exceeds ``lam_max`` ends the walk.  The
    walk also ends at the first admissible k past ``K_CAP``, so it takes
    at most ``K_CAP`` + 1 steps whatever the parameters: where b^2 and c^2
    underflow to 0, every envelope reads 0 and the walk ends at the cap.

    Raises:
        ValueError: if ``lam_max`` is not a positive finite number.
        CutoffTooLarge: if K would exceed ``K_CAP``.
    """
    if not 0.0 < lam_max < math.inf:
        raise ValueError(f"truncation bound must be positive and finite, got {lam_max}")
    b2, c2 = t.b * t.b, t.c * t.c
    step = 2 if g is GroupKind.SO3 else 1
    k = step  # the next admissible label to test
    while 2.0 * k * b2 + float(k) * k * c2 <= lam_max:
        if k > K_CAP:
            raise CutoffTooLarge(lam_max)
        k += step
    return k - step


def _cluster(
    contributions: list[tuple[float, int, int]], lam_max: float
) -> tuple[tuple[float, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Merge near-equal eigenvalue contributions into a table's columns.

    ``contributions`` holds (value, multiplicity, source_k) records, where
    the multiplicity is the weight of the value: k+1 for an eigenvalue of
    irrep k, and 2(k+1) for one that stands for a Wang mirror pair (an
    odd-k solved value, or a diagonal entry l < k/2 with its mirror k-l).
    The list is sorted in place, on the value alone.  A value is merged
    into the open cluster when it exceeds the cluster's first (smallest)
    value, its representative, by at most DEFAULT_CLUSTER_TOL times that
    value.  A value that opens a new cluster above ``lam_max`` ends the
    table, so values above the bound count only as copies of a
    representative below it.  Merges with a relative gap above 1e-10 are
    reported via ClusterMergeWarning, since they may indicate an
    accidental near-degeneracy rather than a genuinely repeated
    eigenvalue.  Returns the table's columns unchecked, as tuples, for the
    ``SpectrumTable`` constructor to check and keep: the representatives,
    their multiplicities and their ``k_sources``.
    """
    contributions.sort(key=_VALUE)
    tol, warn_gap = DEFAULT_CLUSTER_TOL, _MERGE_WARN_GAP
    reps: list[float] = []
    mults: list[int] = []
    sources: list[tuple[int, ...]] = []
    suspicious: list[tuple[float, float]] = []
    # the open cluster; the first value joins it, since 0 <= tol * value
    rep, mult, ks = contributions[0][0], 0, ()
    for value, m, k in contributions:
        if value - rep <= tol * rep:
            if value - rep > warn_gap * rep:
                suspicious.append((rep, value - rep))
            mult += m
            if k not in ks:
                ks = tuple(sorted((*ks, k)))
        elif value > lam_max:
            break
        else:
            reps.append(rep)
            mults.append(mult)
            sources.append(ks)
            rep, mult, ks = value, m, (k,)
    reps.append(rep)
    mults.append(mult)
    sources.append(ks)
    if suspicious:
        detail = ", ".join(f"{v:.12g} (gap {g:.3e})" for v, g in suspicious)
        warnings.warn(
            f"merged near-degenerate eigenvalue clusters: {detail}",
            ClusterMergeWarning,
            stacklevel=_caller_stacklevel(),
        )
    return tuple(reps), tuple(mults), tuple(sources)


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


def _diagonal_runs(
    cutoff: int, step: int, a2: float, bc2: float, upper: float, shift: int
) -> list[tuple[float, int, int]]:
    """(value, weight, k) records of the diagonal blocks k <= ``cutoff``, one per mirror pair.

    With d = k-2l >= 0 and p = l, entry l of block k is
    d^2 a2 + (2p(p+d+1) + d) bc2: the integer coefficients of
    ``oracle._diagonal``, so the floats are bitwise the same.  Entry k-l
    equals entry l, so the pair is one record of weight 2(k+1) when
    d > 0, and the middle entry d = 0 weighs k+1.  For fixed d the values
    never decrease in p, since rounding is monotone, so each d gives a
    sorted run, read up to its first value above ``upper`` or its first
    k above ``cutoff``.  The starts d^2 a2 never decrease in d either, so
    the first start above ``upper`` ends the walk.  ``a2`` is finite.
    With ``step`` = 2 (SO(3), even k only) d is even too.  Values are
    scaled by 2^``shift``.
    """
    out = []
    for d in range(0, cutoff + 1, step):
        start = d * d * a2
        if start > upper:
            break
        double = 2 if d else 1
        coeff = d  # 2p(p+d+1) + d at p = 0; p+1 exceeds p by 2k + 4
        for k in range(d, cutoff + 1, 2):
            value = start + coeff * bc2
            if value > upper:
                break
            out.append((math.ldexp(value, shift), (k + 1) * double, k))
            coeff += 2 * k + 4
    return out


def spectrum_up_to(lam_max: float, t: MetricTriple, g: GroupKind) -> SpectrumTable:
    """All distinct eigenvalues <= lam_max with multiplicities (inclusive bound).

    A triple with two equal parameters has diagonal Casimir blocks, so its
    values are read off the closed form in sorted runs, one per distance
    d = k-2l from the middle of a block (``_diagonal_runs``): one record
    per mirror pair l, k-l, weighted 2(k+1), and k+1 for the middle
    entry.  Any other triple reads irrep 0, the constant functions, off
    as the record (0, 1, 0), bitwise what ``eigen_block`` gives for its
    one entry 0 a2 + 0 bc2, and takes the eigenvalues of one Casimir
    block per admissible irrep k > 0 (even k only for SO(3)) from
    ``eigen_block``, whose solver works only below the bound: each value
    is weighted by the irrep dimension k+1, and an odd-k value by
    2(k+1), since ``eigen_block`` returns one value per Wang mirror pair
    there.  Where a^2 exceeds ``_DECOUPLED`` at the unit scale below,
    every row with d != 0 decouples in double precision and lies above
    the bound, so the table is the d = 0 run of ``_diagonal_runs``, with
    a^2 capped at ``_DECOUPLED`` so that no row is +inf.  Equal values
    are then clustered into the table's columns, from which the
    ``SpectrumTable`` constructor checks and makes the table.  Blocks are cut
    off, solved and clustered up to lam_max (1 + DEFAULT_CLUSTER_TOL),
    capped at the largest float, and the clusters whose representative
    exceeds lam_max are dropped: every copy of a value <= lam_max is
    counted, even where the copies, or the envelope of ``k_cutoff``, round
    to either side of the bound.  The result is complete below
    ``lam_max``.  The blocks are solved for the triple scaled by 2^-h,
    with b 2^-h in [1, 2), and the values scaled back by 4^h, so scaling
    the triple and ``lam_max`` by 2^j and 4^j scales every value by 4^j
    exactly.  The blocks see only the squares of the scaled triple
    (``casimir._squares``), formed once per table, so squares that overflow
    at the caller's scale are no error: an a^2 of inf is finite or
    decoupled at the unit scale, and a b^2 of inf puts every block k > 0
    above the bound.

    Raises:
        ValueError: if ``lam_max`` is not a positive finite number.
        OverflowError: if a^2 + b^2 + c^2 is 0 in floating point, where
            ``k_cutoff`` cannot walk the envelope, or if the smallest
            positive value of the table, read off the value column, is
            below the normal float range, where it keeps too few digits.
        CutoffTooLarge: if the bound needs more than ``K_CAP`` blocks.
    """
    if not 0.0 < t.a * t.a + t.b * t.b + t.c * t.c:
        raise OverflowError(f"the squares of {t.as_tuple()} underflow to 0")
    upper = lam_max  # an invalid bound goes to k_cutoff as it is
    if 0.0 < lam_max < math.inf:
        upper = min(lam_max * (1.0 + DEFAULT_CLUSTER_TOL), sys.float_info.max)
    try:
        cutoff = k_cutoff(upper, t, g)
    except CutoffTooLarge:
        raise CutoffTooLarge(lam_max) from None  # name the caller's bound
    h = math.frexp(t.b)[1] - 1
    a2, bc2, off = _squares(math.ldexp(t.a, -h), math.ldexp(t.b, -h), math.ldexp(t.c, -h))
    upper_unit = math.ldexp(upper, -2 * h)
    step = 2 if g is GroupKind.SO3 else 1
    if off is None or a2 > _DECOUPLED:
        contributions = _diagonal_runs(
            cutoff, step, min(a2, _DECOUPLED), bc2, upper_unit, 2 * h
        )
    else:
        contributions = [(0.0, 1, 0)]  # irrep 0: the constant functions
        for k in range(step, cutoff + 1, step):
            weight = (k + 1) * (1 + k % 2)  # an odd-k value stands for its mirror too
            for value in eigen_block(k, a2, bc2, off, upper_unit):
                contributions.append((math.ldexp(value, 2 * h), weight, k))
    values, mults, sources = _cluster(contributions, lam_max)
    if len(values) > 1 and values[1] < sys.float_info.min:
        raise OverflowError(f"eigenvalue {values[1]:.17g} is below the normal float range")
    return SpectrumTable(values, mults, lam_max, g, t, sources)


def berger_spectrum_up_to(lam_max: float, a: float, b: float, g: GroupKind) -> SpectrumTable:
    """``spectrum_up_to(lam_max, normalize_triple(a, b, b), g)``, kept for the benchmark.

    Not exported from ``homsphere`` and called nowhere in the package:
    ``spectrum_up_to`` reads every triple with two equal parameters off
    the closed form already.  Its one caller is ``bench/workloads.py::
    _reference`` (``bench/tracing.py`` times it by name), and it goes when
    ROADMAP.md item 1 moves the benchmark onto ``spectrum_up_to``.  Works
    for either parameter order (a >= b or a < b).

    Raises:
        ValueError: if ``lam_max`` is not a positive finite number.
    """
    return spectrum_up_to(lam_max, normalize_triple(a, b, b), g)
