"""Spectral invariants and the constructive inverse problem.

Four spectral invariants, the volume parameter v = abc, the scalar
curvature, the lowest positive eigenvalue lambda1 and its multiplicity,
pin down the metric triple uniquely.  ``recover_triple`` inverts them by
solving for u = a^2 alone:

* When lambda1 = a^2 + b^2 + c^2 (SU(2), multiplicity 4 or 7), u is the
  largest root of the cubic with roots a^2, b^2, c^2, whose coefficients
  the invariants determine.

* When lambda1 = 4(b^2 + c^2) (SU(2) multiplicity 3, every SO(3) case),
  eliminating b and c from the scalar curvature leaves a quartic in u
  with at most two positive roots; both are candidates.

Then b^2 + c^2 = P is known (lambda1 - u or lambda1/4) and b^2 c^2 =
v^2/u, so one split takes b^2 and c^2 as the roots of x^2 - P x + v^2/u,
with c^2 = v^2/(u b^2) free of cancellation.  Every candidate is scored
by recomputing its invariants and the best one is kept: a spurious
quartic root never survives, because its re-sorted triple changes
lambda1.  Near b = c the invariants fix (b^2 - c^2)^2, so b and c come
back with about half the digits (errors up to 5e-7 relative, 3e-5 near
the round metric); a split below the noise floor is taken as b = c
exactly.

Under t -> 2^h t the invariants scale by (8^h, 4^h, 4^h), so the inversion
runs where lambda1 is in [1, 4) and scales the triple back.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import GroupKind, HomsphereError, MetricTriple, SpectralInvariants
from .geometry import scalar_curvature
from .spectrum import lambda1_closed, spectrum_up_to

_VALIDATION_RTOL = 1e-6
# isospectral_check counts x and y as equal when |x - y| <= this * |x|
_ISOSPECTRAL_RTOL = 1e-9


class InconsistentInvariants(HomsphereError, ValueError):
    """No metric in the family reproduces the given spectral invariants."""


class IsospectralVerdict(enum.Enum):
    ISOMETRIC = "isometric"
    DISTINCT_SPECTRA = "distinct_spectra"
    UNDECIDED = "undecided"


@dataclass(frozen=True, slots=True)
class IsospectralResult:
    """Outcome of comparing two truncated spectra.

    For DISTINCT_SPECTRA, ``mu_index`` is the 1-based position of the first
    differing distinct eigenvalue and ``values`` holds the pair (one side
    may be None when a table simply runs out of entries).
    """

    verdict: IsospectralVerdict
    mu_index: int | None = None
    values: tuple[float | None, float | None] | None = None


def invariants(t: MetricTriple, g: GroupKind) -> SpectralInvariants:
    """The rigidity fingerprint (abc, Scal, lambda1, multiplicity)."""
    lam = lambda1_closed(t, g)
    return SpectralInvariants(
        vol_param=t.a * t.b * t.c,
        scal=scalar_curvature(t),
        lambda1=lam.value,
        mult1=lam.multiplicity,
    )


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] given a sign change, bisected to the last bit.

    Stops when the midpoint is no longer strictly inside the bracket.
    """
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        fm = f(mid)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid


def _largest_cubic_root(e1: float, e2: float, e3: float) -> float:
    """Largest root of u^3 - e1 u^2 + e2 u - e3, whose roots are positive.

    A repeated largest root is read off the critical points, where the
    polynomial vanishes to within its rounding noise; otherwise the root
    is bisected above the upper critical point.

    Raises:
        InconsistentInvariants: if the cubic has a complex root pair.
    """

    def p(u: float) -> float:
        return ((u - e1) * u + e2) * u - e3

    sq = math.sqrt(max(e1 * e1 - 3.0 * e2, 0.0))
    u_lo, u_hi = (e1 - sq) / 3.0, (e1 + sq) / 3.0
    p_lo, p_hi = p(u_lo), p(u_hi)
    tau = 8.0 * 2.0**-52 * (e1**3 + e3 + 1.0)
    if abs(p_lo) <= tau and abs(p_hi) <= tau:
        return e1 / 3.0
    if abs(p_hi) <= tau:
        return u_hi
    if p_lo < -tau or p_hi > 0.0:
        raise InconsistentInvariants("cubic has a complex conjugate root pair")
    # all roots are positive and sum to e1
    return _bisect(p, u_hi, e1 * (1.0 + 1e-9) + tau)


def _critical_point(c: float, k: float, am: float, g: float, ev: int) -> float | None:
    """(c + sqrt(c^2 + k alpha g)) / (k alpha / 2), alpha = am 4^-ev, or None.

    None when the discriminant is negative.  The square root is taken in
    factored form, 2^j sqrt(c^2 4^-j + k alpha g 4^-j), so neither alpha
    nor k alpha g is formed: with the volume parameter near 1e-150 both
    leave the float range while the result does not.  Scaling by powers
    of two changes no rounding, so where nothing over- or underflows this
    is bitwise the unfactored formula.
    """
    gm, eg = math.frexp(g)
    e = eg - 2 * ev  # k alpha g = k am gm 2^e
    j = max(e // 2, 0)
    disc = math.ldexp(c * c, -2 * j) + math.ldexp(k * am * gm, e - 2 * j)
    if disc < 0.0:
        return None
    return math.ldexp((math.ldexp(c, -j) + math.sqrt(disc)) / (0.5 * k * am), j + 2 * ev)


def _quartic_roots(p_sum: float, v: float, scal: float) -> list[float]:
    """Positive roots u = a^2 of the residual quartic when b^2 + c^2 = p_sum.

    Eliminating b and c from the curvature formula with abc = v leaves
    R(u) = -alpha u^4 + 8 u^3 + gamma u^2 - 2 v^2, alpha = 2 p_sum^2 / v^2,
    gamma = 4 p_sum - scal.  R(0) < 0, R has one positive local maximum
    u_top, and alpha u^2 < 8 u + |gamma| at every positive root, so each
    root has a bracket on one side of u_top.  With v = vm 2^ev, vm in
    [1/2, 1), R is evaluated as 4^ev R(2^e w) / 2^(4e), with 2^e the
    binade of u_top: its leading coefficient 2 p_sum^2 / vm^2 is near 1,
    and every term stays finite where alpha, v^2 or u_top^4 alone would
    leave the float range.  Where nothing over- or underflows, no rounding
    changes.
    """
    vm, ev = math.frexp(v)
    am = 2.0 * p_sum * p_sum / (vm * vm)  # alpha = am 4^-ev
    gamma = 4.0 * p_sum - scal
    # the critical points solve -2 alpha u^2 + 12 u + gamma = 0
    u_top = _critical_point(12.0, 8.0, am, gamma, ev)
    if u_top is None:
        return []
    e = math.frexp(u_top)[1]
    c3 = math.ldexp(8.0, 2 * ev - e)
    c2 = math.ldexp(gamma, 2 * ev - 2 * e)
    c0 = math.ldexp(2.0 * vm * vm, 4 * ev - 4 * e)

    def rfun(w: float) -> float:
        return ((-am * w + c3) * w + c2) * w * w - c0

    w_top = math.ldexp(u_top, -e)
    r_top = rfun(w_top)
    tau = 8.0 * 2.0**-52 * (am * w_top**4 + c3 * w_top**3 + abs(c2) * w_top**2 + c0)
    if abs(r_top) <= tau:
        return [u_top]
    if r_top < 0.0:
        return []
    # alpha u^2 = 8 u + |gamma| bounds the roots above
    u_max = _critical_point(8.0, 4.0, am, abs(gamma), ev)
    roots = (_bisect(rfun, 0.0, w_top), _bisect(rfun, w_top, math.ldexp(u_max, -e)))
    return [math.ldexp(w, e) for w in roots]


def _split(u: float, p_sum: float, v: float, floor: float) -> MetricTriple:
    """The triple (sqrt(u), b, c) with b^2, c^2 the roots of x^2 - p_sum x + v^2/u.

    A split with (b^2 - c^2)^2 <= floor * p_sum^2, below the noise of the
    reconstruction, is taken as b = c exactly, which also gives a = v / (bc)
    without the noise of u.

    Raises:
        ValueError: if the roots are complex beyond noise or a parameter
            is not positive.
    """
    disc = p_sum * p_sum - 4.0 * v * v / u
    if disc < -1e-10 * p_sum * p_sum:
        raise ValueError("complex split")
    if disc <= floor * p_sum * p_sum:
        half = math.sqrt(0.5 * p_sum)
        return MetricTriple(2.0 * v / p_sum, half, half)
    b2 = 0.5 * (p_sum + math.sqrt(disc))
    return MetricTriple(math.sqrt(u), math.sqrt(b2), v / math.sqrt(u * b2))


def _invariant_residual(inv: SpectralInvariants, t: MetricTriple, g: GroupKind) -> float:
    """Worst relative mismatch between ``inv`` and the invariants of ``t``."""
    fwd = invariants(t, g)
    pairs = (
        (fwd.vol_param, inv.vol_param),
        (fwd.scal, inv.scal),
        (fwd.lambda1, inv.lambda1),
    )
    return max(abs(x - y) / max(1.0, abs(y)) for x, y in pairs)


def recover_triple(inv: SpectralInvariants, g: GroupKind) -> MetricTriple:
    """Reconstruct the canonical metric triple from its spectral invariants.

    The multiplicity selects the equation for u = a^2; each root gives a
    candidate triple, and the one whose own invariants agree best with the
    input is returned if they agree within 1e-6 relative (floored at 1).
    Both steps run on the invariants scaled by a power of two to lambda1
    in [1, 4), where that floor sits at the scale of lambda1, or on a
    thin metric to the largest lambda1 that keeps |Scal| below 2^1020.

    Raises:
        InconsistentInvariants: if the invariants are not realized by any
            metric in the family (to tolerance).
        OverflowError: if an invariant is not finite (the scalar curvature
            of a metric with ab/c above about 1e154 is -inf), or if lambda1
            and Scal are so far apart that no common power-of-two scale
            keeps |Scal| below 2^1020 and lambda1 above 2^-500.
    """
    if not all(map(math.isfinite, (inv.vol_param, inv.scal, inv.lambda1))):
        values = (inv.vol_param, inv.scal, inv.lambda1)
        raise OverflowError(f"the invariants {values} are not finite")
    if inv.vol_param <= 0.0 or inv.lambda1 <= 0.0:
        raise InconsistentInvariants("volume parameter and lambda1 must be positive")
    # lambda1 in [1, 4), unless |Scal| (about 2 (ab/c)^2 on a thin metric)
    # would then pass 2^1020: it is kept 16 times below the float range
    h = max((math.frexp(inv.lambda1)[1] - 1) // 2, -((1020 - math.frexp(inv.scal)[1]) // 2))
    if math.ldexp(inv.lambda1, 500 - 2 * h) < 1.0:
        # lambda1 below 2^-500 would make its square subnormal
        raise OverflowError(
            f"lambda1 {inv.lambda1:.17g} and the scalar curvature {inv.scal:.17g} "
            "are too far apart to scale into the float range together"
        )
    inv = SpectralInvariants(
        vol_param=math.ldexp(inv.vol_param, -3 * h),
        scal=math.ldexp(inv.scal, -2 * h),
        lambda1=math.ldexp(inv.lambda1, -2 * h),
        mult1=inv.mult1,
    )
    lam, v = inv.lambda1, inv.vol_param
    if g is GroupKind.SU2 and inv.mult1 in (4, 7):
        # e2^2 = (ab)^4 + (ac)^4 + (bc)^4 + 2 lambda1 v^2, and the sum of
        # fourth powers is (4 lambda1 - Scal) v^2 / 2
        e2_sq = (8.0 * lam - inv.scal) * v * v / 2.0
        if e2_sq < 0.0:
            raise InconsistentInvariants("scalar curvature incompatible with lambda1")
        u = _largest_cubic_root(lam, math.sqrt(e2_sq), v * v)
        # P = lambda1 - u carries the error of u, which grows as a^2 nears
        # b^2 ~ c^2 (a near-triple root): the floor scales as u / (u - P/2)
        floor = 1e-13 * u / max(1.5 * u - 0.5 * lam, 1e-13 * u)
        candidates = [(u, lam - u, floor)]
    elif (g is GroupKind.SU2 and inv.mult1 == 3) or (
        g is GroupKind.SO3 and inv.mult1 in (3, 6, 9)
    ):
        candidates = [(u, lam / 4.0, 1e-13) for u in _quartic_roots(lam / 4.0, v, inv.scal)]
    else:
        raise InconsistentInvariants(
            f"multiplicity {inv.mult1} is not attained on {g.value}"
        )
    best, best_res = None, math.inf
    for u, p_sum, floor in candidates:
        try:
            cand = _split(u, p_sum, v, floor)
        except ValueError:
            continue
        res = _invariant_residual(inv, cand, g)
        if res < best_res:
            best, best_res = cand, res
    if best is None or best_res > _VALIDATION_RTOL:
        raise InconsistentInvariants(
            f"no metric reproduces the invariants (best residual {best_res:.3e})"
        )
    return MetricTriple(*(math.ldexp(x, h) for x in best.as_tuple()))


def isospectral_check(
    t1: MetricTriple,
    t2: MetricTriple,
    g: GroupKind,
    lam_max: float,
) -> IsospectralResult:
    """Compare two truncated spectra entry by entry.

    ``lam_max`` must be at least 1.1 times both lowest eigenvalues so the
    truncation sees past the fundamental tone.  Eigenvalues and triple
    components x, y count as equal when |x - y| <= 1e-9 |x|.
    Identical tables for equal canonical triples give ISOMETRIC; the first
    differing distinct eigenvalue (value or multiplicity) gives
    DISTINCT_SPECTRA; identical tables for unequal triples give UNDECIDED
    (truncation too short to separate them).
    """
    needed = 1.1 * max(lambda1_closed(t1, g).value, lambda1_closed(t2, g).value)
    if lam_max < needed * (1.0 - 1e-12):
        raise ValueError(f"lam_max {lam_max} below required {needed}")
    tab1 = spectrum_up_to(lam_max, t1, g)
    tab2 = spectrum_up_to(lam_max, t2, g)
    pos1 = [e for e in tab1.entries if e.value > 0.0]
    pos2 = [e for e in tab2.entries if e.value > 0.0]
    for idx in range(max(len(pos1), len(pos2))):
        if idx >= len(pos1):
            return IsospectralResult(
                IsospectralVerdict.DISTINCT_SPECTRA, idx + 1, (None, pos2[idx].value)
            )
        if idx >= len(pos2):
            return IsospectralResult(
                IsospectralVerdict.DISTINCT_SPECTRA, idx + 1, (pos1[idx].value, None)
            )
        e1, e2 = pos1[idx], pos2[idx]
        if (
            abs(e1.value - e2.value) > _ISOSPECTRAL_RTOL * e1.value
            or e1.multiplicity != e2.multiplicity
        ):
            return IsospectralResult(
                IsospectralVerdict.DISTINCT_SPECTRA, idx + 1, (e1.value, e2.value)
            )
    same_triple = all(
        abs(x - y) <= _ISOSPECTRAL_RTOL * x
        for x, y in zip(t1.as_tuple(), t2.as_tuple())
    )
    if same_triple:
        return IsospectralResult(IsospectralVerdict.ISOMETRIC)
    return IsospectralResult(IsospectralVerdict.UNDECIDED)
