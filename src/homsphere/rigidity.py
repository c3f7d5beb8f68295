"""Spectral invariants and the constructive inverse problem.

Four spectral invariants, the volume parameter abc, the scalar curvature,
the lowest positive eigenvalue and its multiplicity, pin down the metric
triple uniquely.  ``recover_triple`` inverts them:

* When the lowest eigenvalue equals a^2+b^2+c^2 (multiplicity 4 or 7),
  the three squares a^2, b^2, c^2 are recovered as the roots of a cubic
  whose coefficients are the elementary symmetric functions, all of which
  are determined by the invariants.

* Otherwise (multiplicity 3, and every SO(3) case) the lowest eigenvalue
  fixes b^2 + c^2 and the volume fixes a*b*c, which turns the scalar
  curvature equation into a quartic in a^2.  Its positive roots are
  enumerated by bracketed bisection and each candidate is validated by
  recomputing the invariants; the spurious root never survives validation
  because its re-sorted triple changes the invariants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import GroupKind, HomsphereError, MetricTriple, SpectralInvariants
from .geometry import scalar_curvature
from .spectrum import lambda1_closed, spectrum_up_to

_VALIDATION_RTOL = 1e-6
# isospectral_check counts x and y as equal when |x - y| <= this * max(1, |x|)
_ISOSPECTRAL_RTOL = 1e-9
_MAX_BISECTIONS = 200


class InconsistentInvariants(HomsphereError, ValueError):
    """No metric in the family reproduces the given spectral invariants."""


class IsospectralVerdict(enum.Enum):
    ISOMETRIC = "isometric"
    DISTINCT_SPECTRA = "distinct_spectra"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
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


def _bisect(f, lo: float, hi: float, rel_tol: float = 1e-15) -> float:
    """Root of f on [lo, hi] given a sign change; plain bisection."""
    flo = f(lo)
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * max(1.0, abs(mid)):
            return mid
        fm = f(mid)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cubic_roots_descending(e1: float, e2: float, e3: float) -> tuple[float, float, float]:
    """The three real roots of u^3 - e1 u^2 + e2 u - e3, sorted descending.

    The roots are known a priori to be real and positive (they are squared
    metric parameters), possibly repeated.  Repetition is detected from the
    polynomial values at the critical points rather than by a discriminant
    branch, which stays robust when the input sits exactly on a repeated
    root.

    Raises:
        InconsistentInvariants: if the polynomial has complex or
            nonpositive roots beyond tolerance.
    """

    def p(u: float) -> float:
        return ((u - e1) * u + e2) * u - e3

    if e3 <= 0.0 or e1 <= 0.0:
        raise InconsistentInvariants("cubic coefficients imply nonpositive roots")
    crit_disc = e1 * e1 - 3.0 * e2
    scale = abs(e1) ** 3 + abs(e3) + 1.0
    tau = 8.0 * 2.0**-52 * scale
    if crit_disc <= 0.0:
        # no two critical points: only possible (within noise) for a triple root
        if crit_disc < -1e-10 * max(e1 * e1, 1.0) or abs(p(e1 / 3.0)) > tau:
            raise InconsistentInvariants("cubic has complex roots")
        r = e1 / 3.0
        return (r, r, r)
    sq = math.sqrt(crit_disc)
    u_lo = (e1 - sq) / 3.0
    u_hi = (e1 + sq) / 3.0
    p_lo, p_hi = p(u_lo), p(u_hi)
    hi_edge = e1 * (1.0 + 1e-9) + tau  # all roots are positive and sum to e1

    roots: list[float]
    if abs(p_lo) <= tau and abs(p_hi) <= tau:
        r = e1 / 3.0
        roots = [r, r, r]
    elif abs(p_lo) <= tau:
        roots = [u_lo, u_lo, _bisect(p, u_hi, hi_edge)]
    elif abs(p_hi) <= tau:
        roots = [_bisect(p, 0.0, u_lo), u_hi, u_hi]
    elif p_lo > 0.0 and p_hi < 0.0:
        roots = [
            _bisect(p, 0.0, u_lo),
            _bisect(p, u_lo, u_hi),
            _bisect(p, u_hi, hi_edge),
        ]
    else:
        raise InconsistentInvariants("cubic has a complex conjugate root pair")
    roots.sort(reverse=True)
    if roots[-1] <= 0.0:
        raise InconsistentInvariants("cubic has a nonpositive root")
    return (roots[0], roots[1], roots[2])


def _recover_sum_branch(inv: SpectralInvariants) -> MetricTriple:
    """Inversion when lambda1 = a^2 + b^2 + c^2 (multiplicity 4 or 7)."""
    e1 = inv.lambda1
    e3 = inv.vol_param * inv.vol_param
    quartic_power_sum = (4.0 * e1 - inv.scal) * e3 / 2.0  # (ab)^4+(ac)^4+(bc)^4
    e2_sq = quartic_power_sum + 2.0 * e1 * e3
    if e2_sq < 0.0:
        raise InconsistentInvariants("scalar curvature incompatible with lambda1")
    e2 = math.sqrt(e2_sq)
    ra, rb, rc = _cubic_roots_descending(e1, e2, e3)
    return MetricTriple(math.sqrt(ra), math.sqrt(rb), math.sqrt(rc))


def _quartic_candidates(inv: SpectralInvariants) -> list[float]:
    """Positive roots u = a^2 of the scalar-curvature residual quartic.

    With P = lambda1/4 = b^2+c^2 and v = abc fixed, eliminating b and c
    from the curvature formula leaves
    R(u) = -(2 P^2 / v^2) u^4 + 8 u^3 + (4P - Scal) u^2 - 2 v^2 = 0.
    R is negative at 0 and at infinity with at most one positive local
    maximum, so it has at most two positive roots.
    """
    p_sum = inv.lambda1 / 4.0
    v2 = inv.vol_param * inv.vol_param
    alpha = 2.0 * p_sum * p_sum / v2
    gamma = 4.0 * p_sum - inv.scal

    def rfun(u: float) -> float:
        return ((-alpha * u + 8.0) * u + gamma) * u * u - 2.0 * v2

    # positive critical points solve -2 alpha u^2 + 12 u + gamma = 0
    disc = 144.0 + 8.0 * alpha * gamma
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    crits = sorted(u for u in ((12.0 - sq) / (4.0 * alpha), (12.0 + sq) / (4.0 * alpha)) if u > 0.0)
    if not crits:
        return []
    u_top = crits[-1]
    r_top = rfun(u_top)
    tau = 8.0 * 2.0**-52 * (alpha * u_top**4 + 8.0 * u_top**3 + abs(gamma) * u_top**2 + 2.0 * v2)
    if abs(r_top) <= tau:
        return [u_top]
    if r_top < 0.0:
        return []
    # left root: walk down from the maximum until R < 0, then bisect
    lo = u_top
    for _ in range(4400):
        lo *= 0.5
        if rfun(lo) < 0.0:
            break
    else:
        raise InconsistentInvariants("failed to bracket the residual quartic")
    left = _bisect(rfun, lo, u_top)
    # right root: walk up until R < 0
    hi = u_top
    for _ in range(4400):
        hi *= 2.0
        if rfun(hi) < 0.0:
            break
    else:
        raise InconsistentInvariants("failed to bracket the residual quartic")
    right = _bisect(rfun, u_top, hi)
    return [left, right]


def _recover_four_bc_branch(inv: SpectralInvariants, g: GroupKind) -> MetricTriple:
    """Inversion when lambda1 = 4(b^2+c^2) (SU(2) mult 3 and all SO(3))."""
    p_sum = inv.lambda1 / 4.0
    v = inv.vol_param
    best: MetricTriple | None = None
    best_res = math.inf
    for u in _quartic_candidates(inv):
        disc = p_sum * p_sum - 4.0 * v * v / u
        if disc < -1e-10 * p_sum * p_sum:
            continue
        try:
            if disc <= 1e-13 * p_sum * p_sum:
                # the split (b^2-c^2)^2 is below the noise floor of the
                # reconstruction: take b = c exactly, which also gives the
                # stretch directly as a = v / (bc) without the root's noise
                half = math.sqrt(0.5 * p_sum)
                cand = MetricTriple(2.0 * v / p_sum, half, half)
            else:
                sq = math.sqrt(disc)
                b2 = 0.5 * (p_sum + sq)
                c2 = 2.0 * v * v / (u * (p_sum + sq))  # stable form of (P - sq)/2
                cand = MetricTriple(math.sqrt(u), math.sqrt(b2), math.sqrt(c2))
        except ValueError:
            continue
        res = _invariant_residual(inv, cand, g)
        if res < best_res:
            best, best_res = cand, res
    if best is None or best_res > _VALIDATION_RTOL:
        raise InconsistentInvariants(
            f"no admissible stretch parameter reproduces the invariants "
            f"(best residual {best_res:.3e})"
        )
    return best


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

    The multiplicity selects the inversion branch; the reconstructed triple
    is accepted only if its own invariants agree with the input within
    relative 1e-6.

    Raises:
        InconsistentInvariants: if the invariants are not realized by any
            metric in the family (to tolerance).
    """
    if inv.vol_param <= 0.0 or inv.lambda1 <= 0.0:
        raise InconsistentInvariants("volume parameter and lambda1 must be positive")
    if g is GroupKind.SU2 and inv.mult1 in (4, 7):
        triple = _recover_sum_branch(inv)
    elif (g is GroupKind.SU2 and inv.mult1 == 3) or (
        g is GroupKind.SO3 and inv.mult1 in (3, 6, 9)
    ):
        triple = _recover_four_bc_branch(inv, g)
    else:
        raise InconsistentInvariants(
            f"multiplicity {inv.mult1} is not attained on {g.value}"
        )
    res = _invariant_residual(inv, triple, g)
    if res > _VALIDATION_RTOL:
        raise InconsistentInvariants(
            f"reconstructed triple misses the invariants (residual {res:.3e})"
        )
    return triple


def isospectral_check(
    t1: MetricTriple,
    t2: MetricTriple,
    g: GroupKind,
    lam_max: float,
) -> IsospectralResult:
    """Compare two truncated spectra entry by entry.

    ``lam_max`` must be at least 1.1 times both lowest eigenvalues so the
    truncation sees past the fundamental tone.  Eigenvalues and triple
    components x, y count as equal when |x - y| <= 1e-9 max(1, |x|).
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
            abs(e1.value - e2.value) > _ISOSPECTRAL_RTOL * max(1.0, abs(e1.value))
            or e1.multiplicity != e2.multiplicity
        ):
            return IsospectralResult(
                IsospectralVerdict.DISTINCT_SPECTRA, idx + 1, (e1.value, e2.value)
            )
    same_triple = all(
        abs(x - y) <= _ISOSPECTRAL_RTOL * max(1.0, abs(x))
        for x, y in zip(t1.as_tuple(), t2.as_tuple())
    )
    if same_triple:
        return IsospectralResult(IsospectralVerdict.ISOMETRIC)
    return IsospectralResult(IsospectralVerdict.UNDECIDED)
