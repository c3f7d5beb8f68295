"""Spectral invariants and the constructive inverse problem.

Four spectral invariants, the volume parameter v = abc, the scalar
curvature, the lowest positive eigenvalue lambda1 and its multiplicity,
pin down the metric triple uniquely.  ``recover_triple`` solves one
equation for one unknown, so each case yields one candidate:

* When lambda1 = a^2 + b^2 + c^2 (SU(2), multiplicity 4 or 7), a^2 is the
  largest root of the cubic with roots a^2, b^2, c^2, whose coefficients
  the invariants determine.  Under t -> 2^h t the invariants v and lambda1
  scale by 8^h and 4^h, so the cubic is solved with both scaled to
  lambda1 in [1, 4), where its noise floor is set.  Its middle
  coefficient is formed from the given invariants and then scaled; Scal
  itself is never scaled.

* When lambda1 = 4(b^2 + c^2) = 4P (SU(2) multiplicity 3, every SO(3)
  case), z = a^2 P / v = a(b^2 + c^2)/(bc) turns the curvature into
  h(z) = 2 z^2 + 2 (P/z)^2 - 8 (v/P) z + Scal - 4P = 0.  Under
  t -> 2^-j t, v, Scal and lambda1 scale by 8^-j, 4^-j and 4^-j, z by
  2^-j and h by 4^-j, exactly in floats.  h is solved at the given scale
  unless v/lambda1, about z/16 there, is 2^499 or more, where z^2 and a^2
  would overflow; then it is solved at the scale that brings v/lambda1
  below 2^499, and the triple is scaled back.  h is convex, and
  the metric is its larger root: h' > 0 there reduces to
  a^4 (b^4 + c^4) > b^4 c^4.  Then a^2 = z v / P.  On SO(3) the
  multiplicity fixes the class, and the triple is built in it: 9 is the
  round metric, with a^2 = P/2, and 6 is a = b > c, with c = P/z.

Otherwise b^2 + c^2 = P and bc = v/a are known, and one split gives b and c
without forming v^2.  Near b = c the invariants fix (b^2 - c^2)^2, so b
and c come back with about half the digits (errors up to 5e-7 relative,
3e-5 near the round metric); a split below the noise floor is taken as
b = c exactly.  The candidate is checked by recomputing its invariants.
"""

from __future__ import annotations

import enum
import math
import sys
from itertools import zip_longest

from .core import (
    GroupKind,
    HomsphereError,
    MetricTriple,
    NonPositiveParameter,
    SpectralInvariants,
    _Record,
)
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


class IsospectralResult(_Record):
    """Outcome of comparing two truncated spectra.

    For DISTINCT_SPECTRA, ``mu_index`` is the 1-based position of the first
    differing distinct eigenvalue and ``values`` holds the pair (one side
    may be None when a table simply runs out of entries).
    """

    __slots__ = ("verdict", "mu_index", "values")

    def __init__(
        self,
        verdict: IsospectralVerdict,
        mu_index: int | None = None,
        values: tuple[float | None, float | None] | None = None,
    ) -> None:
        self._fill(verdict, mu_index, values)


def invariants(t: MetricTriple, g: GroupKind) -> SpectralInvariants:
    """The rigidity fingerprint (abc, Scal, lambda1, multiplicity).

    Raises:
        OverflowError: if abc underflows to 0, as ``geometry.volume`` does.
    """
    v = t.a * t.b * t.c
    if not v:
        raise OverflowError(f"volume parameter abc of {t.as_tuple()} underflows to 0")
    lam = lambda1_closed(t, g)
    return SpectralInvariants(
        vol_param=v,
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
    is bisected above the upper critical point.  The noise floor is
    absolute, sized for e1 in [1, 4).

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


def _z_root(p: float, v: float, scal: float) -> float:
    """The larger root of h(z) = 2 z^2 + 2 (p/z)^2 - 8 (v/p) z + scal - 4p.

    h is convex, and h'(sqrt p) = -8 v/p < 0 < h'(sqrt p + 2 v/p), so its
    minimum is bisected on that bracket.  Above the minimum h increases,
    and the root lies below the larger root of 2 z^2 - 8 (v/p) z + scal - 4p,
    which is at most h.  (p/z)^2 and z^2 are products, not powers, so
    that a term too large for a float becomes inf rather than an error.

    Raises:
        InconsistentInvariants: if h has no root.
    """
    w = v / p

    def h(z: float) -> float:
        q = p / z
        return 2.0 * (z * z) + 2.0 * (q * q) - 8.0 * w * z + (scal - 4.0 * p)

    def dh(z: float) -> float:
        q = p / z
        return 4.0 * z - 4.0 * (q * q) / z - 8.0 * w

    root_p = math.sqrt(p)
    z_min = _bisect(dh, root_p, root_p + 2.0 * w)
    if h(z_min) >= 0.0:
        raise InconsistentInvariants("scalar curvature incompatible with lambda1")
    z_max = 2.0 * w + math.sqrt(max(4.0 * w * w - 0.5 * (scal - 4.0 * p), 0.0))
    return _bisect(h, z_min, z_max)


def _split(u: float, p_sum: float, v: float, floor: float) -> MetricTriple:
    """The triple (sqrt(u), b, c) with b^2 + c^2 = p_sum and bc = v / sqrt(u).

    (b^2 - c^2)^2 / p_sum = p_sum - 4 (bc)^2 / p_sum is formed as
    p_sum - 4 (bc / p_sum) bc, so neither v^2 nor p_sum^2 is.  A split with
    (b^2 - c^2)^2 <= floor * p_sum^2, below the noise of the reconstruction,
    is taken as b = c exactly, which also gives a = 2 v / p_sum without the
    noise of u.

    Raises:
        InconsistentInvariants: if b and c are complex beyond noise.
    """
    a = math.sqrt(u)
    bc = v / a
    disc = p_sum - 4.0 * (bc / p_sum) * bc
    if disc < -1e-10 * p_sum:
        raise InconsistentInvariants("b^2 and c^2 are complex")
    if disc <= floor * p_sum:
        half = math.sqrt(0.5 * p_sum)
        return MetricTriple(2.0 * (v / p_sum), half, half)
    b = math.sqrt(0.5 * (p_sum + math.sqrt(p_sum) * math.sqrt(disc)))
    # not bc / b: bc = v / a underflows where c does not
    return MetricTriple(a, b, v / (a * b))


def recover_triple(inv: SpectralInvariants, g: GroupKind) -> MetricTriple:
    """Reconstruct the canonical metric triple from its spectral invariants.

    The multiplicity selects the equation, and its one solution gives the
    one candidate triple: a^2 from the cubic, solved with lambda1 and v
    scaled by powers of two to lambda1 in [1, 4), or z from h(z) = 0,
    solved at the given scale or, where a^2 would overflow, with v, Scal
    and lambda1 scaled down by powers of two until v/lambda1 < 2^499.
    SO(3) multiplicities 6 and 9 build the candidate in their class,
    a = b > c or round, so that it keeps the multiplicity.  The candidate
    is returned if its own invariants reproduce v and lambda1 within 1e-6
    of themselves, and Scal within 1e-6 of
    4(a^2+b^2+c^2) + 2((bc/a)^2 + (ac/b)^2 + (ab/c)^2), the size of its
    sensitivity to the candidate's own error: a relative error
    e in a, b or c moves Scal by up to about 2e times that sum, which
    exceeds |Scal| many times over when a >> b ~ c.

    Raises:
        InconsistentInvariants: if the invariants are not realized by any
            metric in the family (to tolerance).
        OverflowError: if an invariant is not finite (the scalar curvature
            of a metric with ab/c above about 1e154 is -inf).
        ArithmeticError: if v or lambda1 is a subnormal float, which
            carries fewer than 53 significant bits, or if lambda1 / 4 is 0
            once v / lambda1 is scaled below 2^499, as for the metric
            (2e300, 1e-150, 1e-150), where the z equation cannot be solved.
    """
    v, scal, lam = inv.vol_param, inv.scal, inv.lambda1
    if not all(map(math.isfinite, (v, scal, lam))):
        raise OverflowError(f"the invariants {(v, scal, lam)} are not finite")
    if v <= 0.0 or lam <= 0.0:
        raise InconsistentInvariants("volume parameter and lambda1 must be positive")
    # the scale of the z equation: v / lambda1 below 2^499 keeps z^2 and a^2
    # finite (the cubic sets its own h)
    h = max(math.frexp(v / lam)[1] - 499, 0)
    if min(v, lam) < sys.float_info.min or math.ldexp(lam, -2 * h) / 4.0 == 0.0:
        # the noise floors below assume invariants rounded to 53 bits, and the
        # z equation divides by P = lambda1 / 4 at its scale: a subnormal P
        # can still recover the triple, a P of 0 cannot
        raise ArithmeticError(
            f"v = {v:.17g} or lambda1 = {lam:.17g} is subnormal, or lambda1 / 4"
            f" is 0 once scaled by 4^-{h} to bring v / lambda1 below 2^499"
        )
    try:
        if g is GroupKind.SU2 and inv.mult1 in (4, 7):
            # e2^2 = (ab)^4 + (ac)^4 + (bc)^4 + 2 lambda1 v^2, and the sum of
            # fourth powers is (4 lambda1 - Scal) v^2 / 2, so e2 = v sqrt(e2_v)
            e2_v = 4.0 * lam - 0.5 * scal
            if e2_v < 0.0:
                raise InconsistentInvariants("scalar curvature incompatible with lambda1")
            # under t -> 2^h t, v, e2 and lambda1 scale by 8^h, 16^h and 4^h
            h = (math.frexp(lam)[1] - 1) // 2
            lam, v = math.ldexp(lam, -2 * h), math.ldexp(v, -3 * h)
            u = _largest_cubic_root(lam, v * math.ldexp(math.sqrt(e2_v), -h), v * v)
            # P = lambda1 - u carries the error of u, which grows as a^2 nears
            # b^2 ~ c^2 (a near-triple root): the floor scales as u / (u - P/2)
            floor = 1e-13 * u / max(1.5 * u - 0.5 * lam, 1e-13 * u)
            t = _split(u, lam - u, v, floor)
        elif (g is GroupKind.SU2 and inv.mult1 == 3) or (
            g is GroupKind.SO3 and inv.mult1 in (3, 6, 9)
        ):
            p_sum, v = math.ldexp(lam, -2 * h) / 4.0, math.ldexp(v, -3 * h)
            z = _z_root(p_sum, v, math.ldexp(scal, -2 * h))
            if inv.mult1 == 9:  # SO(3) round: lambda1 = 8 a^2
                a = math.sqrt(0.5 * p_sum)
                t = MetricTriple(a, a, a)
            elif inv.mult1 == 6:
                # SO(3) with a = b > c: z = (a^2 + c^2) / c, and c is kept
                # below a where the two round to one float
                a = math.sqrt(z * (v / p_sum))
                t = MetricTriple(a, a, min(p_sum / z, math.nextafter(a, 0.0)))
            else:
                t = _split(z * (v / p_sum), p_sum, v, 1e-13)
        else:
            raise InconsistentInvariants(
                f"multiplicity {inv.mult1} is not attained on {g.value}"
            )
        t = t.scaled(math.ldexp(1.0, h))
    except (ArithmeticError, NonPositiveParameter) as exc:
        # a float range error or a non-positive parameter in the candidate
        raise InconsistentInvariants(f"no metric reproduces the invariants: {exc}") from exc
    fwd = invariants(t, g)
    # 8(a^2+b^2+c^2) - Scal is the sum of the magnitudes of the terms of the
    # expanded Scal, which bounds how far the candidate's error moves it
    scal_size = 8.0 * (t.a * t.a + t.b * t.b + t.c * t.c) - fwd.scal
    checks = (
        (fwd.vol_param, inv.vol_param, inv.vol_param),
        (fwd.lambda1, inv.lambda1, inv.lambda1),
        (fwd.scal, inv.scal, scal_size),
    )
    if not all(abs(x - y) <= _VALIDATION_RTOL * size for x, y, size in checks):
        raise InconsistentInvariants("no metric reproduces the invariants to 1e-6")
    return t


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
    # a table is a function of (bound, triple, group): equal triples share one
    tab2 = tab1 if t2 == t1 else spectrum_up_to(lam_max, t2, g)
    # compared on their columns; both tables open with (0, 1), which never
    # differs, and one that runs out reads as (None, 0) from there on
    pairs = zip_longest(
        zip(tab1.values, tab1.multiplicities),
        zip(tab2.values, tab2.multiplicities),
        fillvalue=(None, 0),
    )
    for idx, ((x, m1), (y, m2)) in enumerate(pairs):
        if x is None or y is None or abs(x - y) > _ISOSPECTRAL_RTOL * x or m1 != m2:
            return IsospectralResult(IsospectralVerdict.DISTINCT_SPECTRA, idx, (x, y))
    same_triple = all(
        abs(x - y) <= _ISOSPECTRAL_RTOL * x
        for x, y in zip(t1.as_tuple(), t2.as_tuple())
    )
    return IsospectralResult(
        IsospectralVerdict.ISOMETRIC if same_triple else IsospectralVerdict.UNDECIDED
    )
