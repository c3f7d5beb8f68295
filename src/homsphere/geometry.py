"""Curvature, volume, diameters, and the scale-invariant lambda1 * diam^2.

Diameters are exact whenever at least two parameters coincide; otherwise
squeezing the metric between two such metrics yields certified two-sided
bounds, and every estimate downstream is phrased so that intervals
suffice.
"""

from __future__ import annotations

import math
import sys

from .core import _SO3, _SU2, GroupKind, HomsphereError, MetricTriple, _Record
from .spectrum import lambda1_closed

# tolerance for float dust on closed-form boundary comparisons
_REL_SLACK = 1e-12

SU2_PRODUCT_CAP = 8.0 * math.pi**2
SO3_PRODUCT_CAP = (9.0 - 4.0 * math.sqrt(2.0)) * math.pi**2


class BoundViolation(HomsphereError, ArithmeticError):
    """A certified interval escaped a range that is mathematically guaranteed."""


class EmptyProduct(HomsphereError, ValueError):
    """A product estimate was requested with no factors."""


class DiamBounds(_Record):
    """Diameter as an exact value or a certified [lower, upper] interval."""

    __slots__ = ("lower", "upper", "exact")

    def __init__(self, lower: float, upper: float, exact: float | None = None) -> None:
        if exact is not None and not (lower == exact == upper):
            raise ValueError("exact diameter requires lower = exact = upper")
        if not lower <= upper:  # NaN in either bound among them
            raise ValueError("diameter lower bound exceeds upper bound")
        self._fill(lower, upper, exact)


class ProductSpec(_Record):
    """Factors of a Riemannian product, one metric triple per factor."""

    __slots__ = ("su2_factors", "so3_factors")

    def __init__(
        self,
        su2_factors: tuple[MetricTriple, ...] = (),
        so3_factors: tuple[MetricTriple, ...] = (),
    ) -> None:
        self._fill(su2_factors, so3_factors)


class ProductEstimate(_Record):
    """Lowest eigenvalue and diameter-squared interval of a product metric."""

    __slots__ = (
        "lambda1", "diam2_lower", "diam2_upper", "product_lower", "product_upper", "cap"
    )

    def __init__(
        self,
        lambda1: float,
        diam2_lower: float,
        diam2_upper: float,
        product_lower: float,
        product_upper: float,
        cap: float,
    ) -> None:
        self._fill(lambda1, diam2_lower, diam2_upper, product_lower, product_upper, cap)


class BergerExtremaReport(_Record):
    """Extrema of lambda1 * diam^2 over the metrics with two equal parameters.

    The values are closed forms, attained at the unit-scale triples given.
    """

    __slots__ = ("min_value", "min_triple", "max_value", "max_triple")

    def __init__(
        self,
        min_value: float,
        min_triple: MetricTriple,
        max_value: float,
        max_triple: MetricTriple,
    ) -> None:
        self._fill(min_value, min_triple, max_value, max_triple)


def scalar_curvature(t: MetricTriple) -> float:
    """Scalar curvature 4(a^2+b^2+c^2) - 2(b^2c^2/a^2 + a^2c^2/b^2 + a^2b^2/c^2).

    The same value holds for SU(2) and SO(3), and at every point (the
    metrics are homogeneous).  a^2c^2/b^2 + a^2b^2/c^2 = delta^2 + 2a^2
    with delta = a(b^2 - c^2)/(bc), so the curvature is
    4(b^2+c^2) - 2((bc/a)^2 + delta^2), without the 4a^2 that cancels
    and would take every digit at (1e9, 1, 1) with it.  bc/a and delta are
    formed as ratios times the remaining parameters, so with a >= b >= c
    no intermediate overflows where the curvature does not.
    """
    a, b, c = t.a, t.b, t.c
    bc_a = c / a * b
    delta = (b - c) / c * (b + c) / b * a
    return 4.0 * (b * b + c * c) - 2.0 * (bc_a * bc_a + delta * delta)


def volume(t: MetricTriple, g: GroupKind) -> float:
    """Total volume: 2 pi^2 / (abc) for SU(2), half that for SO(3).

    The normalization makes (1,1,1) the unit round 3-sphere; volume depends
    on the triple only through the product abc.

    Raises:
        OverflowError: if the volume is +inf (abc is 0 or tiny) or below
            the normal float range (abc is +inf or huge), where it keeps
            too few digits.
    """
    abc = t.a * t.b * t.c
    base = 2.0 * math.pi**2 / abc if abc else math.inf
    vol = base if g is _SU2 else 0.5 * base
    if not sys.float_info.min <= vol < math.inf:
        raise OverflowError(
            f"volume = 2 pi^2 / abc with abc = {abc:.17g}, {vol:.17g} on {g.value},"
            " is outside the normal float range"
        )
    return vol


def _su2_lower_diameter(t: MetricTriple) -> float:
    # diameter of the squeezed metric (a, b, b)
    if t.a * t.a <= 2.0 * t.b * t.b:
        return math.pi / t.a
    return math.pi / (2.0 * t.b * math.sqrt(1.0 - (t.b * t.b) / (t.a * t.a)))


def _so3_upper_diameter(t: MetricTriple) -> float:
    # diameter of the stretched metric (b, b, c)
    if 2.0 * t.c * t.c >= t.b * t.b:
        return math.pi / (2.0 * t.c)
    x = (t.c * t.c) / (t.b * t.b)
    return (math.pi / t.b) * math.sqrt(1.0 + 1.0 / (4.0 * (x - 1.0)))


def diameter(t: MetricTriple, g: GroupKind) -> DiamBounds:
    """Diameter, exact when two parameters coincide, else a certified interval.

    The metric (a, b, c) is squeezed between (a, b, b) and (b, b, c), whose
    exact diameters bound its own on both sides.
    SU(2): the lower bound is the diameter of (a, b, b), pi/a if
    a <= sqrt(2) b and pi / (2b sqrt(1 - b^2/a^2)) otherwise; the upper
    bound is pi/b, the diameter of (b, b, c).
    SO(3): the upper bound is the diameter of (b, b, c), pi/(2c) if
    c >= b/sqrt(2) and (pi/b) sqrt(1 + 1/(4(c^2/b^2 - 1))) otherwise; the
    lower bound is pi/(2b), the diameter of (a, b, b).
    When b = c (SU(2)) or a = b (SO(3)) the metric is its own bounding
    metric, so that bound is the diameter; when a = b (SU(2)) or b = c
    (SO(3)) the two bounds are the same float.  So the diameter is exact
    iff a = b or b = c.
    """
    if g is _SU2:
        lo = _su2_lower_diameter(t)
        hi = lo if t.b == t.c else math.pi / t.b
    else:
        hi = _so3_upper_diameter(t)
        lo = hi if t.a == t.b else math.pi / (2.0 * t.b)
    exact = lo if t.a == t.b or t.b == t.c else None
    return DiamBounds(lo, hi, exact)


def product_cap(n_su2: int, n_so3: int) -> float:
    """Upper bound (8m + 6n) pi^2 for lambda1 * diam^2 on an m+n fold product."""
    return (8.0 * n_su2 + 6.0 * n_so3) * math.pi**2


def _check_window(what: str, lo: float, hi: float, cap: float) -> None:
    """Raise BoundViolation unless pi^2 < lo and hi <= cap (up to float dust).

    Both ends get the same relative slack: a lower end that is above pi^2
    in exact arithmetic can round to pi^2 or just below it, as
    (1 + c^2/b^2) pi^2 does when c/b is 1e-10.  An interval not inside
    (0, inf) means lambda1 or diam^2 left the float range; that raises
    OverflowError instead.
    """
    if not (0.0 < lo and hi < math.inf):
        raise OverflowError(f"{what} [{lo}, {hi}] leaves the floating-point range")
    if not (lo > math.pi**2 * (1.0 - _REL_SLACK) and hi <= cap * (1.0 + _REL_SLACK)):
        raise BoundViolation(f"{what} [{lo}, {hi}] escapes (pi^2, {cap}]")


def lambda1_diam2(t: MetricTriple, g: GroupKind) -> tuple[float, float]:
    """Certified interval for lambda1 * diam^2 (a point when diam is exact).

    The result always lies in (pi^2, 8 pi^2] for SU(2) and in
    (pi^2, (9 - 4 sqrt(2)) pi^2] for SO(3); escaping that range would mean
    an implementation bug, reported as BoundViolation.  OverflowError
    means lambda1 or diam^2 left the floating-point range.
    """
    return _lambda1_diam2_of(lambda1_closed(t, g).value, diameter(t, g), g)


def _lambda1_diam2_of(lam: float, d: DiamBounds, g: GroupKind) -> tuple[float, float]:
    """``lambda1_diam2`` from lambda1 and the diameter, for a caller that has both."""
    lo = lam * d.lower * d.lower
    hi = lam * d.upper * d.upper
    cap = SU2_PRODUCT_CAP if g is _SU2 else SO3_PRODUCT_CAP
    _check_window("lambda1*diam^2 interval", lo, hi, cap)
    return lo, hi


def berger_lambda1_diam2_extrema() -> BergerExtremaReport:
    """Extrema of lambda1 * diam^2 over both two-equal-parameter families.

    The product is scale invariant, so the families are parametrized at
    unit scale: (1, 1, c) for 0 < c <= 1 and (a, 1, 1) for a >= 1.  On
    (1, 1, c) the product is (2 + c^2) pi^2, increasing in c.  On (a, 1, 1)
    it is (1 + 2/a^2) pi^2 for a^2 <= 2, a^2 (a^2 + 2) pi^2 / (4 (a^2 - 1))
    for 2 <= a^2 <= 6, and 2 a^2 pi^2 / (a^2 - 1) for a^2 >= 6, which falls
    towards 2 pi^2.  The middle branch has its minimum where
    a^4 - 2 a^2 - 2 = 0, that is a^2 = 1 + sqrt(3).  Hence the maximum
    3 pi^2 sits at the round metric (1, 1, 1) and the minimum
    (1 + sqrt(3)/2) pi^2 at (sqrt(1 + sqrt(3)), 1, 1).  Both values are
    evaluated by ``lambda1_diam2`` at their triples.
    """
    min_triple = MetricTriple(math.sqrt(1.0 + math.sqrt(3.0)), 1.0, 1.0)
    max_triple = MetricTriple(1.0, 1.0, 1.0)
    return BergerExtremaReport(
        min_value=lambda1_diam2(min_triple, _SU2)[0],
        min_triple=min_triple,
        max_value=lambda1_diam2(max_triple, _SU2)[0],
        max_triple=max_triple,
    )


def product_estimate(p: ProductSpec) -> ProductEstimate:
    """Estimate lambda1 * diam^2 for a direct product of these metrics.

    lambda1 of the product is the minimum of the factor values; the squared
    diameter is the sum of the factor squares (an interval when any factor
    is generic).  The certified product interval always lies in
    (pi^2, (8m + 6n) pi^2].

    Raises:
        EmptyProduct: if ``p`` has no factors.
        BoundViolation: if the certified interval escapes the range above.
        OverflowError: if lambda1 or diam^2 leaves the floating-point range.
    """
    factors = [(t, _SU2) for t in p.su2_factors]
    factors += [(t, _SO3) for t in p.so3_factors]
    if not factors:
        raise EmptyProduct("a product needs at least one factor")
    lam = min(lambda1_closed(t, g).value for t, g in factors)
    lo2 = hi2 = 0.0
    for t, g in factors:
        d = diameter(t, g)
        lo2 += d.lower * d.lower
        hi2 += d.upper * d.upper
    cap = product_cap(len(p.su2_factors), len(p.so3_factors))
    p_lo, p_hi = lam * lo2, lam * hi2
    _check_window("product interval", p_lo, p_hi, cap)
    return ProductEstimate(
        lambda1=lam,
        diam2_lower=lo2,
        diam2_upper=hi2,
        product_lower=p_lo,
        product_upper=p_hi,
        cap=cap,
    )


def yamabe_gap(t: MetricTriple, g: GroupKind) -> float:
    """The gap lambda1 - Scal/2.

    Nonnegative on SU(2) with equality exactly at the round metrics, and
    strictly positive on SO(3); positivity rules out nearby constant
    scalar curvature metrics in the conformal class.
    """
    return lambda1_closed(t, g).value - 0.5 * scalar_curvature(t)
