import math
from fractions import Fraction

import numpy as np
import pytest

from homsphere.core import GroupKind, MetricTriple
from homsphere.geometry import (
    SO3_PRODUCT_CAP,
    SU2_PRODUCT_CAP,
    BoundViolation,
    EmptyProduct,
    ProductSpec,
    berger_lambda1_diam2_extrema,
    diameter,
    lambda1_diam2,
    product_cap,
    product_estimate,
    scalar_curvature,
    volume,
    _check_window,
    yamabe_gap,
)
from homsphere.spectrum import lambda1_closed

SU2 = GroupKind.SU2
SO3 = GroupKind.SO3
PI = math.pi
PI2 = math.pi**2


def test_scalar_curvature_values():
    assert scalar_curvature(MetricTriple(1, 1, 1)) == 6.0
    assert scalar_curvature(MetricTriple(2, 1, 1)) == pytest.approx(7.5, rel=1e-15)
    # only the raw formula is trusted; spot-check an asymmetric case
    t = MetricTriple(3, 2, 1)
    expected = 4 * (9 + 4 + 1) - 2 * (4 / 9 + 9 / 4 + 36)
    assert scalar_curvature(t) == pytest.approx(expected, rel=1e-15)


def test_scalar_curvature_is_accurate_where_its_terms_cancel():
    # against the exact rational value of the float triple: the form
    # 4(a^2+b^2+c^2) - 2(...) lost every digit of the 4 a^2 that cancels
    rng = np.random.default_rng(23)
    for row in 10.0 ** rng.uniform(-8, 8, size=(3000, 3)):
        t = MetricTriple(*row)
        a, b, c = map(Fraction, t.as_tuple())
        exact = 4 * (a * a + b * b + c * c) - 2 * (
            (b * c / a) ** 2 + (a * c / b) ** 2 + (a * b / c) ** 2
        )
        assert abs(Fraction(scalar_curvature(t)) - exact) <= Fraction(1, 10**12) * abs(exact), t
    # a >> b = c: Scal = 8 - 2e-18 and lambda1 - Scal/2 = 4, not 0 and 8
    assert scalar_curvature(MetricTriple(1e9, 1, 1)) == 8.0
    assert yamabe_gap(MetricTriple(1e9, 1, 1), SU2) == 4.0


def test_scalar_curvature_scaling():
    t = MetricTriple(2.3, 1.1, 0.7)
    assert scalar_curvature(t.scaled(3.0)) == pytest.approx(
        9.0 * scalar_curvature(t), rel=1e-13
    )


@pytest.mark.parametrize("triple", [(2.3, 1.1, 0.7), (3.0, 1.0, 0.9), (1.4, 1.4, 0.8), (1.7, 1.0, 1.0)])
def test_scalar_curvature_exact_under_power_of_two_scaling(triple):
    # no intermediate product may overflow or underflow before the curvature does
    t = MetricTriple(*triple)
    base = scalar_curvature(t)
    for j in range(-500, 501):
        assert scalar_curvature(t.scaled(math.ldexp(1.0, j))) == math.ldexp(base, 2 * j), j


def test_volume_values():
    assert volume(MetricTriple(1, 1, 1), SU2) == pytest.approx(2 * PI2, rel=1e-15)
    assert volume(MetricTriple(1, 1, 1), SO3) == pytest.approx(PI2, rel=1e-15)
    assert volume(MetricTriple(2, 1, 1), SU2) == pytest.approx(PI2, rel=1e-15)


@pytest.mark.parametrize("triple", [(1e120,) * 3, (1e-110,) * 3, (1e-120, 1e-100, 1e-100)])
@pytest.mark.parametrize("g", [SU2, SO3])
def test_volume_outside_the_normal_range_raises(triple, g):
    # abc overflows, so the volume rounds to 0; abc underflows to 0; abc is
    # a subnormal so small that 2 pi^2 / abc is inf.  A finite abc gives a
    # volume of at least pi^2 / 1.8e308, which is normal
    with pytest.raises(OverflowError, match="outside the normal float range"):
        volume(MetricTriple(*triple), g)


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((1, 1, 1), PI),
        ((2, 2, 1), PI / 2),                     # a = b: pi / b
        ((1.2, 1, 1), PI / 1.2),                 # b = c >= a/sqrt(2): pi / a
        ((2, 1, 1), PI / math.sqrt(3.0)),        # b = c < a/sqrt(2)
    ],
)
def test_su2_exact_diameters(triple, expected):
    d = diameter(MetricTriple(*triple), SU2)
    assert d.exact == pytest.approx(expected, rel=1e-15)


def test_su2_diameter_case_boundary_agrees():
    a = math.sqrt(2.0)
    second = PI / a
    third = PI / (2.0 * math.sqrt(1.0 - 1.0 / (a * a)))
    assert second == pytest.approx(third, rel=1e-15)
    assert diameter(MetricTriple(a, 1, 1), SU2).exact == pytest.approx(second, rel=1e-15)


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((2, 1, 1), PI / 2),        # a > b = c: pi / (2b)
        ((1, 1, 1), PI / 2),        # round: pi / (2c)
        ((1, 1, 0.8), PI / 1.6),    # a = b, c >= b/sqrt(2): pi / (2c)
    ],
)
def test_so3_exact_diameters(triple, expected):
    d = diameter(MetricTriple(*triple), SO3)
    assert d.exact == pytest.approx(expected, rel=1e-15)


def test_so3_squashed_diameter_formula():
    t = MetricTriple(1, 1, 0.5)  # c < b / sqrt(2)
    x = 0.25
    expected = PI * math.sqrt(1.0 + 1.0 / (4.0 * (x - 1.0)))
    assert diameter(t, SO3).exact == pytest.approx(expected, rel=1e-15)


def test_so3_diameter_case_boundary_agrees():
    c = 1.0 / math.sqrt(2.0)
    first = PI / (2.0 * c)
    x = c * c
    second = PI * math.sqrt(1.0 + 1.0 / (4.0 * (x - 1.0)))
    assert first == pytest.approx(second, rel=1e-14)


def test_generic_interval_brackets_nearby_exact_values():
    rng = np.random.default_rng(21)
    for _ in range(100):
        t = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        for g in (SU2, SO3):
            d = diameter(t, g)
            assert d.lower <= d.upper
            squeezed = diameter(MetricTriple(t.a, t.b, t.b), g)
            stretched = diameter(MetricTriple(t.b, t.b, t.c), g)
            assert d.lower <= squeezed.exact * (1 + 1e-12) or squeezed.exact is None
            assert stretched.exact is None or d.upper >= stretched.exact * (1 - 1e-12)


@pytest.mark.parametrize("g", [SU2, SO3])
def test_bounds_are_the_exact_diameters_of_the_squeezing_metrics(g):
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b, c = sorted(10.0 ** rng.uniform(-2, 2, size=3), reverse=True)
        for t in (MetricTriple(a, b, c), MetricTriple(a, math.nextafter(a, 0.0), c),
                  MetricTriple(a, b, math.nextafter(b, 0.0))):
            d = diameter(t, g)
            assert d.lower == diameter(MetricTriple(t.a, t.b, t.b), g).exact
            assert d.upper == diameter(MetricTriple(t.b, t.b, t.c), g).exact
            assert d.exact is None
        for t in (MetricTriple(a, a, c), MetricTriple(a, c, c), MetricTriple(b, b, b)):
            d = diameter(t, g)
            assert d.exact is not None and d.lower == d.exact == d.upper


def test_exact_berger_diameter_scaling():
    t = MetricTriple(2, 1, 1)
    d1 = diameter(t, SU2).exact
    d2 = diameter(t.scaled(2.0), SU2).exact
    assert d2 == pytest.approx(d1 / 2.0, rel=1e-14)


def test_diameter_times_b_window():
    rng = np.random.default_rng(22)
    for _ in range(200):
        t = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        d_su2 = diameter(t, SU2)
        assert d_su2.lower > PI / (2 * t.b)
        assert d_su2.upper <= PI / t.b * (1 + 1e-12)
        d_so3 = diameter(t, SO3)
        assert d_so3.lower >= PI / (2 * t.b) * (1 - 1e-12)
        assert d_so3.upper < math.sqrt(3.0) * PI / (2 * t.b)


def test_lambda1_window_in_b():
    rng = np.random.default_rng(23)
    for _ in range(200):
        t = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        b2 = t.b * t.b
        lam_su2 = lambda1_closed(t, SU2).value
        lam_so3 = lambda1_closed(t, SO3).value
        assert 2 * b2 < lam_su2 <= 8 * b2 * (1 + 1e-12)
        assert 4 * b2 < lam_so3 <= 8 * b2 * (1 + 1e-12)


def test_lambda1_diam2_round_point():
    lo, hi = lambda1_diam2(MetricTriple(1, 1, 1), SU2)
    assert lo == hi
    assert lo == pytest.approx(3 * PI2, rel=1e-15)


def test_lambda1_diam2_berger_values():
    # b = c with a^2 = 6 b^2 sits at the end of the middle segment: 12 pi^2 / 5
    t = MetricTriple(math.sqrt(6.0), 1, 1)
    lo, hi = lambda1_diam2(t, SU2)
    assert lo == hi == pytest.approx(12.0 * PI2 / 5.0, rel=1e-14)
    # the family minimizer b^2/a^2 = (sqrt(3)-1)/2
    a = math.sqrt(2.0 / (math.sqrt(3.0) - 1.0))
    lo, hi = lambda1_diam2(MetricTriple(a, 1, 1), SU2)
    assert lo == pytest.approx((1.0 + math.sqrt(3.0) / 2.0) * PI2, rel=1e-14)


def test_lambda1_diam2_scale_invariance():
    t = MetricTriple(2.9, 1.3, 0.8)
    lo1, hi1 = lambda1_diam2(t, SU2)
    lo2, hi2 = lambda1_diam2(t.scaled(3.7), SU2)
    assert lo2 == pytest.approx(lo1, rel=1e-12)
    assert hi2 == pytest.approx(hi1, rel=1e-12)


def test_lambda1_diam2_stays_in_proven_window():
    rng = np.random.default_rng(24)
    cap_so3 = (9 - 4 * math.sqrt(2.0)) * PI2
    for _ in range(300):
        t = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        lo, hi = lambda1_diam2(t, SU2)
        assert PI2 < lo and hi <= 8 * PI2 * (1 + 1e-12)
        lo, hi = lambda1_diam2(t, SO3)
        assert PI2 < lo and hi <= cap_so3 * (1 + 1e-12)


def test_berger_extrema_report():
    report = berger_lambda1_diam2_extrema()
    assert report.max_value == pytest.approx(3 * PI2, rel=1e-12)
    assert report.min_value == pytest.approx((1 + math.sqrt(3.0) / 2.0) * PI2, rel=1e-10)
    # the minimizer has its two small parameters equal and a^2/b^2 = 2/(sqrt(3)-1)
    mt = report.min_triple
    assert mt.b == pytest.approx(mt.c, rel=1e-9)
    assert (mt.a / mt.b) ** 2 == pytest.approx(2.0 / (math.sqrt(3.0) - 1.0), rel=1e-5)
    # the reported values are lambda1_diam2 at the reported triples
    assert report.min_value == lambda1_diam2(report.min_triple, SU2)[0]
    assert report.max_value == lambda1_diam2(report.max_triple, SU2)[0]
    assert report.max_triple == MetricTriple(1, 1, 1)
    # no point of either family lies beyond the closed-form extrema
    idx = range(2000)
    scan = [MetricTriple(1, 1, 0.02 + (1 - 0.02) * i / 1999) for i in idx]
    scan += [MetricTriple(1 + (12 - 1) * i / 1999, 1, 1) for i in idx]
    for t in scan:
        v = lambda1_diam2(t, SU2)[0]
        assert report.min_value * (1 - 1e-12) <= v <= report.max_value * (1 + 1e-12)


def test_berger_extrema_match_40_digit_closed_form():
    import mpmath

    report = berger_lambda1_diam2_extrema()
    with mpmath.workdps(40):
        pi2 = mpmath.pi**2
        for got, want, ulps in (
            (report.min_value, (1 + mpmath.sqrt(3) / 2) * pi2, 2),
            (report.max_value, 3 * pi2, 2),
            (report.min_triple.a, mpmath.sqrt(1 + mpmath.sqrt(3)), 1),
        ):
            assert abs(mpmath.mpf(got) - want) <= ulps * math.ulp(float(want))


def test_product_round_factors_exact():
    for n in range(1, 6):
        spec = ProductSpec(su2_factors=tuple(MetricTriple(1, 1, 1) for _ in range(n)))
        est = product_estimate(spec)
        assert est.lambda1 == 3.0
        assert est.diam2_lower == est.diam2_upper
        assert est.product_lower == est.product_upper == 3.0 * n * PI2
        assert est.cap == product_cap(n, 0)


def test_single_factor_reduces_to_lambda1_diam2():
    t = MetricTriple(2.7, 1.6, 0.9)
    est = product_estimate(ProductSpec(su2_factors=(t,)))
    lo, hi = lambda1_diam2(t, SU2)
    assert est.product_lower == pytest.approx(lo, rel=1e-15)
    assert est.product_upper == pytest.approx(hi, rel=1e-15)


def test_mixed_product_lambda1():
    est = product_estimate(
        ProductSpec(
            su2_factors=(MetricTriple(3, 1, 1),),
            so3_factors=(MetricTriple(1, 1, 1),),
        )
    )
    assert est.lambda1 == 8.0
    assert est.cap == pytest.approx(14 * PI2, rel=1e-15)


def test_empty_product_rejected():
    with pytest.raises(EmptyProduct):
        product_estimate(ProductSpec())


def test_yamabe_gap_values():
    assert yamabe_gap(MetricTriple(1, 1, 1), SU2) == 0.0
    assert yamabe_gap(MetricTriple(1, 1, 1), SO3) == pytest.approx(5.0, rel=1e-15)
    assert yamabe_gap(MetricTriple(2, 1, 1), SU2) == pytest.approx(2.25, rel=1e-15)


def test_yamabe_gap_signs():
    rng = np.random.default_rng(26)
    for _ in range(300):
        t = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        assert yamabe_gap(t, SU2) >= 0.0
        assert yamabe_gap(t, SO3) > 0.0
    for s in (0.2, 1.0, 4.5):
        assert abs(yamabe_gap(MetricTriple(s, s, s), SU2)) < 1e-12


@pytest.mark.parametrize("g", [SU2, SO3])
def test_lower_end_rounding_to_pi2_is_float_dust(g):
    # (1 + c^2/b^2)/(1 - b^2/a^2) pi^2 and (1 + c^2/b^2) pi^2 exceed pi^2
    # by 1e-20 relative, so they round to pi^2 exactly
    t = MetricTriple(1e10, 1.0, 1e-10)
    lo, hi = lambda1_diam2(t, g)
    assert lo == PI2 and hi <= (SU2_PRODUCT_CAP if g is SU2 else SO3_PRODUCT_CAP)
    spec = ProductSpec(su2_factors=(t,)) if g is SU2 else ProductSpec(so3_factors=(t,))
    assert product_estimate(spec).product_lower == PI2


def test_lower_end_below_pi2_still_violates_the_window():
    with pytest.raises(BoundViolation, match="escapes"):
        _check_window("interval", 0.99 * PI2, 2.0 * PI2, 8.0 * PI2)
    _check_window("interval", PI2, 2.0 * PI2, 8.0 * PI2)  # float dust passes
