import itertools
import math

import numpy as np
import pytest

from homsphere.core import GroupKind, MetricTriple, normalize_triple
from homsphere.oracle import mult3_auxiliary_root
from homsphere.rigidity import (
    InconsistentInvariants,
    IsospectralVerdict,
    invariants,
    isospectral_check,
    recover_triple,
)
from homsphere.spectrum import lambda1_closed

SU2 = GroupKind.SU2
SO3 = GroupKind.SO3


def test_invariants_values():
    inv = invariants(MetricTriple(1, 1, 1), SU2)
    assert (inv.vol_param, inv.scal, inv.lambda1, inv.mult1) == (1.0, 6.0, 3.0, 4)
    inv = invariants(MetricTriple(3, 1, 1), SU2)
    assert inv.vol_param == 3.0
    assert inv.scal == pytest.approx(70.0 / 9.0, rel=1e-15)
    assert (inv.lambda1, inv.mult1) == (8.0, 3)
    inv = invariants(MetricTriple(1, 1, 1), SO3)
    assert (inv.vol_param, inv.scal, inv.lambda1, inv.mult1) == (1.0, 6.0, 8.0, 9)


def test_invariants_permutation_invariance():
    vals = (2.7, 1.1, 0.6)
    fingerprints = {
        invariants(normalize_triple(*p), SU2) for p in itertools.permutations(vals)
    }
    assert len(fingerprints) == 1


def test_recover_round_from_raw_invariants():
    from homsphere.core import SpectralInvariants

    rec = recover_triple(SpectralInvariants(1.0, 6.0, 3.0, 4), SU2)
    assert rec.as_tuple() == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)


@pytest.mark.parametrize(
    "triple,group",
    [
        ((2, 1, 1), SU2),
        ((3, 1, 1), SU2),
        ((1, 1, 1), SU2),
        ((3.3, 2.1, 1.7), SU2),
        ((2.5, 1.4, 0.9), SO3),
        ((1.4, 1.4, 0.8), SO3),
        ((0.7, 0.7, 0.7), SO3),
        ((9.4, 0.5, 0.31), SU2),
        ((9.4, 0.5, 0.31), SO3),
    ],
)
def test_recover_round_trip(triple, group):
    t = MetricTriple(*triple)
    rec = recover_triple(invariants(t, group), group)
    assert rec.as_tuple() == pytest.approx(t.as_tuple(), rel=1e-9)


def test_recover_round_trip_random_all_regimes():
    rng = np.random.default_rng(8)
    for _ in range(200):
        t = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        for g in (SU2, SO3):
            rec = recover_triple(invariants(t, g), g)
            assert max(
                abs(x - y) / y for x, y in zip(rec.as_tuple(), t.as_tuple())
            ) < 1e-8


@pytest.mark.parametrize("triple", [(1.7, 1.2, 0.8), (3.0, 1.0, 0.9), (1.4, 1.4, 0.8), (1.0, 1.0, 1.0)])
@pytest.mark.parametrize("g", [SU2, SO3])
def test_recover_round_trip_at_every_scale(triple, g):
    base = recover_triple(invariants(MetricTriple(*triple), g), g)
    for j in range(-100, 101):
        s = math.ldexp(1.0, j)
        assert recover_triple(invariants(MetricTriple(*triple).scaled(s), g), g) == base.scaled(s)
    for e in range(-30, 51):
        t = normalize_triple(*(x * 10.0**e for x in triple))
        rec = recover_triple(invariants(t, g), g)
        err = max(abs(x - y) / y for x, y in zip(rec.as_tuple(), t.as_tuple()))
        assert err < 1e-8, e


def test_recover_boundary_multiplicity_seven():
    b, c = 1.5, 1.0
    a = math.sqrt(3.0 * (b * b + c * c))
    t = MetricTriple(a, b, c)
    inv = invariants(t, SU2)
    rec = recover_triple(inv, SU2)
    assert rec.as_tuple() == pytest.approx(t.as_tuple(), rel=1e-9)


def test_recover_rejects_impossible_multiplicity():
    from homsphere.core import SpectralInvariants

    with pytest.raises(InconsistentInvariants):
        recover_triple(SpectralInvariants(1.0, 6.0, 3.0, 5), SU2)
    with pytest.raises(InconsistentInvariants):
        recover_triple(SpectralInvariants(1.0, 6.0, 3.0, 4), SO3)


def test_recover_rejects_unrealizable_invariants():
    from homsphere.core import SpectralInvariants

    # lambda1 = 8 with multiplicity 3 forces b^2+c^2 = 2, which caps the
    # scalar curvature far below the huge positive value requested here
    with pytest.raises(InconsistentInvariants):
        recover_triple(SpectralInvariants(100.0, 1.0e6, 8.0, 3), SU2)
    with pytest.raises(InconsistentInvariants):
        recover_triple(SpectralInvariants(-1.0, 6.0, 3.0, 4), SU2)


def test_auxiliary_root_stays_below_volume_scale():
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        root = mult3_auxiliary_root(t)
        bound = (t.a * t.b * t.c) ** (1.0 / 3.0)
        assert 0.0 < root < bound


def test_auxiliary_root_is_the_only_sign_change():
    t = MetricTriple(3, 2, 1)
    root = mult3_auxiliary_root(t)
    a2, b2, c2 = 9.0, 4.0, 1.0

    def gfun(x):
        x2 = x * x
        return ((b2 + c2) ** 2 * x2 + a2 * (b2 - c2) ** 2) * x2 * x2 - b2**2 * c2**2 * (
            x2 + a2
        )

    xs = np.linspace(1e-3, 5.0, 2000)
    signs = np.sign([gfun(x) for x in xs])
    changes = np.nonzero(np.diff(signs))[0]
    assert len(changes) == 1
    assert xs[changes[0]] <= root <= xs[changes[0] + 1]


def test_isospectral_identical_and_permuted():
    t = MetricTriple(3, 2, 1)
    res = isospectral_check(t, normalize_triple(1, 3, 2), SU2, 25.0)
    assert res.verdict is IsospectralVerdict.ISOMETRIC
    res = isospectral_check(t, t, SU2, 25.0)
    assert res.verdict is IsospectralVerdict.ISOMETRIC


def test_isospectral_detects_perturbation():
    res = isospectral_check(
        MetricTriple(2, 1, 1), MetricTriple(2.0001, 1, 1), SU2, 10.0
    )
    assert res.verdict is IsospectralVerdict.DISTINCT_SPECTRA
    assert res.mu_index == 1
    assert res.values == pytest.approx((6.0, 6.00040001), rel=1e-9)


def test_isospectral_separates_small_metrics():
    # the old max(1, |x|) floor counted these eigenvalues of size 1e-10 equal
    t1 = normalize_triple(1.7e-5, 1.2e-5, 0.8e-5)
    t2 = normalize_triple(1.7e-5, 1.25e-5, 0.8e-5)
    lam_max = 1.2 * max(lambda1_closed(t, SU2).value for t in (t1, t2))
    res = isospectral_check(t1, t2, SU2, lam_max)
    assert res.verdict is IsospectralVerdict.DISTINCT_SPECTRA
    assert res.mu_index == 1


def test_isospectral_undecided_when_truncation_cannot_separate():
    # both metrics have the same lowest eigenvalue a^2+b^2+c^2 = 6.44 and no
    # other eigenvalue below the bound, so the short tables coincide
    t1 = MetricTriple(2.0, 1.2, 1.0)
    s1 = sum(v * v for v in t1.as_tuple())
    b2 = 1.25
    c2 = math.sqrt(s1 - 2.05**2 - b2 * b2)
    t2 = MetricTriple(2.05, b2, c2)
    lam_max = 1.15 * s1
    res = isospectral_check(t1, t2, SU2, lam_max)
    assert res.verdict is IsospectralVerdict.UNDECIDED


def test_isospectral_requires_bound_past_fundamental_tone():
    with pytest.raises(ValueError):
        isospectral_check(MetricTriple(1, 1, 1), MetricTriple(1, 1, 1), SU2, 3.0)


def test_random_distinct_pairs_never_isometric():
    rng = np.random.default_rng(10)
    for _ in range(40):
        t1 = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        t2 = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        lam_max = 1.2 * max(
            4 * (t.b * t.b + t.c * t.c) for t in (t1, t2)
        )
        res = isospectral_check(t1, t2, SU2, lam_max)
        assert res.verdict is not IsospectralVerdict.ISOMETRIC
