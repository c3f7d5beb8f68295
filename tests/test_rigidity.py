import itertools
import math

import numpy as np
import pytest

from homsphere import rigidity
from homsphere.core import GroupKind, MetricTriple, SpectralInvariants, normalize_triple
from homsphere.geometry import scalar_curvature
from homsphere.rigidity import (
    InconsistentInvariants,
    IsospectralResult,
    IsospectralVerdict,
    invariants,
    isospectral_check,
    recover_triple,
)
from homsphere.spectrum import ClusterMergeWarning, lambda1_closed, spectrum_up_to

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
        ((1, 1, 1e-6), SU2),
        ((1.2, 1, 1e-5), SU2),
        # Scal is about -2e240 and z = a(b^2 + c^2)/(bc) about 1e120
        ((1e60, 1, 1e-60), SU2),
        ((1e60, 1, 1e-60), SO3),
        # v^2 leaves the float range: the split forms bc = v/a instead
        ((2, 1, 1e-150), SO3),
        ((1, 1, 1e-100), SO3),
        # bc = 1e-325 underflows, while c = v/(ab) does not
        ((1e100, 1e-150, 1e-175), SO3),
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


def test_recover_thin_triples_near_the_float_limit():
    # with lambda1 near 1, Scal is about -2 (ab/c)^2, so ab/c up to 1e153.5
    # keeps it finite while v^2 = (abc)^2 drops to about 1e-309
    rng = np.random.default_rng(12)
    for i in range(400):
        b = rng.uniform(0.5, 1.0)
        a = b * 10.0 ** rng.uniform(0, 0.8)
        t = MetricTriple(a, b, a * b * 10.0 ** rng.uniform(-153.5, -140))
        g = (SU2, SO3)[i % 2]
        inv = invariants(t, g)
        assert math.isfinite(inv.scal)
        rec = recover_triple(inv, g)
        assert max(abs(x - y) / y for x, y in zip(rec.as_tuple(), t.as_tuple())) < 1e-8


def test_recover_thin_triples_whose_curvature_outgrows_lambda1():
    # ab/c near 1e153.5 with lambda1 ~ b^2 small: at lambda1 in [1, 4) a
    # scaled Scal would overflow, and the z equation is solved unscaled.
    # a > 2b keeps SU(2) on the z (multiplicity 3) path, as for SO(3).
    rng = np.random.default_rng(13)
    for i in range(200):
        b = rng.uniform(0.5, 1.0) * 10.0 ** rng.uniform(-3, -1)
        a = b * 10.0 ** rng.uniform(0.31, 0.8)
        t = MetricTriple(a, b, a * b * 10.0 ** -rng.uniform(153, 153.9))
        g = (SU2, SO3)[i % 2]
        inv = invariants(t, g)
        assert math.isfinite(inv.scal) and abs(inv.scal) / inv.lambda1 > 2.0**1020
        rec = recover_triple(inv, g)
        assert max(abs(x - y) / y for x, y in zip(rec.as_tuple(), t.as_tuple())) < 1e-8


@pytest.mark.parametrize("g", [SU2, SO3])
def test_recover_prolate_triples_whose_squares_overflow(g):
    # z = a (b^2 + c^2) / (bc) is about 2a, so z^2 and a^2 overflow past
    # a ~ 1.3e154 while every invariant stays finite: Scal keeps
    # -2 (a (b^2 - c^2) / (bc))^2 finite with b/c - 1 below about 1e140 b/a
    rng = np.random.default_rng(15)
    triples = [MetricTriple(1.5e154, 1, 1), MetricTriple(1e300, 1, 1)]
    for _ in range(100):
        b = 10.0 ** rng.uniform(-5, 3)
        ratio = rng.uniform(150, 290)
        c = b / (1.0 + 10.0 ** (140 - ratio - rng.uniform(0, 8)))
        triples.append(MetricTriple(b * 10.0**ratio, b, c))
    for t in triples:
        rec = recover_triple(invariants(t, g), g)
        assert max(abs(x - y) / y for x, y in zip(rec.as_tuple(), t.as_tuple())) < 1e-8, t


@pytest.mark.parametrize("g", [SU2, SO3])
def test_recovery_scales_exactly_across_the_overflow_rescaling(g):
    # v / lambda1 runs from 2^467 to 2^515, across the 2^499 past which the
    # z equation is solved at a smaller scale: each triple comes back bitwise
    # 2^k times the first, as a scaling by powers of two gives
    t = MetricTriple(2.0**470, 1.001, 1.0)
    base = recover_triple(invariants(t, g), g)
    for k in range(0, 49, 4):
        scale = 2.0**k
        rec = recover_triple(invariants(t.scaled(scale), g), g)
        assert rec == base.scaled(scale), k


def test_recover_near_b_equal_c_at_large_aspect_ratio():
    # Scal cancels to a few digits when a >> b ~ c; validation compares it
    # with the size of its own rounding, so no valid triple is rejected
    rng = np.random.default_rng(14)
    for i in range(1200):
        b = 10.0 ** rng.uniform(-1, 1)
        c = b / (1.0 + 10.0 ** rng.uniform(-7, -5))
        t = MetricTriple(b * 10.0 ** rng.uniform(3, 6), b, c)
        g = (SU2, SO3)[i % 2]
        rec = recover_triple(invariants(t, g), g)
        assert max(abs(x - y) / y for x, y in zip(rec.as_tuple(), t.as_tuple())) <= 1e-6


def test_recover_rejects_infinite_invariants():
    # Scal of (1, 1, 1e-160) is about -2e320, which is -inf in floating point
    inv = invariants(MetricTriple(1, 1, 1e-160), SU2)
    assert inv.scal == -math.inf
    with pytest.raises(OverflowError):
        recover_triple(inv, SU2)


@pytest.mark.parametrize("g", [SU2, SO3])
def test_invariants_of_an_underflowing_abc_name_the_float_range(g):
    # abc = 1e-460 is 0 in floats, though the triple is valid; a fingerprint
    # the user gives with v = 0 is still no metric's
    t = MetricTriple(1e-150, 1e-150, 1e-160)
    with pytest.raises(OverflowError, match="underflows to 0"):
        invariants(t, g)
    lam = lambda1_closed(t, g)
    with pytest.raises(InconsistentInvariants, match="must be positive"):
        recover_triple(SpectralInvariants(0.0, scalar_curvature(t), lam.value, lam.multiplicity), g)


def test_recover_boundary_multiplicity_seven():
    b, c = 1.5, 1.0
    a = math.sqrt(3.0 * (b * b + c * c))
    t = MetricTriple(a, b, c)
    inv = invariants(t, SU2)
    assert inv.mult1 == 7
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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 7 (inverse map, Scal check): a Scal above "
    "lambda1 = 4(b^2+c^2) is accepted",
)
def test_recover_rejects_a_scal_above_its_lambda1_cap():
    # lambda1 = 4(b^2+c^2) = 8 caps Scal at 8 for every metric, but the
    # candidate (1e9, 1, 1), whose own Scal is 8, passes the 1e-6 check
    with pytest.raises(InconsistentInvariants):
        recover_triple(SpectralInvariants(1e9, 1008.0, 8.0, 3), SU2)


@pytest.mark.parametrize(
    "fingerprint,g,reason",
    [
        # e2 = v sqrt(4 lambda1 - Scal/2) would be imaginary
        ((0.00205, 0.652, 0.00873, 4), SU2, "scalar curvature incompatible"),
        ((587.0, -0.0123, 1.72, 4), SU2, "complex conjugate root pair"),
        # h(z) stays positive: no z, the 4(b^2+c^2) branch
        ((100.0, 1.0e6, 8.0, 3), SU2, "scalar curvature incompatible"),
        ((0.0498, 0.0107, 0.00297, 3), SO3, r"b\^2 and c\^2 are complex"),
        # a float range error while building the candidate
        ((5.66e285, -5.83e-127, 8.9e-273, 7), SU2, "math range error"),
        # a candidate that misses the invariants by more than 1e-6
        ((5.46, -110.0, 28.2, 7), SU2, "to 1e-6"),
        ((-1.0, 6.0, 3.0, 4), SU2, "must be positive"),
        ((1.0, 6.0, 3.0, 5), SU2, "multiplicity 5 is not attained on su2"),
        ((1.0, 6.0, 3.0, 4), SO3, "multiplicity 4 is not attained on so3"),
        # multiplicity 6 builds a = b > c, and no such triple has these
        ((0.0498, 0.0107, 0.00297, 6), SO3, "to 1e-6"),
    ],
)
def test_recover_rejection_paths(fingerprint, g, reason):
    from homsphere.core import SpectralInvariants

    with pytest.raises(InconsistentInvariants, match=reason):
        recover_triple(SpectralInvariants(*fingerprint), g)


def test_so3_recovery_keeps_the_class_its_multiplicity_fixes():
    # multiplicity 6 is a = b > c and 9 the round metric: the recovered
    # triple is built in that class, also at c within ulps of a = b
    from homsphere.acceptance import _rigidity_samples

    rng = np.random.default_rng(31)
    near_round = [
        MetricTriple(s, s, s * (1.0 - 10.0 ** e))
        for s, e in zip(10.0 ** rng.uniform(-100, 100, 200), rng.uniform(-16, -5, 200))
    ]
    for t in (*_rigidity_samples(SO3), *near_round):
        inv = invariants(t, SO3)
        rec = recover_triple(inv, SO3)
        assert lambda1_closed(rec, SO3).multiplicity == inv.mult1, t
        assert max(abs(x - y) / y for x, y in zip(rec.as_tuple(), t.as_tuple())) <= 1e-8, t


def test_isospectral_identical_and_permuted():
    t = MetricTriple(3, 2, 1)
    res = isospectral_check(t, normalize_triple(1, 3, 2), SU2, 25.0)
    assert res.verdict is IsospectralVerdict.ISOMETRIC
    res = isospectral_check(t, t, SU2, 25.0)
    assert res.verdict is IsospectralVerdict.ISOMETRIC


class _TwinTriple(MetricTriple):
    """A triple with the fields of a MetricTriple that compares unequal to it."""


@pytest.mark.parametrize("g", [SU2, SO3])
@pytest.mark.parametrize(
    "t1,t2,calls",
    [
        ((1.7, 1.2, 0.8), (0.8, 1.7, 1.2), 1),
        ((2.0, 2.0, 0.5), (2.0, 0.5, 2.0), 1),
        ((1.3, 1.0, 1.0), (1.3, 1.0, 1.0), 1),
        ((1.7, 1.2, 0.8), (1.7, 1.25, 0.8), 2),
        ((1.3, 1.0, 1.0), (1.3, 1.0, 1.0 + 1e-12), 2),
    ],
)
def test_isospectral_check_builds_one_table_for_equal_triples(monkeypatch, t1, t2, calls, g):
    t1, t2 = normalize_triple(*t1), normalize_triple(*t2)
    lam_max = 2.5 * max(lambda1_closed(t, g).value for t in (t1, t2))
    seen = []

    def counting(*args):
        seen.append(args)
        return spectrum_up_to(*args)

    monkeypatch.setattr(rigidity, "spectrum_up_to", counting)
    res = isospectral_check(t1, t2, g, lam_max)
    assert len(seen) == calls
    # the twin forces the second table call that equal triples skip
    twin = _TwinTriple(*t2.as_tuple())
    assert twin != t1
    del seen[:]
    assert isospectral_check(t1, twin, g, lam_max) == res
    assert len(seen) == 2


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


def test_isospectral_table_that_runs_out_first_differs():
    # the scaled round metric has every value 2e-10 relative above the
    # round one's, which counts as equal, but its 15 lies above the bound
    s = 1.0 + 1e-10
    short, full = MetricTriple(s, s, s), MetricTriple(1, 1, 1)
    lam_max = 15.0 * (1.0 + 1e-10)
    assert [e.value for e in spectrum_up_to(lam_max, full, SU2).entries] == [0.0, 3.0, 8.0, 15.0]
    res = isospectral_check(full, short, SU2, lam_max)
    assert res == IsospectralResult(IsospectralVerdict.DISTINCT_SPECTRA, 3, (15.0, None))
    res = isospectral_check(short, full, SU2, lam_max)
    assert res == IsospectralResult(IsospectralVerdict.DISTINCT_SPECTRA, 3, (None, 15.0))


def test_isospectral_requires_bound_past_fundamental_tone():
    with pytest.raises(ValueError):
        isospectral_check(MetricTriple(1, 1, 1), MetricTriple(1, 1, 1), SU2, 3.0)


def test_random_distinct_pairs_never_isometric():
    rng = np.random.default_rng(10)
    # three of the tables merge near-degenerate clusters (ROADMAP item 2)
    with pytest.warns(ClusterMergeWarning) as record:
        for _ in range(40):
            t1 = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
            t2 = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
            lam_max = 1.2 * max(
                4 * (t.b * t.b + t.c * t.c) for t in (t1, t2)
            )
            res = isospectral_check(t1, t2, SU2, lam_max)
            assert res.verdict is not IsospectralVerdict.ISOMETRIC
    assert [w.category for w in record] == [ClusterMergeWarning] * 3
