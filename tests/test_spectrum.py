import collections
import hashlib
import math
import os
import random
import re
import subprocess
import sys
import types
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import homsphere
from homsphere import eigensolve, oracle, spectrum
from homsphere.oracle import (
    NotFound,
    _diagonal,
    low_irrep_eigenvalues,
    mu_index_of,
    sum_eigenvalue_positions,
)
from homsphere.casimir import _squares
from homsphere.core import EigenPair, GroupKind, MetricTriple, normalize_triple
from homsphere.eigensolve import eigen_block
from homsphere.rigidity import isospectral_check
from homsphere.spectrum import (
    DEFAULT_CLUSTER_TOL,
    K_CAP,
    CutoffTooLarge,
    Regime,
    berger_spectrum_up_to,
    k_cutoff,
    lambda1_closed,
    spectrum_up_to,
)

SU2 = GroupKind.SU2
SO3 = GroupKind.SO3


@pytest.mark.parametrize(
    "triple,group,value,mult,regime",
    [
        ((2, 1, 1), SU2, 6.0, 4, Regime.SUM_DOMINATES),
        ((3, 1, 1), SU2, 8.0, 3, Regime.FOUR_BC),
        ((1, 1, 1), SU2, 3.0, 4, Regime.SUM_DOMINATES),
        ((1, 1, 1), SO3, 8.0, 9, Regime.SO3),
        ((2, 1, 1), SO3, 8.0, 3, Regime.SO3),
        ((2, 2, 1), SO3, 20.0, 6, Regime.SO3),
        # 2^-510 squares to 2^-1020, two binades above the smallest normal
        ((2.0**-510,) * 3, SU2, 3 * 2.0**-1020, 4, Regime.SUM_DOMINATES),
        ((2.0**-510,) * 3, SO3, 8 * 2.0**-1020, 9, Regime.SO3),
        # a^2+b^2+c^2 overflows, but the smaller 4(b^2+c^2) is exact
        ((1e160, 1, 1), SU2, 8.0, 3, Regime.FOUR_BC),
    ],
)
def test_lambda1_closed_cases(triple, group, value, mult, regime):
    got = lambda1_closed(MetricTriple(*triple), group)
    assert got.value == value
    assert got.multiplicity == mult
    assert got.regime is regime


def test_lambda1_boundary_multiplicity_seven():
    # sqrt(9.75)^2 rounds to 9.75 = 3(b^2 + c^2), so a^2 + b^2 + c^2 and
    # 4(b^2 + c^2) tie at 13.0 exactly in floats
    a = math.sqrt(9.75)
    assert a * a == 9.75
    got = lambda1_closed(MetricTriple(a, 1.5, 1.0), SU2)
    assert got.value == 13.0
    assert got.multiplicity == 7
    assert got.regime is Regime.BOUNDARY


@pytest.mark.parametrize("group", [SU2, SO3])
@pytest.mark.parametrize("x", [1e-170, 1e-160, 2.0**-513, 1e155])
def test_lambda1_outside_the_normal_range_raises(x, group):
    # lambda1 underflows to 0 or to a subnormal, or overflows to inf;
    # 2^-513 is the largest power of two where it is subnormal in both groups
    with pytest.raises(OverflowError):
        lambda1_closed(MetricTriple(x, x, x), group)


@pytest.mark.parametrize("triple", [(3e-160, 2e-160, 1e-160), (1e-150, 1e-160, 1e-160)])
def test_a_subnormal_first_eigenvalue_raises(triple):
    # a^2 + b^2 + c^2 is positive, but lambda1 is a subnormal that keeps
    # about 5 digits, as ``lambda1_closed`` reports too
    t = MetricTriple(*triple)
    with pytest.raises(OverflowError, match="below the normal float range"):
        spectrum_up_to(1e-318, t, SU2)
    with pytest.raises(OverflowError):
        lambda1_closed(t, SU2)
    # a bound below lambda1 gives the table (0, 1), which holds no subnormal
    assert spectrum_up_to(1e-323, t, SU2).entries == ((0.0, 1),)


def test_lambda1_scaling_covariance():
    t = MetricTriple(3.2, 1.7, 0.9)
    for g in (SU2, SO3):
        base = lambda1_closed(t, g)
        scaled = lambda1_closed(t.scaled(2.0), g)
        assert scaled.value == pytest.approx(4.0 * base.value, rel=1e-15)
        assert scaled.multiplicity == base.multiplicity


def test_su2_lambda1_is_the_tables_first_entry_bitwise():
    # criterion 1's SU(2) samples: the closed form sums a^2 + b^2 + c^2 in
    # the frame and order in which the table sums its k = 1 block
    from homsphere.acceptance import _lambda1_samples

    differ = []
    for t in _lambda1_samples(SU2):
        closed = lambda1_closed(t, SU2).value
        if spectrum_up_to(1.1 * closed, t, SU2).entries[1].value != closed:
            differ.append(t)
    assert differ == []


def test_so3_lambda1_is_the_tables_first_entry_within_2_ulp():
    # criterion 1's SO(3) samples: the table reads 4(b^2 + c^2) as d + e of
    # block 2's first half in the frame of _squares, which no summation
    # order of the closed form matches bitwise (61 of the 1,000 differ)
    from homsphere.acceptance import _lambda1_samples

    far = []
    for t in _lambda1_samples(SO3):
        closed = lambda1_closed(t, SO3).value
        first = spectrum_up_to(1.1 * closed, t, SO3).entries[1].value
        if abs(first - closed) > 2.0 * math.ulp(closed):
            far.append(t)
    assert far == []


def _berger(k, a, b):
    """Block k's closed eigenvalues of (a, b, b), l = 0..k, from ``oracle._diagonal``."""
    return _diagonal(k, a * a, b * b + b * b, range(k + 1))


def test_closed_berger_values():
    assert _berger(1, 2.0, 1.5) == [4.0 + 2 * 2.25] * 2
    assert _berger(2, 9.9, 2.0)[1] == 8 * 4.0
    assert _berger(0, 3.3, 4.4) == [0.0]
    with pytest.raises(ValueError):
        _berger(-1, 1.0, 1.0)


def test_k_cutoff_examples():
    t = MetricTriple(5, 1, 1)
    assert k_cutoff(10.0, t, SU2) == 2
    assert k_cutoff(3.0, t, SU2) == 1
    assert k_cutoff(0.5, t, SU2) == 0
    assert k_cutoff(10.0, t, SO3) == 2
    assert k_cutoff(3.0, t, SO3) == 0
    # an aspect ratio near 1e10, where a cancelling estimate overshoots twofold
    assert k_cutoff(14000.0, MetricTriple(1, 1, 1.26e-10), SU2) == 7000


def test_k_cutoff_cap():
    # the round metric needs K = 31,621 > K_CAP blocks below 1e9
    assert K_CAP == 10000
    assert k_cutoff(K_CAP * (K_CAP + 2), MetricTriple(1, 1, 1), SU2) == K_CAP
    with pytest.raises(CutoffTooLarge):
        k_cutoff(1e9, MetricTriple(1, 1, 1), SU2)


def _float_envelope_count(lam, t, g):
    # admissible blocks up to K_CAP + 2 whose envelope, in the floats
    # k_cutoff computes, is <= lam
    b2, c2 = t.b * t.b, t.c * t.c
    step = 2 if g is SO3 else 1
    return sum(2.0 * k * b2 + float(k) * k * c2 <= lam for k in range(0, K_CAP + 3, step))


def _exact_envelope_count(lam, t, g):
    # the same count in exact arithmetic: with b^2 = B/Q, c^2 = C/Q and
    # lam = p/q, block k counts when q (2k B + k^2 C) <= p Q
    b2, c2 = Fraction(t.b) ** 2, Fraction(t.c) ** 2
    p, q = lam.as_integer_ratio()
    x = 2 * q * b2.numerator * c2.denominator
    y = q * c2.numerator * b2.denominator
    z = p * b2.denominator * c2.denominator
    step = 2 if g is SO3 else 1
    return sum(k * x + k * k * y <= z for k in range(0, K_CAP + 3, step))


@pytest.mark.parametrize("g", [SU2, SO3])
@pytest.mark.parametrize(
    "triple,dyadic",
    [
        # few-bit dyadic parameters: 2k b^2 + k^2 c^2 is exact in floats
        ((3.0, 1.5, 0.75), True),
        ((1.0, 0.25, 0.125), True),
        ((2.0, 2.0, 2.0), True),
        ((1.7, 1.2, 0.8), False),
        ((1e3, 0.3, 1e-4), False),
        ((1.0, 1.0, 1.26e-10), False),
        # extreme aspect ratios
        ((2**13, 2**6, 1.0), True),
        ((1.0, 0.5, 2**-13), True),
        ((9.7e3, 3.1, 1.3e-4), False),
    ],
)
def test_k_cutoff_one_ulp_around_envelope_boundaries(triple, dyadic, g):
    t = MetricTriple(*triple)
    b2, c2 = t.b * t.b, t.c * t.c
    step = 2 if g is SO3 else 1
    for edge_k in (1, 2, 3, 10, 57, 1000, K_CAP - 1, K_CAP, K_CAP + 1, K_CAP + 2):
        edge = 2.0 * edge_k * b2 + float(edge_k) * edge_k * c2
        for lam in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
            count = _float_envelope_count(lam, t, g)
            if dyadic:
                assert count == _exact_envelope_count(lam, t, g)
            if step * (count - 1) > K_CAP:
                with pytest.raises(CutoffTooLarge):
                    k_cutoff(lam, t, g)
            else:
                assert k_cutoff(lam, t, g) == step * (count - 1)


def test_round_spectrum_su2():
    table = spectrum_up_to(15.0, MetricTriple(1, 1, 1), SU2)
    assert [(e.value, e.multiplicity) for e in table.entries] == [
        (0.0, 1),
        (3.0, 4),
        (8.0, 9),
        (15.0, 16),
    ]
    assert table.k_sources == ((0,), (1,), (2,), (3,))


def test_round_spectrum_so3_even_blocks_only():
    table = spectrum_up_to(15.0, MetricTriple(1, 1, 1), SO3)
    assert [(e.value, e.multiplicity) for e in table.entries] == [(0.0, 1), (8.0, 9)]


def test_generic_spectrum_smallest_entry_matches_closed_form():
    t = MetricTriple(3, 1, 1)
    table = spectrum_up_to(9.0, t, SU2)
    assert table.entries[1].value == pytest.approx(8.0, rel=1e-12)
    assert table.entries[1].multiplicity == 3


def test_spectrum_completeness_under_cutoff_doubling():
    t = MetricTriple(2.6, 1.4, 0.7)
    lam = 30.0
    cutoff = k_cutoff(lam, t, SU2)
    for k in range(cutoff + 1, 2 * cutoff + 3):
        assert min(eigen_block(k, *_squares(t.a, t.b, t.c))) > lam


@pytest.mark.parametrize(
    "t",
    [MetricTriple(2.9, 1.7, 0.8), MetricTriple(1.3, 1.3, 0.6), MetricTriple(2.2, 1.1, 1.1)],
    ids=repr,
)
@pytest.mark.parametrize("g", [SU2, SO3])
def test_multiplicities_count_every_dense_eigenvalue(t, g):
    # generic, a = b > c and a > b = c: odd-k values weigh 2(k+1), since
    # eigen_block gives each Wang mirror pair once
    lam = 150.0
    step = 2 if g is SO3 else 1
    dense = {
        k: np.linalg.eigvals(oracle.casimir_matrix(k, t)).real
        for k in range(0, k_cutoff(lam, t, g) + 2 * step + 1, step)
    }
    assert all(np.all(np.abs(vals - lam) > 1e-6 * lam) for vals in dense.values())
    table = spectrum_up_to(lam, t, g)
    for e in table.entries:
        near = 1e-9 * max(1.0, e.value)
        want = sum((k + 1) * int(np.sum(np.abs(vals - e.value) <= near))
                   for k, vals in dense.items())
        assert e.multiplicity == want, e
    total = sum((k + 1) * int(np.sum(vals <= lam)) for k, vals in dense.items())
    assert table.counting_function(lam) == total


def test_counting_function_equals_the_filtered_sum():
    # bounds at an entry and 1 ulp either side, the last entry (where the
    # sum needs no comparison) among them, and the truncation bound and
    # 1 ulp above it.  Above the bound, where the table cannot see every
    # eigenvalue, it raises: there, and 1 ulp above a last entry that
    # equals the bound (the last two tables, whose bound is an entry)
    rng = random.Random(35)
    for i in range(32):
        a, b, c = (10.0 ** rng.uniform(-1, 1) for _ in range(3))
        t = normalize_triple(*rng.choice([(a, b, c), (a, a, c), (a, b, b), (a, a, a)]))
        for g in (SU2, SO3):
            table = spectrum_up_to(rng.uniform(1.1, 6.0) * lambda1_closed(t, g).value, t, g)
            if i >= 30:
                table = spectrum_up_to(table.entries[-1].value, t, g)
                assert table.entries[-1].value == table.truncation_bound
            bounds = [table.truncation_bound, math.nextafter(table.truncation_bound, math.inf)]
            for e in (table.entries[0], rng.choice(table.entries), table.entries[-1]):
                bounds += [math.nextafter(e.value, -math.inf), e.value,
                           math.nextafter(e.value, math.inf)]
            for lam in bounds:
                if lam > table.truncation_bound:
                    with pytest.raises(ValueError, match="at most the truncation bound"):
                        table.counting_function(lam)
                    continue
                want = sum(m for v, m in table.entries if v <= lam)
                assert table.counting_function(lam) == want, (t, g, lam)


def test_bound_equal_to_an_eigenvalue_keeps_its_block_and_every_copy():
    # On a round metric the envelope 2k b^2 + k^2 c^2 = k(k+2) a^2 is
    # attained, and its float can round above the computed eigenvalue; the
    # copies of one eigenvalue from different l can round 1 ulp apart.  A
    # bound set to any entry must give the same prefix of the table.
    rng = random.Random(18)
    for _ in range(134):
        a = 10.0 ** rng.uniform(-3, 3)
        t = MetricTriple(a, a, a)
        for g in (SU2, SO3):
            full = spectrum_up_to(48.5 * a * a, t, g)
            for i, e in enumerate(full.entries[1:], 2):
                table = spectrum_up_to(e.value, t, g)
                assert table.entries == full.entries[:i], (a, g, e)
                assert table.k_sources == full.k_sources[:i], (a, g, e)


@pytest.mark.parametrize(
    "a,lam,last",
    [
        # the k = 3 block was cut off: its envelope float rounds above 15 a^2
        (941.6055573859235, 13299315.385500833, EigenPair(13299315.385500833, 16)),
        # copies 1 ulp either side of the bound: multiplicity 12, not 36
        (0.0267785934910023, 0.025098257427472275, EigenPair(0.025098257427472275, 36)),
    ],
)
def test_round_tables_complete_at_a_bound_equal_to_an_entry(a, lam, last):
    table = spectrum_up_to(lam, MetricTriple(a, a, a), SU2)
    assert table.entries[-1] == last


def test_spectrum_bound_checks_hold_with_the_cluster_slack():
    t = MetricTriple(1.7, 1.2, 0.8)
    for lam in (math.inf, math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            spectrum_up_to(lam, t, SU2)
    # lam (1 + DEFAULT_CLUSTER_TOL) overflows and is capped at the largest float
    with pytest.raises(CutoffTooLarge, match=r"truncation bound 1\.7976931348623157e\+308 "):
        spectrum_up_to(sys.float_info.max, t, SU2)


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.0, 1.0), (3.7, 0.9), (0.5, 1.3)])
def test_berger_shim_equals_spectrum_up_to(a, b):
    # both orders: (a, b, b) with a < b normalizes to a metric with its two
    # large parameters equal
    for x, y in ((a, b), (b, a)):
        for g in (SU2, SO3):
            shim = berger_spectrum_up_to(50.0, x, y, g)
            table = spectrum_up_to(50.0, normalize_triple(x, y, y), g)
            assert shim.entries == table.entries
            assert shim.k_sources == table.k_sources


def test_berger_round_matches_k_law():
    assert all(_berger(k, 1.0, 1.0) == [float(k * (k + 2))] * (k + 1) for k in range(6))
    table = spectrum_up_to(35.0, normalize_triple(1.0, 1.0, 1.0), SU2)
    assert [(e.value, e.multiplicity) for e in table.entries] == [
        (float(k * (k + 2)), (k + 1) ** 2) for k in range(6)
    ]


@pytest.mark.parametrize(
    "triple",
    # the last two are generic, but a^2 exceeds spectrum._DECOUPLED at the
    # unit scale (b in [1, 2)), where it overflows or not, so every row with
    # d = k-2l != 0 decouples and only the d = 0 run is left
    [(1.3, 1.3, 1.3), (1.3, 1.3, 0.5), (3.0, 3.0, 1.0), (2.5, 0.7, 0.7), (1e154, 0.5, 0.25),
     (1e30, 1.0, 0.5)],
)
@pytest.mark.parametrize("g", [SU2, SO3])
def test_two_equal_parameters_never_reach_the_solver(monkeypatch, triple, g):
    def refuse(*args, **kwargs):
        raise AssertionError("a two-equal-parameter spectrum reached the solver")

    monkeypatch.setattr(eigensolve, "eigenvalues", refuse)
    monkeypatch.setattr(eigensolve, "_wang_halves", refuse)
    # the table is read off the diagonal in runs, not block by block
    monkeypatch.setattr(spectrum, "eigen_block", refuse)
    table = spectrum_up_to(80.0, MetricTriple(*triple), g)
    assert table.entries[0] == (0.0, 1) and len(table.entries) > 2


def _per_block_table(lam, t, g, block_values):
    """A table's columns assembled block by block at the unit scale of ``spectrum_up_to``.

    ``block_values(k, a2, bc2, off, upper)`` gives the sorted values <=
    ``upper`` of irrep k, one per Wang mirror pair for odd k; each is
    weighted (k+1)(1 + k%2) and scaled back by ``ldexp``, then
    ``spectrum._cluster`` clusters them into the table's columns:
    values, multiplicities and k_sources.
    """
    upper = min(lam * (1.0 + DEFAULT_CLUSTER_TOL), sys.float_info.max)
    h = math.frexp(t.b)[1] - 1
    sq = _squares(*(math.ldexp(x, -h) for x in t.as_tuple()))
    upper_unit = math.ldexp(upper, -2 * h)
    contributions = []
    for k in range(0, k_cutoff(upper, t, g) + 1, 2 if g is SO3 else 1):
        contributions += [(math.ldexp(value, 2 * h), (k + 1) * (1 + k % 2), k)
                          for value in block_values(k, *sq, upper_unit)]
    return spectrum._cluster(contributions, lam)


def _closed_block(k, a2, bc2, off, upper):
    """The closed form per block, as before the diagonal runs: ``oracle._diagonal``
    entries l <= k/2, for even k with the mirror l = k/2-1, ..., 0 copied."""
    values = _diagonal(k, a2, bc2, range(k // 2 + 1))
    if not k % 2:
        values += values[-2::-1]
    return sorted(v for v in values if v <= upper)


def test_diagonal_runs_equal_the_per_block_assembly_bitwise():
    # round, a = b > c and a > b = c at scales 10^U(-150, 150), both
    # groups, bounds at an entry and 1 ulp either side of it
    rng = random.Random(19)
    for i in range(120):
        s = 10.0 ** rng.uniform(-150, 150)
        r = 10.0 ** rng.uniform(-1, 1)
        lo, hi = min(r, 1 / r) * s, max(r, 1 / r) * s
        t = normalize_triple(*((s, s, s), (s, s, lo), (hi, s, s))[i % 3])
        g = (SU2, SO3)[i // 3 % 2]
        k = rng.randint(2, 40)
        full = spectrum_up_to(2 * k * t.b * t.b + k * k * t.c * t.c, t, g)
        entry = full.entries[rng.randrange(len(full.entries))].value
        for lam in (entry, math.nextafter(entry, 0.0), math.nextafter(entry, math.inf)):
            if lam == 0.0:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", spectrum.ClusterMergeWarning)
                table = spectrum_up_to(lam, t, g)
                values, mults, sources = _per_block_table(lam, t, g, _closed_block)
            assert [(v.hex(), m) for v, m in table.entries] == [
                (v.hex(), m) for v, m in zip(values, mults, strict=True)
            ], (t, g, lam)
            assert table.k_sources == sources, (t, g, lam)


def test_decoupled_tables_equal_the_solved_blocks_bitwise():
    # generic triples with a^2 at the unit scale 2^U(112, 144), on both
    # sides of spectrum._DECOUPLED = 2^128, b/c up to 1e8, both groups and
    # scales 10^U(-100, 100): past the threshold the d = 0 run of the
    # closed form is exactly what solving every row gives
    rng = random.Random(23)
    for i in range(40):
        s = 10.0 ** rng.uniform(-100, 100)
        b = s * rng.uniform(1.0, 2.0)
        t = MetricTriple(b * 2.0 ** rng.uniform(56, 72), b, b / 10.0 ** rng.uniform(0.01, 8))
        g = (SU2, SO3)[i % 2]
        lam = rng.uniform(1.1, 60.0) * lambda1_closed(t, g).value
        table = spectrum_up_to(lam, t, g)
        values, mults, sources = _per_block_table(lam, t, g, eigen_block)
        assert [(v.hex(), m) for v, m in table.entries] == [
            (v.hex(), m) for v, m in zip(values, mults, strict=True)
        ], (t, g, lam)
        assert table.k_sources == sources, (t, g, lam)


@pytest.mark.parametrize("triple", [(1e150, 1e-10, 1e-10), (1e150, 1e-10, 1e-11)])
@pytest.mark.parametrize("g", [SU2, SO3])
def test_a_squared_overflowing_at_the_unit_scale_keeps_the_d0_run(triple, g):
    # a/b = 1e160: at the unit scale (b in [1, 2)) a^2 is inf, and is capped
    # at spectrum._DECOUPLED so that no row is inf or NaN; the d = 0 entries
    # 2p(p+1)(b^2 + c^2) do not involve a^2, and every other row decouples
    t = MetricTriple(*triple)
    bc2 = t.b * t.b + t.c * t.c
    assert spectrum_up_to(2.0 * bc2, t, g).entries == ((0.0, 1),)
    above = spectrum_up_to(math.nextafter(4.0 * bc2, math.inf), t, g)
    assert above.entries == ((0.0, 1), (4.0 * bc2, 3))
    table = spectrum_up_to(1e-16, t, g)
    ps = [p for p in range(100) if 2 * p * (p + 1) * bc2 <= 1e-16]
    assert table.entries == tuple((2 * p * (p + 1) * bc2, 2 * p + 1) for p in ps)
    assert table.k_sources == tuple((2 * p,) for p in ps)


@pytest.mark.parametrize("triple", [(2e100, 1e100, 1e-250), (1e100, 1e100, 1e-250)])
@pytest.mark.parametrize("g", [SU2, SO3])
def test_c_underflowing_at_the_unit_scale_gives_the_table(triple, g):
    # c 2^-h underflows to 0 once b is scaled into [1, 2); c^2/b^2 = 1e-700
    # is far below an ulp, so the table is that of c = 0 to every digit
    t = MetricTriple(*triple)
    lam1 = lambda1_closed(t, g)
    table = spectrum_up_to(1.01 * lam1.value, t, g)
    assert [m for _, m in table.entries] == [1, lam1.multiplicity]
    assert abs(table.entries[1].value - lam1.value) <= 1e-15 * lam1.value


# SHA-256 over the value bits, multiplicities and k_sources of the tables of
# ``_pinned_generic_tables``: a change to the generic solver path that moves
# one value by one ulp, or one multiplicity, changes it.  Pinned again when
# near-oblate triples moved to the (c, a, b) frame and Newton to its
# perturbed-diagonal start: 43 of the 1,269 entries moved, 36 by 1 ulp and
# 7 by 2, and no multiplicity or k_sources changed
PINNED_GENERIC_TABLES = "2d4296dfe17c83a1c9646560e20d085fc16acaf571f5ec029c0e424604ea1328"


def _pinned_generic_tables():
    """600 small generic tables: 75 triples 10^U(-3, 3), both groups, each at a
    bound 1.1-4 x lambda1 and at an entry of that table and 1 ulp either side."""
    rng = random.Random(20)
    for _ in range(75):
        t = MetricTriple(*(10.0 ** rng.uniform(-3, 3) for _ in range(3)))
        for g in (SU2, SO3):
            table = spectrum_up_to(rng.uniform(1.1, 4.0) * lambda1_closed(t, g).value, t, g)
            entry = rng.choice(table.entries[1:]).value
            yield table
            for lam in (math.nextafter(entry, 0.0), entry, math.nextafter(entry, math.inf)):
                yield spectrum_up_to(lam, t, g)


def test_small_generic_tables_are_pinned():
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spectrum.ClusterMergeWarning)  # thin triples merge
        for table in _pinned_generic_tables():
            entries = [(v.hex(), m) for v, m in table.entries]
            digest.update(repr((entries, table.k_sources)).encode())
    assert digest.hexdigest() == PINNED_GENERIC_TABLES


def test_mu_index_examples():
    round_table = spectrum_up_to(16.0, MetricTriple(1, 1, 1), SU2)
    assert mu_index_of(3.0, round_table) == 1
    assert mu_index_of(8.0, round_table) == 2
    stretched = spectrum_up_to(9.0, MetricTriple(3, 1, 1), SU2)
    assert mu_index_of(8.0, stretched) == 1
    with pytest.raises(NotFound):
        mu_index_of(5.0, round_table)
    with pytest.raises(NotFound):
        mu_index_of(0.0, round_table)


@pytest.mark.parametrize("scale", [1e3, 1.0, 1e-3, 1e-6])
@pytest.mark.parametrize("g", [SU2, SO3])
def test_mu_index_reads_every_entrys_own_index_at_any_scale(scale, g):
    # eigenvalues scale as scale^2: at 1e-6 the entries lie near 1e-11, where
    # an absolute slack of 1e-9 would match the first entry for every value
    t = MetricTriple(1.7, 1.2, 0.8).scaled(scale)
    table = spectrum_up_to(200.0 * scale * scale, t, g)
    positive = [e.value for e in table.entries if e.value > 0.0]
    assert len(positive) >= 5
    assert [mu_index_of(v, table) for v in positive] == list(range(1, len(positive) + 1))


def test_four_bc_value_is_first_or_second():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        f = 4.0 * (t.b * t.b + t.c * t.c)
        table = spectrum_up_to(f * 1.000001, t, SU2)
        assert mu_index_of(f, table) in (1, 2)


def test_low_irrep_eigenvalues():
    t = MetricTriple(2, 1, 1)
    low = low_irrep_eigenvalues(t)
    assert low[0] == (0.0,)
    assert low[1] == (6.0, 6.0)
    assert low[2] == (8.0, 20.0, 20.0)
    assert low_irrep_eigenvalues(MetricTriple(3, 2, 1))[2] == (20.0, 40.0, 52.0)


def test_low_irrep_agrees_with_solver():
    t = MetricTriple(2.4, 1.9, 0.8)
    low = low_irrep_eigenvalues(t)
    sq = _squares(t.a, t.b, t.c)
    for k in (0, 1, 2):
        got = sorted(eigen_block(k, *sq) * (1 + k % 2))  # k = 1 gives its pair once
        assert got == pytest.approx(low[k], rel=1e-11)


def test_sum_eigenvalue_positions_nondecreasing():
    positions = sum_eigenvalue_positions()
    js = [j for _, j in positions]
    assert js[0] == 1
    assert all(a <= b for a, b in zip(js, js[1:]))
    assert js[-1] > js[0]


def test_suspicious_cluster_merges_are_reported():
    import warnings as _warnings

    from homsphere.spectrum import ClusterMergeWarning

    # 4a^2 + 4b^2 and a^2 + 14b^2 collide when 3a^2 = 10b^2; nudging a
    # leaves a gap far above solver noise yet inside the clustering window
    a = math.sqrt(10.0 / 3.0) * (1.0 + 3e-9)
    t = MetricTriple(a, 1, 1)
    with pytest.warns(ClusterMergeWarning) as record:
        berger_spectrum_up_to(20.0, a, 1.0, SU2)
        spectrum_up_to(20.0, t, SU2)
        isospectral_check(t, t, SU2, 20.0)
    # all point at this caller, not into the library; equal triples share
    # one table, so isospectral_check warns once
    assert [r.filename for r in record] == [__file__] * 3
    # clean spectra merge only exactly repeated values: no warning
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", ClusterMergeWarning)
        berger_spectrum_up_to(20.0, 1.0, 1.0, SU2)
        spectrum_up_to(20.0, MetricTriple(3, 2, 1), SU2)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 2 (multiplicities from structure): DEFAULT_CLUSTER_TOL "
    "merges two closed-form eigenvalues 4.2e-11 apart, below the warning gap",
)
def test_closed_form_tables_keep_exactly_distinct_values_apart():
    # (a, 1, 1) has the entries d^2 a^2 + 2(2p(p+d+1) + d), d = |k-2l|,
    # p = min(l, k-l); in exact arithmetic on the float a two of them lie
    # near 170: 170.0000000003 (k = 12, weight 26) and 170.0000000075
    # (k = 10, weight 22).  Block k has no entry below k(k+2), above 170 from k = 13
    a = 1.2247448714222078
    a2 = Fraction(a) ** 2
    exact = collections.defaultdict(list)
    for k in range(13):
        for l in range(k + 1):
            d, p = abs(k - 2 * l), min(l, k - l)
            value = d * d * a2 + 2 * (2 * p * (p + d + 1) + d)
            if abs(value - 170) < 1e-6:
                exact[value].append(k)
    want = [(sum(k + 1 for k in ks), tuple(sorted(set(ks)))) for _, ks in sorted(exact.items())]
    assert want == [(26, (12,)), (22, (10,))]
    table = spectrum_up_to(200.0, normalize_triple(a, 1, 1), SU2)
    got = [
        (e.multiplicity, ks)
        for e, ks in zip(table.entries, table.k_sources)
        if abs(e.value - 170) < 1e-6
    ]
    assert got == want


def test_cutoff_rejects_non_finite_bounds():
    t = MetricTriple(1.7, 1.2, 0.8)
    for lam in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError):
            k_cutoff(lam, t, SU2)


@pytest.mark.parametrize("g", [SU2, SO3])
def test_extreme_aspect_ratio_converges(g):
    # the Gershgorin hull is about 1e62 wide, so bisection needs well over
    # 200 halvings to reach the default relative width at the small values
    table = spectrum_up_to(100.0, MetricTriple(1e30, 1.0, 0.5), g)
    ks = (0, 2, 4, 6, 8, 10)
    for e, k in zip(table.entries, ks, strict=True):
        assert e.value == pytest.approx(k * (k + 2) * 1.25 / 2, rel=1e-12, abs=1e-12)
        assert e.multiplicity == k + 1


def test_diagonal_runs_keep_every_entry_below_the_bound():
    # b = c and a = b > c: block k's records are its entries l <= k/2 that
    # are <= the bound, the middle one weighted k+1 and the others 2(k+1)
    for triple in ((2.0, 1.0, 1.0), (1.4, 1.4, 0.6)):
        a2, bc2, _ = _squares(*triple)
        for k in (3, 8, 14):
            half = _diagonal(k, a2, bc2, range(k // 2 + 1))
            ordered = sorted(half)
            for upper in (ordered[0], ordered[len(ordered) // 2], 0.5 * (ordered[0] + ordered[-1])):
                records = [r for r in spectrum._diagonal_runs(14, 1, a2, bc2, upper, 0)
                           if r[2] == k]
                want = [(v, (k + 1) * (1 if 2 * l == k else 2), k)
                        for l, v in enumerate(half) if v <= upper]
                assert sorted(records) == sorted(want)


@pytest.mark.parametrize("a,b", [(2.5, 0.7), (0.37, 1.9), (1.0, 1.0), (math.sqrt(10.0 / 3.0), 1.0)])
@pytest.mark.parametrize("g", [SU2, SO3])
def test_berger_spectrum_values_equal_the_closed_diagonal_bitwise(a, b, g):
    lam = 300.0
    t = normalize_triple(a, b, b)
    mult = collections.Counter()
    for k in range(0, k_cutoff(lam, t, g) + 1, 2 if g is SO3 else 1):
        values = _berger(k, a, b)
        assert values == values[::-1]  # l and k - l give bitwise-equal values
        for value in values:
            if value <= lam:
                mult[value] += k + 1
    # the library's rule: a value joins the cluster whose first value it
    # exceeds by at most DEFAULT_CLUSTER_TOL relative
    clusters = []
    for value, m in sorted(mult.items()):
        if clusters and value - clusters[-1][0] <= DEFAULT_CLUSTER_TOL * clusters[-1][0]:
            clusters[-1][1] += m
        else:
            clusters.append([value, m])
    table = spectrum_up_to(lam, t, g)
    assert [[e.value, e.multiplicity] for e in table.entries] == clusters


SCALING_TRIPLES = [
    (1.7, 1.2, 0.8), (2.9, 1.7, 0.8), (3.0, 1.0, 0.9), (0.58297, 0.31466, 0.18775),
    # aspect ratios up to 1e4
    (1e4, 2.0, 1.0), (1e4, 9e3, 1.0), (370.0, 19.0, 0.037),
]


def _scaling_base(triple, g):
    t = MetricTriple(*triple)
    lam = 4.0 * lambda1_closed(t, g).value
    return t, lam, spectrum_up_to(lam, t, g)


@pytest.mark.parametrize("triple", SCALING_TRIPLES)
@pytest.mark.parametrize("g", [SU2, SO3])
def test_spectrum_exact_under_power_of_two_scaling(triple, g):
    t, lam, base = _scaling_base(triple, g)
    for j in range(-150, 151):
        table = spectrum_up_to(math.ldexp(lam, 2 * j), t.scaled(math.ldexp(1.0, j)), g)
        assert table.entries == tuple(
            EigenPair(math.ldexp(e.value, 2 * j), e.multiplicity) for e in base.entries
        ), j
        assert table.k_sources == base.k_sources, j


@pytest.mark.parametrize("triple", SCALING_TRIPLES)
@pytest.mark.parametrize("g", [SU2, SO3])
def test_spectrum_scales_with_decimal_factors(triple, g):
    t, lam, base = _scaling_base(triple, g)
    for e in range(-60, 80):
        s = 10.0**e
        table = spectrum_up_to(lam * s * s, normalize_triple(*(s * x for x in triple)), g)
        assert [x.multiplicity for x in table.entries] == [
            x.multiplicity for x in base.entries
        ], e
        for got, want in zip(table.entries, base.entries):
            assert abs(got.value - want.value * s * s) <= 1e-12 * want.value * s * s, e


def test_squares_overflowing_at_the_callers_scale_scale_back_exactly():
    # a = 10^U(154.2, 300), so a^2 is inf at the caller's scale; b = c in a
    # tenth of the triples, and b^2 is inf where b is above about 1.3e154.
    # The twin, the triple scaled by 2^-600, has finite squares, and its
    # table at the bound scaled by 4^-600 is the table scaled back by 4^600
    # exactly: values, multiplicities and k_sources
    rng = random.Random(24)
    kinds = collections.Counter()
    for i in range(600):
        a = 10.0 ** rng.uniform(154.2, 300.0)
        b = 10.0 ** rng.uniform(40.0, min(160.0, math.log10(a)))
        c = b if rng.random() < 0.1 else b / 10.0 ** rng.uniform(0.0, 3.0)
        t = MetricTriple(a, b, c)
        g = (SU2, SO3)[i % 2]
        lam = min(rng.uniform(2.0, 60.0) * (t.b * t.b + t.c * t.c), 1e308)
        table = spectrum_up_to(lam, t, g)
        twin = spectrum_up_to(math.ldexp(lam, -1200), t.scaled(math.ldexp(1.0, -600)), g)
        assert [(v.hex(), m) for v, m in table.entries] == [
            (math.ldexp(v, 1200).hex(), m) for v, m in twin.entries
        ], (t, g, lam)
        assert table.k_sources == twin.k_sources, (t, g, lam)
        kinds["b^2 = inf" if t.b * t.b == math.inf else "b = c" if t.b == t.c else "b > c"] += 1
        # b != c and a^2 below spectrum._DECOUPLED at the unit scale
        kinds["solved"] += t.b != t.c and t.a / t.b < 2.0**63
    assert min(kinds.values()) >= 10, kinds


def test_user_path_never_reaches_the_oracle(monkeypatch):
    triples = [
        MetricTriple(2.9, 1.7, 0.8),  # generic
        MetricTriple(2.5, 0.7, 0.7),  # a > b = c
        MetricTriple(1.3, 1.3, 0.6),  # a = b > c
        MetricTriple(1.1, 1.1, 1.1),  # round
    ]
    berger = [(2.5, 0.7), (0.6, 1.3), (1.1, 1.1)]

    def run():
        tables = [spectrum_up_to(60.0, t, g) for t in triples for g in (SU2, SO3)]
        tables += [berger_spectrum_up_to(60.0, a, b, g) for a, b in berger for g in (SU2, SO3)]
        return [(tb.entries, tb.k_sources) for tb in tables]

    before = run()

    def refuse(*args, **kwargs):
        raise AssertionError("the user path called into homsphere.oracle")

    modules = [m for n, m in list(sys.modules.items()) if m and n.startswith("homsphere")]
    for fn in list(vars(oracle).values()):
        if isinstance(fn, types.FunctionType) and fn.__module__ == oracle.__name__:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, refuse)
    assert run() == before


README = Path(__file__).resolve().parents[1] / "README.md"


def test_user_path_does_not_import_the_oracle():
    commands = [
        line.split()[1:]
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("homsphere ") and line.split()[1] != "verify"
    ]
    assert {argv[0] for argv in commands} == {
        "spectrum", "lambda1", "geometry", "estimate", "product", "rigidity"
    }
    code = (
        "import contextlib, io, sys\n"
        "import homsphere\n"
        "from homsphere.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "t = homsphere.MetricTriple(1.7, 1.2, 0.8)\n"
        "homsphere.spectrum_up_to(40.0, t, homsphere.GroupKind.SU2)\n"
        "homsphere.spectrum.berger_spectrum_up_to(40.0, 2.0, 1.0, homsphere.GroupKind.SO3)\n"
        "print(sorted(m for m in ('numpy', 'homsphere.oracle', 'homsphere.acceptance')"
        " if m in sys.modules))\n"
    )
    src = str(Path(homsphere.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_the_readme_quickstart_prints_what_the_readme_shows():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code, shown = re.search(r"```python\n(.*?)```\n.*?```text\n(.*?)```", section, re.S).groups()
    src = str(Path(homsphere.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert (out.stdout, out.stderr) == (shown, "")


PUBLIC_NAMES = {
    "BergerExtremaReport", "BoundViolation", "ClusterMergeWarning", "CutoffTooLarge",
    "DiamBounds", "EigenPair", "EmptyProduct", "GroupKind", "HomsphereError",
    "InconsistentInvariants", "IsospectralResult", "IsospectralVerdict", "Lambda1Result",
    "MetricClass", "MetricTriple", "NonPositiveParameter",
    "ProductEstimate", "ProductSpec", "Regime", "SpectralInvariants", "SpectrumTable",
    "berger_lambda1_diam2_extrema", "classify", "diameter", "invariants",
    "isospectral_check", "lambda1_closed", "lambda1_diam2", "normalize_triple",
    "product_estimate", "recover_triple", "scalar_curvature", "spectrum_up_to",
    "volume", "yamabe_gap",
}


def test_public_names_leave_out_solver_internals():
    assert len(homsphere.__all__) == 35
    assert set(homsphere.__all__) == PUBLIC_NAMES
    internals = {
        oracle: ("kernel_rows",),
        eigensolve: ("eigenvalues", "eigen_block"),
        homsphere.spectrum: ("k_cutoff",),
    }
    for module, names in internals.items():
        for name in names:
            assert callable(getattr(module, name))
            assert not hasattr(homsphere, name)
