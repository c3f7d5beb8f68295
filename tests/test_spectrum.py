import collections
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import homsphere
from homsphere import casimir, eigensolve, oracle
from homsphere.oracle import (
    NotFound,
    berger_eigenvalue,
    low_irrep_eigenvalues,
    mu_index_of,
    sum_eigenvalue_positions,
)
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
    ],
)
def test_lambda1_closed_cases(triple, group, value, mult, regime):
    got = lambda1_closed(MetricTriple(*triple), group)
    assert got.value == value
    assert got.multiplicity == mult
    assert got.regime is regime


def test_lambda1_boundary_multiplicity_seven():
    # dyadic b, c make 3(b^2+c^2) exact; a is kept only if squaring is exact
    b = c = 1.0
    a = np.sqrt(3.0 * (b * b + c * c))
    if a * a == 3.0 * (b * b + c * c):
        got = lambda1_closed(MetricTriple(a, b, c), SU2)
        assert got.multiplicity == 7
        assert got.regime is Regime.BOUNDARY


def test_lambda1_scaling_covariance():
    t = MetricTriple(3.2, 1.7, 0.9)
    for g in (SU2, SO3):
        base = lambda1_closed(t, g)
        scaled = lambda1_closed(t.scaled(2.0), g)
        assert scaled.value == pytest.approx(4.0 * base.value, rel=1e-15)
        assert scaled.multiplicity == base.multiplicity


def test_berger_eigenvalue_closed_values():
    assert berger_eigenvalue(1, 0, 2.0, 1.5) == 4.0 + 2 * 2.25
    assert berger_eigenvalue(2, 1, 9.9, 2.0) == 8 * 4.0
    assert berger_eigenvalue(0, 0, 3.3, 4.4) == 0.0
    with pytest.raises(ValueError):
        berger_eigenvalue(2, 3, 1.0, 1.0)


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
        assert min(eigen_block(k, t)) > lam


def test_berger_consistency_is_exact():
    for a, b in [(2.0, 1.0), (1.0, 1.0), (3.7, 0.9)]:
        for g in (SU2, SO3):
            closed = berger_spectrum_up_to(50.0, a, b, g)
            numeric = spectrum_up_to(50.0, normalize_triple(a, b, b), g)
            assert closed.entries == numeric.entries
            assert closed.k_sources == numeric.k_sources


def test_berger_round_matches_k_law():
    table = berger_spectrum_up_to(35.0, 1.0, 1.0, SU2)
    assert [(e.value, e.multiplicity) for e in table.entries] == [
        (float(k * (k + 2)), (k + 1) ** 2) for k in range(6)
    ]


def test_berger_spectrum_handles_swapped_parameters():
    # (a, b, b) with a < b normalizes to a metric with its two large
    # parameters equal; closed form and numeric pipeline must still agree
    closed = berger_spectrum_up_to(40.0, 0.5, 1.3, SU2)
    numeric = spectrum_up_to(40.0, normalize_triple(0.5, 1.3, 1.3), SU2)
    assert closed.entries == numeric.entries
    assert closed.k_sources == numeric.k_sources


@pytest.mark.parametrize("triple", [(1.3, 1.3, 0.5), (3.0, 3.0, 1.0), (2.5, 0.7, 0.7)])
@pytest.mark.parametrize("g", [SU2, SO3])
def test_two_equal_parameters_never_reach_the_solver(monkeypatch, triple, g):
    def refuse(*args, **kwargs):
        raise AssertionError("a two-equal-parameter spectrum reached the solver")

    monkeypatch.setattr(eigensolve, "eigenvalues", refuse)
    monkeypatch.setattr(eigensolve, "build_irrep_block", refuse)
    monkeypatch.setattr(casimir, "build_irrep_block", refuse)
    table = spectrum_up_to(80.0, MetricTriple(*triple), g)
    assert table.entries[0].value == 0.0 and len(table.entries) > 2


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
    for k in (0, 1, 2):
        got = eigen_block(k, t)
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
    # all point at this caller, not into the library
    assert [r.filename for r in record] == [__file__] * 4
    # clean spectra merge only exactly repeated values: no warning
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", ClusterMergeWarning)
        berger_spectrum_up_to(20.0, 1.0, 1.0, SU2)
        spectrum_up_to(20.0, MetricTriple(3, 2, 1), SU2)


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


@pytest.mark.parametrize("a,b", [(2.5, 0.7), (3.7, 0.9), (1.0, 1.0), (math.sqrt(10.0 / 3.0), 1.0)])
def test_diagonal_branch_equals_berger_eigenvalue_bitwise(a, b):
    for x, y in ((a, b), (b, a)):  # swapped, (0.7, 2.5, 2.5) is the a = b > c shape
        t = MetricTriple(x, y, y)
        for k in range(40):
            closed = tuple(sorted(berger_eigenvalue(k, j, x, y) for j in range(k + 1)))
            assert eigen_block(k, t) == closed


@pytest.mark.parametrize("a,b", [(2.5, 0.7), (0.37, 1.9), (1.0, 1.0), (math.sqrt(10.0 / 3.0), 1.0)])
@pytest.mark.parametrize("g", [SU2, SO3])
def test_berger_spectrum_values_equal_berger_eigenvalue_bitwise(a, b, g):
    lam = 300.0
    cutoff = k_cutoff(lam, normalize_triple(a, b, b), g)
    mult = collections.Counter()
    for k in range(0, cutoff + 1, 2 if g is SO3 else 1):
        for j in range(k + 1):
            value = berger_eigenvalue(k, j, a, b)
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
    table = berger_spectrum_up_to(lam, a, b, g)
    assert [[e.value, e.multiplicity] for e in table.entries] == clusters


SCALING_TRIPLES = [(1.7, 1.2, 0.8), (2.9, 1.7, 0.8), (3.0, 1.0, 0.9), (0.58297, 0.31466, 0.18775)]


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
        "homsphere.berger_spectrum_up_to(40.0, 2.0, 1.0, homsphere.GroupKind.SO3)\n"
        "print(sorted(m for m in ('numpy', 'homsphere.oracle', 'homsphere.acceptance')"
        " if m in sys.modules))\n"
    )
    src = str(Path(homsphere.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
