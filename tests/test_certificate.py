"""Sturm-count certificates of whole tables: every multiplicity, and completeness.

``oracle.sturm_counter`` counts the eigenvalues below x from the same
Wang halves the solver reads, without solving for any.  At the resolution
R the table was clustered at, each entry (v, m) must hold exactly the m
eigenvalues counted in [v(1-R), v(1+R)], and the table must hold every
eigenvalue counted below L(1-R).  The triples are seeded and generic,
near-prolate (b ~ c < a) and near-oblate (a ~ b > c), where values of
different blocks and halves lie close together, and extreme, with
aspect ratios up to 1e4.  ``casimir._squares`` writes a near-oblate
triple in its (c, a, b) frame for the solver and for the counter alike,
so further near-oblate tables are certified by counts of the halves in
the frame (a, b, c) as given, which do not share that choice.

``oracle.exact_count`` counts the eigenvalues of one parity block below
x in integers, with no rounding: the last tests check it against a dense
solver and at points where a continuant is exactly 0.
"""

import math
import random

import numpy as np
import pytest

from homsphere import oracle
from homsphere.core import GroupKind, normalize_triple
from homsphere.oracle import (
    _diagonal,
    casimir_matrix,
    exact_count,
    sturm_counter,
    symmetrize,
    to_dense,
    tridiagonal_split,
)
from homsphere.spectrum import DEFAULT_CLUSTER_TOL, spectrum_up_to

# the counts check the merges that ClusterMergeWarning reports
pytestmark = pytest.mark.filterwarnings("ignore::homsphere.spectrum.ClusterMergeWarning")

R = DEFAULT_CLUSTER_TOL
# blocks per table: SO(3) solves only even k, so it gets more
BLOCKS = {GroupKind.SU2: 36, GroupKind.SO3: 48}
# tables per shape; the extreme triples spread over four decades, so they get more
TABLES = {"generic": 2, "near_prolate": 2, "near_oblate": 2, "extreme": 12}


def _loguniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _triple(rng, shape):
    s = _loguniform(rng, 0.3, 3.0)
    if shape == "near_prolate":
        return (s * _loguniform(rng, 1.3, 3.0), s, s * (1.0 - _loguniform(rng, 1e-3, 1e-1)))
    if shape == "near_oblate":
        return (s, s * (1.0 - _loguniform(rng, 1e-3, 1e-1)), s * _loguniform(rng, 0.3, 0.8))
    if shape == "extreme":
        return tuple(s * _loguniform(rng, 1.0, 1e4) for _ in range(3))
    return tuple(s * _loguniform(rng, 0.1, 10.0) for _ in range(3))


def _bound(t, g):
    """Halfway between the envelopes of the table's last block and the next."""
    blocks = BLOCKS[g]
    envelope = [2.0 * k * t.b**2 + float(k) * k * t.c**2 for k in (blocks, blocks + 1)]
    return sum(envelope) / 2


def _cases():
    rng = random.Random(2028)
    keys = [(g, shape) for g in BLOCKS for shape in ("generic", "near_prolate", "near_oblate")]
    # drawn last, so the other shapes keep their triples
    keys += [(g, "extreme") for g in BLOCKS]
    cases = []
    for g, shape in keys:
        for i in range(TABLES[shape]):
            t = normalize_triple(*_triple(rng, shape))
            cases.append(pytest.param(t, g, _bound(t, g), id=f"{g.value}-{shape}-{i}"))
    return cases


def _assert_certified(table, count, lam):
    """Every entry holds the m eigenvalues counted around it, and none is missing below L."""
    (_, one), (lambda1, _) = table.entries[:2]
    assert count(lambda1 * (1.0 - R)) == one == 1
    held = [(v, m, count(v * (1.0 + R)) - count(v * (1.0 - R))) for v, m in table.entries[1:]]
    wrong = [entry for entry in held if entry[1] != entry[2]]
    assert not wrong, f"{len(wrong)} of {len(table.entries)} entries miscounted: {wrong[:3]}"
    low = lam * (1.0 - R)
    assert count(low) == table.counting_function(low)


@pytest.mark.parametrize("g", GroupKind)
def test_counts_match_the_dense_matrices(g):
    # each irrep k contributes its eigenvalues k+1 times
    t = normalize_triple(1.7, 1.2, 0.8)
    dense = np.concatenate([
        np.repeat(np.linalg.eigvals(casimir_matrix(k, t)).real, k + 1)
        for k in range(0, 13, 2 if g is GroupKind.SO3 else 1)
    ])
    count = sturm_counter(t, g, 60.0)
    for x in (0.5, 5.0, 9.0, 17.3, 30.0, 45.5, 60.0):
        assert count(x) == np.count_nonzero(dense < x)


@pytest.mark.parametrize("t, g, lam", _cases())
def test_sturm_counts_certify_every_multiplicity_and_completeness(t, g, lam):
    _assert_certified(spectrum_up_to(lam, t, g), sturm_counter(t, g, lam * (1.0 + R)), lam)


@pytest.mark.parametrize("g", GroupKind)
@pytest.mark.parametrize("seed", range(2))
def test_near_oblate_tables_are_certified_by_the_halves_of_the_other_frame(seed, g, monkeypatch):
    # the solver takes these in the (c, a, b) frame; the counter is given
    # the squares of (a, b, c) as they stand
    t = normalize_triple(*_triple(random.Random(f"near-oblate:{g.value}:{seed}"), "near_oblate"))
    assert t.a * t.a - t.b * t.b < t.b * t.b - t.c * t.c
    lam = _bound(t, g)
    table = spectrum_up_to(lam, t, g)
    monkeypatch.setattr(oracle, "_squares", lambda a, b, c: (a * a, b * b + c * c, c * c - b * b))
    _assert_certified(table, sturm_counter(t, g, lam * (1.0 + R)), lam)


def test_closed_form_tables_count_the_full_diagonal():
    # two equal parameters, and a^2 past spectrum._DECOUPLED at the unit scale
    for t in (normalize_triple(1.7, 0.9, 0.9), normalize_triple(1.3, 1.3, 0.6),
              normalize_triple(1e40, 1.5, 1.0)):
        for g in GroupKind:
            lam = 300.0 * t.b * t.b
            table = spectrum_up_to(lam, t, g)
            count = sturm_counter(t, g, lam * (1.0 + R))
            for v, m in table.entries[1:]:
                assert count(v * (1.0 + R)) - count(v * (1.0 - R)) == m
            assert count(lam * (1.0 - R)) == table.counting_function(lam * (1.0 - R))


def test_exact_counts_match_a_dense_solver():
    # points within 1e-9 relative of a float eigenvalue are left out, where
    # the rounding of the float chain's entries could decide the count
    rng = random.Random(2029)
    points = 0
    for _ in range(60):
        t = normalize_triple(*_triple(rng, rng.choice(list(TABLES))))
        k = rng.randrange(40)
        blocks = tridiagonal_split(symmetrize(casimir_matrix(k, t), k), k)
        for parity, block in enumerate(blocks):
            values = np.linalg.eigvalsh(to_dense(*block)) if block[0] else np.array([])
            top = values.max() if values.size else 1.0
            for _ in range(8):
                x = rng.uniform(-0.1 * top, 1.1 * top)
                if np.any(np.abs(values - x) <= 1e-9 * abs(x)):
                    continue
                want = int(np.count_nonzero(values < x))
                assert exact_count(k, t, parity, x) == want, (t, k, parity, x)
                assert exact_count(k, t, parity, x, inclusive=True) == want, (t, k, parity, x)
                points += 1
    assert points > 900


def test_exact_counts_take_an_eigenvalue_at_x_as_not_below_it():
    t = normalize_triple(3.0, 2.0, 1.0)
    # k = 2: the even block holds 4(a^2 + c^2) = 40 and 4(a^2 + b^2) = 52,
    # the odd one 4(b^2 + c^2) = 20, where the last continuant is 0
    for parity, x, below in [(0, 40.0, 0), (0, 52.0, 1), (1, 20.0, 0)]:
        assert exact_count(2, t, parity, x) == below
        assert exact_count(2, t, parity, x, inclusive=True) == below + 1
    # at the even block's first diagonal entry d0 the first continuant is
    # 0.  For k = 4, d0 = 164 is also an eigenvalue, below 168 and above 56;
    # for k = 5 it is none, and both counts are the dense solver's
    assert casimir_matrix(4, t)[0][0] == 164.0
    assert exact_count(4, t, 0, 164.0) == 1
    assert exact_count(4, t, 0, 164.0, inclusive=True) == 2
    dense = casimir_matrix(5, t)
    d0 = dense[0][0]
    even = np.linalg.eigvalsh(to_dense(*tridiagonal_split(symmetrize(dense, 5), 5)[0]))
    assert np.all(np.abs(even - d0) > 1e-3 * d0)
    want = int(np.count_nonzero(even < d0))
    assert exact_count(5, t, 0, d0) == exact_count(5, t, 0, d0, inclusive=True) == want


def test_exact_counts_split_at_zero_couplings():
    # b = c: every coupling is 0 and each block is its diagonal
    t = normalize_triple(2.0, 1.25, 1.25)  # dyadic: the float diagonal is exact
    for k in range(9):
        diag = _diagonal(k, t.a * t.a, t.b * t.b + t.c * t.c, range(k + 1))
        for parity in (0, 1):
            entries = diag[parity::2]
            for x in {*entries, 0.5 * min(diag), 2.0 * max(diag)}:
                assert exact_count(k, t, parity, x) == sum(d < x for d in entries)
                assert exact_count(k, t, parity, x, inclusive=True) == sum(d <= x for d in entries)
