import collections
import math

import numpy as np
import pytest

from homsphere import casimir
from homsphere.casimir import _PLAN_K_MAX, _squares, _wang_halves
from homsphere.core import GroupKind, MetricTriple
from homsphere.eigensolve import eigen_block
from homsphere.oracle import (
    PatternViolation,
    TridiagBlock,
    _diagonal,
    casimir_matrix,
    casimir_matrix_oracle,
    generator_matrices,
    gershgorin,
    low_irrep_eigenvalues,
    symmetrize,
    to_dense,
    tridiagonal_split,
)
from homsphere.spectrum import k_cutoff, spectrum_up_to


def _blocks(k, t):
    """The (even, odd) tridiagonal blocks of irrep k, by the dense oracle chain."""
    return tridiagonal_split(symmetrize(casimir_matrix(k, t), k), k)


TRIPLES = [
    MetricTriple(1, 1, 1),
    MetricTriple(2, 1, 1),
    MetricTriple(3, 2, 1),
    MetricTriple(5, 3, 2),
    MetricTriple(4, 4, 1),
]


def test_generators_k0_are_zero():
    for m in generator_matrices(0):
        assert m.shape == (1, 1)
        assert np.all(m == 0)


def test_generator_m1_k1_diagonal():
    m1, _, _ = generator_matrices(1)
    assert np.array_equal(m1, np.diag([1j, -1j]))


def test_generator_m2_k2_middle_column():
    _, m2, _ = generator_matrices(2)
    # image of the middle basis vector: -P0 + P2
    assert np.array_equal(m2[:, 1], np.array([-1.0, 0.0, 1.0], dtype=complex))


@pytest.mark.parametrize("k", range(6))
def test_generators_satisfy_bracket_relations(k):
    m1, m2, m3 = generator_matrices(k)

    def bracket(x, y):
        return x @ y - y @ x

    assert np.array_equal(bracket(m1, m2), 2 * m3)
    assert np.array_equal(bracket(m3, m1), 2 * m2)
    assert np.array_equal(bracket(m2, m3), 2 * m1)


def test_casimir_matrix_small_cases():
    t = MetricTriple(3, 2, 1)
    a2, b2, c2 = 9.0, 4.0, 1.0
    assert np.array_equal(casimir_matrix(0, t), np.zeros((1, 1)))
    s = a2 + (b2 + c2)
    assert np.array_equal(casimir_matrix(1, t), np.diag([s, s]))
    m = casimir_matrix(2, t)
    off = c2 - b2
    expected = np.array(
        [
            [4 * a2 + 2 * (b2 + c2), 0.0, 2 * off],
            [0.0, 4 * (b2 + c2), 0.0],
            [2 * off, 0.0, 4 * a2 + 2 * (b2 + c2)],
        ]
    )
    assert np.array_equal(m, expected)


def test_casimir_round_is_scalar_k_times_k_plus_2():
    t = MetricTriple(1, 1, 1)
    for k in range(8):
        assert np.array_equal(casimir_matrix(k, t), k * (k + 2) * np.eye(k + 1))


@pytest.mark.parametrize("t", TRIPLES)
@pytest.mark.parametrize("k", range(21))
def test_oracle_matches_closed_form_exactly(t, k):
    assert np.array_equal(casimir_matrix(k, t), casimir_matrix_oracle(k, t))


def test_oracle_round_values():
    assert np.array_equal(casimir_matrix_oracle(1, MetricTriple(1, 1, 1)), np.diag([3.0, 3.0]))
    assert np.array_equal(
        casimir_matrix_oracle(2, MetricTriple(1, 1, 1)), np.diag([8.0, 8.0, 8.0])
    )


def test_berger_diagonal_values():
    a2, bc2, off = _squares(3.0, 1.0, 1.0)
    assert off is None
    assert sorted(_diagonal(2, a2, bc2, range(3))) == [8.0, 40.0, 40.0]


def test_berger_diagonal_equals_matrix_diagonal():
    t = MetricTriple(2.5, 0.7, 0.7)
    a2, bc2, _ = _squares(t.a, t.b, t.c)
    for k in range(9):
        assert _diagonal(k, a2, bc2, range(k + 1)) == list(np.diagonal(casimir_matrix(k, t)))


def test_symmetrize_identity_for_small_k_and_berger():
    t = MetricTriple(3, 2, 1)
    for k in (0, 1, 2):
        dense = casimir_matrix(k, t)
        assert np.array_equal(symmetrize(dense, k), dense)
    berger = MetricTriple(3, 1, 1)
    dense = casimir_matrix(7, berger)
    assert np.array_equal(symmetrize(dense, 7), dense)


@pytest.mark.parametrize("k", [3, 4, 7, 12, 25, 60])
def test_symmetrize_is_symmetric_and_isospectral(k):
    t = MetricTriple(2.0, 1.0, 0.5)
    dense = casimir_matrix(k, t)
    sym = symmetrize(dense, k)
    assert np.array_equal(sym, sym.T)
    ev_dense = np.sort(np.linalg.eigvals(dense).real)
    ev_sym = np.sort(np.linalg.eigvalsh(sym))
    assert np.allclose(ev_dense, ev_sym, rtol=1e-12, atol=1e-12 * np.abs(ev_sym).max())


def test_tridiagonal_split_sizes_and_values():
    t = MetricTriple(3, 2, 1)
    even, odd = tridiagonal_split(symmetrize(casimir_matrix(2, t), 2), 2)
    assert even.n == 2 and odd.n == 1
    assert odd.diag[0] == 4.0 * (4.0 + 1.0)  # 4(b^2+c^2)
    even5, odd5 = tridiagonal_split(symmetrize(casimir_matrix(5, t), 5), 5)
    assert even5.n == 3 and odd5.n == 3
    even1, odd1 = tridiagonal_split(casimir_matrix(1, t), 1)
    assert even1.diag[0] == odd1.diag[0] == 14.0


def test_tridiagonal_split_rejects_wrong_pattern():
    bad = np.eye(4)
    bad[0, 1] = 5.0
    bad[1, 0] = 5.0
    with pytest.raises(PatternViolation):
        tridiagonal_split(bad, 3)


def test_split_preserves_eigenvalue_multiset():
    t = MetricTriple(2.7, 1.4, 0.6)
    for k in range(13):
        even, odd = _blocks(k, t)
        merged = np.sort(
            np.concatenate(
                [
                    np.linalg.eigvalsh(to_dense(even)) if even.n else np.zeros(0),
                    np.linalg.eigvalsh(to_dense(odd)) if odd.n else np.zeros(0),
                ]
            )
        )
        dense = np.sort(np.linalg.eigvals(casimir_matrix(k, t)).real)
        assert np.allclose(merged, dense, rtol=1e-11, atol=1e-11 * max(1.0, dense.max()))


def test_gershgorin_k1_degenerate_intervals():
    t = MetricTriple(3, 2, 1)
    g = gershgorin(1, t)
    s = 9.0 + 4.0 + 1.0
    assert np.array_equal(g.lower, [s, s])
    assert np.array_equal(g.upper, [s, s])
    assert g.odd_floor == 9.0 + 1 * 4.0 + 1.0


def test_gershgorin_center_column_attains_floor_at_k2():
    t = MetricTriple(3, 2, 1)
    g = gershgorin(2, t)
    assert g.floor == 2 * 2 * 4.0 + 4 * 1.0
    assert g.lower[1] == g.floor == g.upper[1]


def test_gershgorin_berger_intervals_are_points():
    t = MetricTriple(2, 1, 1)
    g = gershgorin(3, t)
    assert np.array_equal(g.lower, g.upper)
    assert np.array_equal(g.lower, np.diagonal(casimir_matrix(3, t)))


def test_eigenvalues_nonnegative_and_inside_union():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = MetricTriple(*(10.0 ** rng.uniform(-1, 1, size=3)))
        for k in (1, 4, 9):
            even, odd = _blocks(k, t)
            eigs = np.concatenate(
                [
                    np.linalg.eigvalsh(to_dense(even)),
                    np.linalg.eigvalsh(to_dense(odd)) if odd.n else np.zeros(0),
                ]
            )
            assert np.all(eigs > -1e-9)
            g = gershgorin(k, t)
            for value in eigs:
                assert g.contains(value, slack=1e-9 * (1 + abs(value)))


def _assembly_triples():
    rng = np.random.default_rng(2024)
    triples = [MetricTriple(*sorted(10.0 ** rng.uniform(-2, 2, size=3), reverse=True))
               for _ in range(4)]
    triples.append(MetricTriple(1e4, 1.0, 1.0))  # aspect ratio 1e4
    triples.append(MetricTriple(3.0, 1.0, 1.0 - 2.0**-53))  # b - c of one ulp
    triples.append(MetricTriple(1.7, float(np.nextafter(1.2, 2.0)), 1.2))  # and at 1.2
    return triples


# ---- Wang halves ----

WANG_TRIPLES = [
    MetricTriple(2.9, 1.7, 0.8),  # generic
    MetricTriple(0.58297, 0.31466, 0.18775),
    MetricTriple(2.0, 1.0, 1.0 - 1e-9),  # near-prolate: b ~ c
    MetricTriple(1.7, 1.0, 1.0 - 1e-4),
    MetricTriple(1.0, 1.0 - 1e-9, 0.6),  # near-oblate: a ~ b
    MetricTriple(1.0, 1.0 - 1e-4, 0.3),
]


def _halves(k, t):
    """``_wang_halves`` for the squares of the triple as given, as ``TridiagBlock``s."""
    b2, c2 = t.b * t.b, t.c * t.c
    halves = _wang_halves(k, t.a * t.a, b2 + c2, c2 - b2)
    return [TridiagBlock(diag=tuple(d), offdiag=tuple(e)) for d, e in halves]


def test_squares_of_generic_and_diagonal_triples():
    t = MetricTriple(2.9, 1.7, 0.8)
    assert _squares(t.a, t.b, t.c) == (t.a * t.a, t.b * t.b + t.c * t.c, t.c * t.c - t.b * t.b)
    # two equal parameters: the squares of the diagonal form, (c, a, b) for a = b
    assert _squares(2.5, 0.7, 0.7) == (2.5 * 2.5, 0.7 * 0.7 + 0.7 * 0.7, None)
    assert _squares(1.3, 1.3, 0.6) == (0.6 * 0.6, 1.3 * 1.3 + 1.3 * 1.3, None)
    # equality is read off the parameters, not off squares that underflow to 0
    assert _squares(1.0, 1e-170, 1e-171) == (1.0, 0.0, 0.0)


def _halves_of_blocks(k, t):
    """The Wang halves cut from the full blocks of the dense oracle chain."""
    even, odd = _blocks(k, t)
    if k % 2:
        return [even]
    halves = []
    for block in (even, odd):
        n, d, e = block.n, block.diag, block.offdiag
        m = n // 2
        if n % 2:
            last = (e[m - 1] * math.sqrt(2.0),) if m else ()
            halves.append(TridiagBlock(diag=d[: m + 1], offdiag=e[: m - 1] + last))
            if m:
                halves.append(TridiagBlock(diag=d[:m], offdiag=e[: m - 1]))
        elif n:
            for edge in (d[m - 1] + e[m - 1], d[m - 1] - e[m - 1]):
                halves.append(TridiagBlock(diag=d[: m - 1] + (edge,), offdiag=e[: m - 1]))
    return halves


def _bits(block):
    return (tuple(map(float.hex, block.diag)), tuple(map(float.hex, block.offdiag)))


@pytest.mark.parametrize("t", WANG_TRIPLES + _assembly_triples(), ids=repr)
def test_wang_halves_are_edited_prefixes_of_the_blocks(t):
    # bitwise, so the one direct assembly agrees with the dense chain entry by entry
    for k in (*range(41), 50, _PLAN_K_MAX, _PLAN_K_MAX + 1, 199, 400):
        got = collections.Counter(map(_bits, _halves(k, t)))
        assert got == collections.Counter(map(_bits, _halves_of_blocks(k, t)))


def test_the_plan_memo_keeps_no_block_past_its_bound(monkeypatch):
    # K = 130 passes the bound, so blocks 129 and 130 are planned on each call
    t, lam = MetricTriple(1e4, 1.0, 0.5), 4486.0
    assert k_cutoff(lam, t, GroupKind.SU2) == _PLAN_K_MAX + 2
    warm_table = spectrum_up_to(lam, t, GroupKind.SU2)
    assert max(casimir._PLANS) <= _PLAN_K_MAX
    ks = range(_PLAN_K_MAX + 3)
    warm = [[_bits(h) for h in _halves(k, t)] for k in ks]
    monkeypatch.setattr(casimir, "_PLANS", {})
    cold = [[_bits(h) for h in _halves(k, t)] for k in ks]
    assert cold == warm
    assert sorted(casimir._PLANS) == list(range(_PLAN_K_MAX + 1))
    monkeypatch.setattr(casimir, "_PLANS", {})
    cold_table = spectrum_up_to(lam, t, GroupKind.SU2)
    hexes = [[e.value.hex() for e in table.entries] for table in (cold_table, warm_table)]
    assert hexes[0] == hexes[1]
    assert cold_table == warm_table


def test_wang_half_sizes():
    t = WANG_TRIPLES[0]
    sizes = {k: sorted(h.n for h in _halves(k, t)) for k in range(8)}
    assert sizes == {
        0: [1], 1: [1], 2: [1, 1, 1], 3: [2], 4: [1, 1, 1, 2], 5: [3],
        6: [1, 2, 2, 2], 7: [4],
    }


@pytest.mark.parametrize("t", WANG_TRIPLES, ids=repr)
def test_wang_halves_carry_the_spectrum(t):
    sq = _squares(t.a, t.b, t.c)
    for k in range(41):
        dense = np.linalg.eigvalsh(symmetrize(casimir_matrix(k, t), k))
        scale = 1e-12 * max(1.0, float(np.abs(dense).max()))
        halves = [np.linalg.eigvalsh(to_dense(h)) for h in _halves(k, t)]
        union = np.sort(np.concatenate(halves * (2 if k % 2 else 1)))
        assert np.allclose(union, dense, rtol=0.0, atol=scale)
        # an odd block gives one value per Wang mirror pair
        assert np.allclose(np.repeat(eigen_block(k, *sq), 1 + k % 2), dense, rtol=0.0, atol=scale)


@pytest.mark.parametrize("t", WANG_TRIPLES, ids=repr)
def test_odd_k_values_come_in_exact_pairs(t):
    # the dense odd-k spectrum is pairs, and eigen_block gives each pair once
    for k in range(1, 60, 2):
        dense = np.linalg.eigvalsh(symmetrize(casimir_matrix(k, t), k))
        scale = 1e-12 * max(1.0, float(np.abs(dense).max()))
        got = eigen_block(k, *_squares(t.a, t.b, t.c))
        assert len(got) == (k + 1) // 2
        assert np.allclose(got, dense[0::2], rtol=0.0, atol=scale)
        assert np.allclose(got, dense[1::2], rtol=0.0, atol=scale)


@pytest.mark.parametrize("t", WANG_TRIPLES, ids=repr)
def test_low_irreps_from_one_by_one_halves_match_closed_forms(t):
    closed = low_irrep_eigenvalues(t)
    sq = _squares(t.a, t.b, t.c)
    for k in (0, 1, 2):
        got = sorted(eigen_block(k, *sq) * (1 + k % 2))  # k = 1 gives its pair once
        assert len(got) == len(closed[k])
        for value, want in zip(got, closed[k]):
            assert abs(value - want) <= 4 * math.ulp(want)


def test_bound_below_the_hull_gives_no_block_values():
    t = WANG_TRIPLES[0]
    sq = _squares(t.a, t.b, t.c)
    for k in (3, 4, 10, 31):
        floor = 2 * k * t.b**2 + k * k * t.c**2  # below every eigenvalue of block k
        assert eigen_block(k, *sq, 0.5 * floor) == ()
        assert eigen_block(k, *sq, math.nextafter(min(eigen_block(k, *sq)), 0.0)) == ()
