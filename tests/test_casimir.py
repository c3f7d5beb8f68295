import numpy as np
import pytest

from homsphere.casimir import build_irrep_block
from homsphere.core import MetricTriple
from homsphere.oracle import (
    PatternViolation,
    casimir_matrix,
    casimir_matrix_oracle,
    generator_matrices,
    gershgorin,
    symmetrize,
    to_dense,
    tridiagonal_split,
)

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
        even, odd = build_irrep_block(k, t)
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
            even, odd = build_irrep_block(k, t)
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


@pytest.mark.parametrize("k", [0, 1, 2, 3, 50, 199, 400])
def test_direct_assembly_equals_dense_chain_bitwise(k):
    for t in _assembly_triples():
        got = build_irrep_block(k, t)
        want = tridiagonal_split(symmetrize(casimir_matrix(k, t), k), k)
        for g, w in zip(got, want):
            assert np.array(g.diag).tobytes() == np.array(w.diag).tobytes()
            assert np.array(g.offdiag).tobytes() == np.array(w.offdiag).tobytes()
