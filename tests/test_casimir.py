import math
import re
from fractions import Fraction

import numpy as np
import pytest

from homsphere import casimir
from homsphere.casimir import _PLAN_K_MAX, _squares, _wang_halves
from homsphere.core import GroupKind, MetricTriple
from homsphere.eigensolve import eigen_block
from homsphere.geometry import DiamBounds
from homsphere.oracle import (
    AsymmetryResidue,
    PatternViolation,
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
from homsphere.spectrum import K_CAP, k_cutoff, spectrum_up_to


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
    assert generator_matrices(0) == ([[0]], [[0]], [[0]])


def test_generator_m1_k1_diagonal():
    # M1 = i m1
    m1, _, _ = generator_matrices(1)
    assert m1 == [[1, 0], [0, -1]]


def test_generator_m2_k2_middle_column():
    _, m2, _ = generator_matrices(2)
    # image of the middle basis vector: -P0 + P2
    assert [row[1] for row in m2] == [-1, 0, 1]


@pytest.mark.parametrize("k", range(6))
def test_generators_satisfy_bracket_relations(k):
    # the integer matrices m1 = M1/i, m2 = M2, m3 = M3/i; every entry is an int
    matrices = generator_matrices(k)
    assert {type(x) for m in matrices for row in m for x in row} == {int}
    m1, m2, m3 = map(np.array, matrices)

    def bracket(x, y):
        return x @ y - y @ x

    # [M1, M2] = 2 M3, [M3, M1] = 2 M2, [M2, M3] = 2 M1 with M1 = i m1, M3 = i m3
    assert np.array_equal(bracket(m1, m2), 2 * m3)
    assert np.array_equal(bracket(m3, m1), -2 * m2)
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
    sym = np.array(symmetrize(dense, k))
    assert np.array_equal(sym, sym.T)
    ev_dense = np.sort(np.linalg.eigvals(dense).real)
    ev_sym = np.sort(np.linalg.eigvalsh(sym))
    assert np.allclose(ev_dense, ev_sym, rtol=1e-12, atol=1e-12 * np.abs(ev_sym).max())


def test_tridiagonal_split_sizes_and_values():
    # each block is a (diagonal, off-diagonal) pair of float lists
    t = MetricTriple(3, 2, 1)
    even, odd = tridiagonal_split(symmetrize(casimir_matrix(2, t), 2), 2)
    assert len(even[0]) == 2 and len(even[1]) == 1
    assert odd == ([4.0 * (4.0 + 1.0)], [])  # 4(b^2+c^2)
    even5, odd5 = tridiagonal_split(symmetrize(casimir_matrix(5, t), 5), 5)
    assert len(even5[0]) == 3 and len(odd5[0]) == 3
    assert tridiagonal_split(casimir_matrix(1, t), 1) == (([14.0], []), ([14.0], []))


def test_tridiagonal_split_rejects_wrong_pattern():
    bad = np.eye(4)
    bad[0, 1] = 5.0
    bad[1, 0] = 5.0
    with pytest.raises(PatternViolation):
        tridiagonal_split(bad.tolist(), 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: DiamBounds(1.0, 2.0, 1.0), ValueError,
     "exact diameter requires lower = exact = upper"),
    (lambda: eigen_block(-1, 4.0, 2.0, 0.5), ValueError, "irrep label must be nonnegative, got -1"),
    (lambda: generator_matrices(-1), ValueError, "irrep label must be nonnegative, got -1"),
    (lambda: symmetrize([[0.0]], 2), ValueError, "expected a 3x3 matrix for k=2"),
    (lambda: symmetrize([[0.0, 0.0, 1.0], [0.0] * 3, [0.0] * 3], 2), AsymmetryResidue,
     "symmetrization residual 1.000e+00 exceeds tolerance"),
], ids=["diam-bounds", "eigen-block", "generators", "symmetrize-order", "symmetrize-residue"])
def test_validators_reject_their_invalid_inputs(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_split_preserves_eigenvalue_multiset():
    t = MetricTriple(2.7, 1.4, 0.6)
    for k in range(13):
        # the odd block of irrep 0 is empty
        values = [np.linalg.eigvalsh(to_dense(*b)) for b in _blocks(k, t) if b[0]]
        merged = np.sort(np.concatenate(values))
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
            eigs = np.concatenate([np.linalg.eigvalsh(to_dense(*b)) for b in _blocks(k, t)])
            assert np.all(eigs > -1e-9)
            g = gershgorin(k, t)
            for value in eigs:
                slack = 1e-9 * (1 + abs(value))
                assert any(lo - slack <= value <= hi + slack for lo, hi in zip(g.lower, g.upper))


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
    MetricTriple(1.0, 1.0 - 1e-9, 0.6),  # near-oblate: a ~ b, solved in the (c, a, b) frame
    MetricTriple(1.0, 1.0 - 1e-4, 0.3),
    MetricTriple(1.6, 1.5936, 0.9),
    MetricTriple(7.0, 5.0, 1.0),  # a^2 - b^2 = b^2 - c^2: the tie keeps the a frame
]


def _given_squares(a, b, c):
    """(a^2, b^2 + c^2, c^2 - b^2) of the triple as given, in the frame (a, b, c)."""
    return a * a, b * b + c * c, c * c - b * b


def _halves(k, t):
    """``_wang_halves`` for the squares of the triple as given."""
    return _wang_halves(k, *_given_squares(t.a, t.b, t.c))


def test_squares_of_generic_and_diagonal_triples():
    t = MetricTriple(2.9, 1.7, 0.8)
    assert _squares(t.a, t.b, t.c) == _given_squares(t.a, t.b, t.c)
    # two equal parameters: the squares of the diagonal form, (c, a, b) for a = b,
    # bitwise the a^2 + b^2 of the swap a <-> c
    assert _squares(2.5, 0.7, 0.7) == (2.5 * 2.5, 0.7 * 0.7 + 0.7 * 0.7, None)
    assert _squares(1.3, 1.3, 0.6) == (0.6 * 0.6, 1.3 * 1.3 + 1.3 * 1.3, None)
    # equality is read off the parameters, not off squares that underflow to 0
    assert _squares(1.0, 1e-170, 1e-171) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "triple, frame",
    [
        ((7.0, 5.0, 1.0), "a"),  # a^2 - b^2 = b^2 - c^2 = 24: the tie keeps the a frame
        ((1.6, 1.5936, 0.9), "c"),  # near-oblate: a^2 - b^2 = 0.02 < b^2 - c^2 = 1.73
        ((1.0, 1.0 - 1e-9, 0.6), "c"),
        ((2.0, 1.0, 1.0 - 1e-9), "a"),  # near-prolate
        ((1.2, 1.1, 0.2), "c"),
        ((1.2, 1.1, 1.0), "a"),
        ((1e200, 1.0, 0.5), "a"),  # a^2 = inf fails the comparison
        ((2e200, 1e200, 1.0), "a"),  # and so does the NaN of inf - inf
    ],
)
def test_squares_take_the_frame_with_the_smaller_coupling_to_gap_ratio(triple, frame):
    a, b, c = triple
    want = _given_squares(a, b, c) if frame == "a" else _given_squares(c, a, b)
    assert _squares(a, b, c) == want


def _halves_of_blocks(k, t):
    """The Wang halves cut from the full blocks of the dense oracle chain.

    In the order ``_wang_halves`` gives them, each as (half, e, root2): e
    is the coupling added to or taken from the half's last diagonal entry
    (None if that entry is not edited), and root2 says that the half's
    last coupling is the chain's times sqrt 2.
    """
    even, odd = _blocks(k, t)
    if k % 2:
        return [(even, None, False)]
    halves = []
    for d, e in (even, odd):
        n = len(d)
        m = n // 2
        if n % 2:
            if m:
                halves.append(((d[:m], e[: m - 1]), None, False))
            last = [e[m - 1] * math.sqrt(2.0)] if m else []
            halves.append(((d[: m + 1], e[: m - 1] + last), None, bool(m)))
        elif n:
            for edge in (d[m - 1] + e[m - 1], d[m - 1] - e[m - 1]):
                halves.append(((d[: m - 1] + [edge], e[: m - 1]), e[m - 1], False))
    return halves


def _bits(block):
    diag, offdiag = block
    return list(map(float.hex, diag)), list(map(float.hex, offdiag))


@pytest.mark.parametrize("t", WANG_TRIPLES + _assembly_triples(), ids=repr)
def test_wang_halves_are_edited_prefixes_of_the_blocks(t):
    # The diagonal entries are bitwise the chain's.  A coupling off sqrt(N)
    # takes two roundings, the chain's 0.5 (l(l-1) off f + (k-l+2)(k-l+1)
    # off / f) about eight, so they differ by at most 2 ulp here, and by 3
    # after the chain's sqrt 2 edit; the bounds leave one ulp to spare.  An
    # edited entry d +- e moves only with its e
    for k in (*range(41), 50, 128, 129, 199, _PLAN_K_MAX, _PLAN_K_MAX + 1, 400):
        got, want = _halves(k, t), _halves_of_blocks(k, t)
        assert [len(d) for d, _ in got] == [len(w[0]) for w, _, _ in want]
        for (diag, off), ((want_diag, want_off), e, root2) in zip(got, want):
            assert len(off) == len(want_off)
            if e is not None:
                x, y = diag[-1], want_diag[-1]
                assert abs(x - y) <= 3 * math.ulp(e) + math.ulp(y)
                diag, want_diag = diag[:-1], want_diag[:-1]
            assert list(map(float.hex, diag)) == list(map(float.hex, want_diag))
            for i, (x, y) in enumerate(zip(off, want_off)):
                ulps = 4 if root2 and i == len(want_off) - 1 else 3
                assert abs(x - y) <= ulps * math.ulp(y)


def _is_nearest_sqrt(r, n):
    """Whether the float r is the float nearest to sqrt(n), for an integer n."""
    below = (Fraction(math.nextafter(r, 0.0)) + Fraction(r)) / 2
    above = (Fraction(r) + Fraction(math.nextafter(r, math.inf))) / 2
    return below * below <= n <= above * above


@pytest.mark.parametrize("k", [*range(41), _PLAN_K_MAX + 1, 1001, K_CAP - 1, K_CAP])
def test_plan_roots_are_correctly_rounded(k):
    # The coupling of l-2 and l is off sqrt(N), with N = l(l-1)(k-l+2)(k-l+1)
    # the product of the two dense entries that couple them, and 2N for the
    # last coupling of a block of 2m+1 rows.  math.sqrt takes N as a float,
    # exact below 2^53, so its root is the correctly rounded one; 2N peaks
    # at 1.25e15 at K_CAP
    plan = casimir._plan(k) if k <= _PLAN_K_MAX else casimir._plan.__wrapped__(k)
    for p, (_, _, roots, edit) in enumerate(plan):
        for i, r in enumerate(roots):
            l = p + 2 + 2 * i
            n = l * (l - 1) * (k - l + 2) * (k - l + 1)
            if edit == casimir._ROOT2 and i == len(roots) - 1:
                n *= 2
            assert n < 2**53
            assert _is_nearest_sqrt(r, n), (k, l)


def test_the_plan_memo_keeps_no_block_past_its_bound():
    # K = 258 passes the bound, so blocks 257 and 258 are planned on each call
    t, lam = MetricTriple(1e4, 1.0, 0.5), 17200.0
    assert k_cutoff(lam, t, GroupKind.SU2) == _PLAN_K_MAX + 2
    warm_table = spectrum_up_to(lam, t, GroupKind.SU2)
    assert casimir._plan.cache_info().currsize <= _PLAN_K_MAX + 1
    ks = range(_PLAN_K_MAX + 3)
    warm = [[_bits(h) for h in _halves(k, t)] for k in ks]
    casimir._plan.cache_clear()
    cold = [[_bits(h) for h in _halves(k, t)] for k in ks]
    assert cold == warm
    assert casimir._plan.cache_info().currsize == _PLAN_K_MAX + 1
    casimir._plan.cache_clear()
    cold_table = spectrum_up_to(lam, t, GroupKind.SU2)
    assert spectrum_up_to(lam, t, GroupKind.SU2) == cold_table
    # each kept block k = 1.._PLAN_K_MAX is planned once over the two tables;
    # a table reads irrep 0 off and never plans it
    assert casimir._plan.cache_info().misses == _PLAN_K_MAX
    hexes = [[e.value.hex() for e in table.entries] for table in (cold_table, warm_table)]
    assert hexes[0] == hexes[1]
    assert cold_table == warm_table


def test_wang_half_sizes():
    t = WANG_TRIPLES[0]
    sizes = {k: sorted(len(d) for d, _ in _halves(k, t)) for k in range(8)}
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
        halves = [np.linalg.eigvalsh(to_dense(*h)) for h in _halves(k, t)]
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
