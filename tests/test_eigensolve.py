import math

import mpmath
import numpy as np
import pytest

from homsphere.casimir import _parity_entries, _squares, _wang_halves
from homsphere.core import MetricTriple
from homsphere.eigensolve import TOL, eigen_block, eigenvalues
from homsphere.oracle import (
    TridiagBlock,
    casimir_matrix,
    symmetrize,
    to_dense,
    tridiagonal_split,
)


def _block(diag, off):
    return TridiagBlock(diag=np.asarray(diag, float), offdiag=np.asarray(off, float))


def _random_blocks(rng, count, n, scale=5.0):
    diags = scale * rng.standard_normal((count, n))
    offs = scale * rng.standard_normal((count, max(n - 1, 0)))
    return diags, offs


def test_eigenvalues_diagonal_exact():
    got = eigenvalues([3.0, 3.0], [0.0])
    assert got == (3.0, 3.0)


def test_eigenvalues_match_dense_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 13):
        diags, offs = _random_blocks(rng, 3, n)
        for diag, off in zip(diags, offs):
            t = _block(diag, off)
            got = np.array(eigenvalues(t.diag, t.offdiag))
            want = np.linalg.eigvalsh(to_dense(t))
            assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_eigenvalue_sum_preserves_trace():
    rng = np.random.default_rng(13)
    diags, offs = _random_blocks(rng, 5, 9)
    for diag, off in zip(diags, offs):
        t = _block(diag, off)
        vals = eigenvalues(t.diag, t.offdiag)
        scale = max(1.0, np.abs(diag).sum())
        assert abs(sum(vals) - diag.sum()) <= 9 * 1e-12 * scale


def test_eigen_block_k0_and_k1():
    t = MetricTriple(3.1, 2.2, 1.3)
    sq = _squares(t.a, t.b, t.c)
    assert eigen_block(0, *sq) == (0.0,)
    s = t.a * t.a + (t.b * t.b + t.c * t.c)
    assert eigen_block(1, *sq) == (s,)  # the Wang mirror pair (s, s), given once


def test_eigen_block_generic_matches_dense_oracle():
    t = MetricTriple(2.9, 1.7, 0.8)
    sq = _squares(t.a, t.b, t.c)
    for k in range(11):
        got = np.repeat(eigen_block(k, *sq), 1 + k % 2)  # odd k: once per pair
        want = np.sort(np.linalg.eigvals(casimir_matrix(k, t)).real)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * max(1.0, want.max()))


def test_entries_beyond_float_range_raise_overflow():
    with pytest.raises(OverflowError):
        eigenvalues([1.0, float("inf")], [1.0])
    with pytest.raises(OverflowError):
        eigenvalues([1.0, 2.0], [1e160])  # its square overflows


def _mp_parity_eigenvalues(k, a2, bc2, off, p):
    """Eigenvalues of the parity-p block of irrep k, its diagonal formed in mpmath.

    The diagonal (k-2l)^2 a2 + ((2l+1)k - 2l^2) bc2 does not overflow
    there; the couplings are the float ones.
    """
    n = (k - p) // 2 + 1
    _, coupling = _parity_entries(k, a2, bc2, off, p, n, n - 1)
    block = mpmath.zeros(n)
    for i in range(n):
        l = p + 2 * i
        block[i, i] = ((k - 2 * l) ** 2 * mpmath.mpf(a2)
                       + ((2 * l + 1) * k - 2 * l * l) * mpmath.mpf(bc2))
    for i, e in enumerate(coupling):
        block[i, i + 1] = block[i + 1, i] = e
    return list(mpmath.eigsy(block, eigvals_only=True))


@pytest.mark.parametrize("k", [4, 16, 17])
def test_dropping_overflowing_rows_is_exact_in_double_precision(k):
    # a^2 = 1e306, b = 1, c = 0.5: the rows with |k - 2l| >= 14 are +inf in
    # floats, none for k = 4, a prefix of a half for k = 16 and both ends
    # of the one half for k = 17.  With every row exact, each eigenvalue
    # below the bound is within the certificate of eigen_block's, and an
    # even block's smallest rounds to its d = 0 entry 2p(p+1)(b^2 + c^2).
    # The bound keeps lo + hi of every bracket below the float range
    a2, bc2, off = _squares(1e153, 1.0, 0.5)
    upper = 1e307
    got = eigen_block(k, a2, bc2, off, upper)
    with mpmath.workdps(350):  # 40 digits below a norm of about 1e308
        exact = sorted(v for p in ((0,) if k % 2 else (0, 1))
                       for v in _mp_parity_eigenvalues(k, a2, bc2, off, p) if v <= upper)
        assert len(got) == len(exact)
        for value, want in zip(got, exact):
            assert abs(value - want) <= 0.5 * TOL * want
    if not k % 2:
        p = k // 2
        assert got[0] == float(exact[0]) == 2 * p * (p + 1) * bc2  # 15.0 for k = 4


# ---- the kernel contract: certified, accurate, independent of the bound ----


def _reference_eigenvalues(t):
    """Per-index bisection from the Gershgorin hull to the width test.

    Each index is bisected alone, with the kernel's width test and
    zero-pivot rule, so every value is within TOL/2 * max(1, |value|) of
    its eigenvalue.
    """
    n = t.n
    if n == 0:
        return ()
    diag, off = t.diag, t.offdiag
    off2 = [v * v for v in off]
    lo0 = hi0 = diag[0]
    norm = 0.0
    for i in range(n):
        left = abs(off[i - 1]) if i else 0.0
        right = abs(off[i]) if i < n - 1 else 0.0
        lo0 = min(lo0, diag[i] - (left + right))
        hi0 = max(hi0, diag[i] + (left + right))
        norm = max(norm, abs(diag[i]) + left + right)
    pert = 2.0**-52 * (norm or 1.0)
    out = []
    for m in range(n):
        lo, hi = lo0, hi0
        while True:
            mid = 0.5 * (lo + hi)
            if hi - lo <= TOL * max(1.0, abs(mid)):
                out.append(mid)
                break
            assert lo < mid < hi
            count = 0
            d = 1.0
            for i in range(n):
                d = (diag[i] - mid) - (off2[i - 1] / d if i else 0.0)
                if d == 0.0:
                    d = pert
                if d < 0.0:
                    count += 1
            if count >= m + 1:
                hi = mid
            else:
                lo = mid
    out.sort()
    return tuple(out)


def _sturm_count(t, x):
    """Eigenvalues of ``t`` below ``x``, counted as the kernel counts them."""
    diag, off = t.diag, t.offdiag
    norm = max(
        abs(diag[i]) + (abs(off[i - 1]) if i else 0.0) + (abs(off[i]) if i < t.n - 1 else 0.0)
        for i in range(t.n)
    )
    count = 0
    d = 1.0
    for i in range(t.n):
        d = (diag[i] - x) - (off[i - 1] ** 2 / d if i else 0.0)
        if d == 0.0:
            d = 2.0**-52 * (norm or 1.0)
        if d < 0.0:
            count += 1
    return count


def _mp_eigenvalues(t):
    """The eigenvalues of ``t`` from a 40-digit mpmath solve."""
    with mpmath.workdps(40):
        dense = mpmath.matrix(t.n)
        for i, v in enumerate(t.diag):
            dense[i, i] = v
        for i, v in enumerate(t.offdiag):
            dense[i, i + 1] = dense[i + 1, i] = v
        return sorted(mpmath.eigsy(dense, eigvals_only=True))


def _assert_contract(t, mp=True):
    """Counts certify every value, which is within TOL/2 of per-index
    bisection and, with ``mp``, within 1e-14 * max(1, |value|) of mpmath."""
    got = eigenvalues(t.diag, t.offdiag)
    assert len(got) == t.n and list(got) == sorted(got)
    for m, (value, ref) in enumerate(zip(got, _reference_eigenvalues(t))):
        h = 0.5 * TOL * max(1.0, abs(value))
        assert _sturm_count(t, value - h) <= m < _sturm_count(t, value + h)
        assert abs(value - ref) <= 0.5 * TOL * max(1.0, abs(ref))
    if mp:
        for value, exact in zip(got, _mp_eigenvalues(t)):
            assert abs(value - exact) <= 1e-14 * max(1.0, abs(exact))


def _bits(values):
    return [float.hex(float(v)) for v in values]


def _assert_bounded_equals_unbounded(t, upper):
    full = eigenvalues(t.diag, t.offdiag)
    assert _bits(eigenvalues(t.diag, t.offdiag, upper)) == _bits(v for v in full if v <= upper)


def _random_block(rng, n):
    diags, offs = _random_blocks(rng, 1, n)
    return _block(diags[0], offs[0])


def test_unbounded_values_are_certified_and_accurate():
    rng = np.random.default_rng(2026)
    for n in (1, 2, 3, 5, 8, 13, 21, 34):
        for _ in range(4):
            t = _random_block(rng, n)
            _assert_contract(t, mp=n <= 21)
            full = eigenvalues(t.diag, t.offdiag)
            assert _bits(eigenvalues(t.diag, t.offdiag, math.inf)) == _bits(full)


def test_bounded_equals_unbounded_on_random_blocks():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4, 7, 12, 20):
        for _ in range(4):
            t = _random_block(rng, n)
            full = eigenvalues(t.diag, t.offdiag)
            for upper in (*rng.uniform(full[0] - 1.0, full[-1] + 1.0, 5), full[n // 2]):
                _assert_bounded_equals_unbounded(t, float(upper))


def test_bounded_with_repeated_eigenvalues():
    # zero couplings split the block into pieces with equal spectra
    blocks = [
        _block([1.0, 1.0, 2.0, 2.0, 2.0, 3.0], [0.0] * 5),
        _block([2.0, 1.0, 0.0, 2.0, 1.0], [0.5, 0.0, 0.0, 0.5]),
        _block([4.0, 1.0, 4.0, 1.0, 4.0, 1.0], [1.0, 0.0, 1.0, 0.0, 1.0]),
    ]
    for t in blocks:
        # a repeated eigenvalue is never isolated, so it gets the midpoint
        # of its bracket, within TOL/2 but not within 1e-14
        _assert_contract(t, mp=False)
        for upper in (*eigenvalues(t.diag, t.offdiag), 0.5, 1.5, 2.5, 10.0):
            _assert_bounded_equals_unbounded(t, upper)
    # the simple eigenvalue 3 sits on the Gershgorin end; Newton still finds it
    assert abs(eigenvalues(blocks[0].diag, blocks[0].offdiag)[-1] - 3.0) <= 1e-15


@pytest.mark.parametrize(
    "triple",
    [
        (2.0, 1.0, 1.0 - 1e-9),  # near-prolate: b ~ c < a
        (1.7, 1.0, 1.0 - 1e-4),
        (1.0, 1.0 - 1e-9, 0.6),  # near-oblate: a ~ b > c
        (1.0, 1.0 - 1e-4, 0.3),
        (1.7, 1.2, 0.8),
    ],
)
def test_bounded_on_near_degenerate_casimir_blocks(triple):
    t = MetricTriple(*triple)
    for k in (2, 5, 9, 16, 25):
        # Near b = c the even and odd blocks hold the Wang pairs, whose
        # splitting can be below TOL: those values have the certificate
        # only.  The halves the solver sees separate each pair.
        split = tridiagonal_split(symmetrize(casimir_matrix(k, t), k), k)
        blocks = [(b, False) for b in split]
        halves = _wang_halves(k, *_squares(t.a, t.b, t.c))
        for block, mp in blocks + [(TridiagBlock(*h), True) for h in halves]:
            _assert_contract(block, mp)
            full = eigenvalues(block.diag, block.offdiag)
            for value in (full[0], full[len(full) // 2], full[-1]):
                for upper in (
                    value,
                    math.nextafter(value, -math.inf),
                    math.nextafter(value, math.inf),
                ):
                    _assert_bounded_equals_unbounded(block, upper)


def test_newton_never_settles_on_a_neighbour_outside_its_bracket():
    # The bracket [2, 3] holds only 2.11725.  Its first Newton step, from
    # near a critical point, is clipped to lo = 2, where the next step
    # heads for the eigenvalue 2 - 1e-13 just outside; the counts reject it.
    t = _block([0.0, 2.0 - 1e-13, 2.11725, 3.1, 3.2, 3.3, 4.0], [0.0] * 6)
    _assert_contract(t)
    assert abs(eigenvalues(t.diag, t.offdiag)[2] - 2.11725) <= 1e-15


def test_bound_below_the_hull_returns_nothing():
    t = _block([3.0, 5.0, 4.0], [1.0, 1.0])  # Gershgorin hull [2, 6]
    assert eigenvalues(t.diag, t.offdiag, 1.999) == ()
    assert eigenvalues(t.diag, t.offdiag, -math.inf) == ()
    assert eigenvalues([1.0], [], math.nextafter(1.0, 0.0)) == ()
    assert eigenvalues([1.0], [], 1.0) == (1.0,)


def test_bound_drops_brackets_above_it():
    t = _block([0.0, 10.0, 20.0, 30.0], [0.1, 0.1, 0.1])
    got = eigenvalues(t.diag, t.offdiag, 5.0)
    assert len(got) == 1
    assert _bits(got) == _bits(eigenvalues(t.diag, t.offdiag)[:1])
    _assert_contract(t)


def test_offdiag_must_be_one_shorter_than_diag():
    for diag, off in (([1.0, 2.0], []), ([1.0, 2.0], [0.5, 0.5]), ([], [1.0]), ([1.0], [0.5])):
        with pytest.raises(ValueError, match="offdiag must have length"):
            eigenvalues(diag, off)


def test_one_by_one_block_is_its_entry():
    assert eigenvalues([-2.5], []) == (-2.5,)
    assert eigenvalues([7.0], [], 7.0) == (7.0,)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(OverflowError):
            eigenvalues([bad], [])


def test_eigen_block_bound_keeps_every_value_below_it():
    # two equal parameters never reach eigen_block: their bound is checked
    # on spectrum._diagonal_runs
    for triple in ((1.7, 1.2, 0.8), (2.9, 1.7, 0.8)):
        sq = _squares(*triple)
        for k in (3, 8, 14):
            full = eigen_block(k, *sq)
            for upper in (full[0], full[len(full) // 2], 0.5 * (full[0] + full[-1])):
                assert eigen_block(k, *sq, upper) == tuple(v for v in full if v <= upper)
