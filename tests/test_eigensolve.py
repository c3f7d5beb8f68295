import collections
import math

import numpy as np
import pytest

from homsphere.casimir import TridiagBlock, build_irrep_block
from homsphere.core import MetricTriple
from homsphere.eigensolve import TOL, eigen_block, eigenvalues
from homsphere.oracle import casimir_matrix, to_dense


def _block(diag, off):
    return TridiagBlock(diag=np.asarray(diag, float), offdiag=np.asarray(off, float))


def _random_blocks(rng, count, n, scale=5.0):
    diags = scale * rng.standard_normal((count, n))
    offs = scale * rng.standard_normal((count, max(n - 1, 0)))
    return diags, offs


def test_eigenvalues_diagonal_exact():
    got = eigenvalues(_block([3.0, 3.0], [0.0]))
    assert got == (3.0, 3.0)


def test_eigenvalues_match_dense_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 13):
        diags, offs = _random_blocks(rng, 3, n)
        for diag, off in zip(diags, offs):
            t = _block(diag, off)
            got = np.array(eigenvalues(t))
            want = np.linalg.eigvalsh(to_dense(t))
            assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_eigenvalue_sum_preserves_trace():
    rng = np.random.default_rng(13)
    diags, offs = _random_blocks(rng, 5, 9)
    for diag, off in zip(diags, offs):
        t = _block(diag, off)
        vals = eigenvalues(t)
        scale = max(1.0, np.abs(diag).sum())
        assert abs(sum(vals) - diag.sum()) <= 9 * 1e-12 * scale


def test_eigen_block_k0_and_k1():
    t = MetricTriple(3.1, 2.2, 1.3)
    assert eigen_block(0, t) == (0.0,)
    s = t.a * t.a + (t.b * t.b + t.c * t.c)
    assert eigen_block(1, t) == (s, s)


def test_eigen_block_berger_bypass_values():
    got = eigen_block(2, MetricTriple(3, 1, 1))
    assert got == (8.0, 40.0, 40.0)


def test_eigen_block_berger_bypass_equals_matrix_diagonal():
    t = MetricTriple(2.5, 0.7, 0.7)
    for k in range(9):
        got = eigen_block(k, t)
        assert got == tuple(sorted(np.diagonal(casimir_matrix(k, t))))


def test_eigen_block_generic_matches_dense_oracle():
    t = MetricTriple(2.9, 1.7, 0.8)
    for k in range(11):
        got = np.array(eigen_block(k, t))
        want = np.sort(np.linalg.eigvals(casimir_matrix(k, t)).real)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * max(1.0, want.max()))


def test_entries_beyond_float_range_raise_overflow():
    with pytest.raises(OverflowError):
        eigenvalues(TridiagBlock(diag=(1.0, float("inf")), offdiag=(1.0,)))
    with pytest.raises(OverflowError):
        eigenvalues(TridiagBlock(diag=(1.0, 2.0), offdiag=(1e160,)))  # its square overflows


# ---- bounded bisection against the per-index reference ----


def _reference_eigenvalues(t):
    """The unbounded per-index bisection that ``eigenvalues`` replaced.

    Each index is bisected alone from the Gershgorin hull, with the same
    width test, zero-pivot rule and float arithmetic, so the interval-
    splitting kernel must reproduce its values bit for bit.
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


def _bits(values):
    return [float.hex(float(v)) for v in values]


def _assert_bounded_matches_reference(t, upper):
    ref = _reference_eigenvalues(t)
    got = eigenvalues(t, upper)
    assert list(got) == sorted(got)
    # every value <= upper, bitwise; anything above it is a reference value
    assert _bits(v for v in got if v <= upper) == _bits(v for v in ref if v <= upper)
    assert not collections.Counter(_bits(got)) - collections.Counter(_bits(ref))


def _random_block(rng, n):
    diags, offs = _random_blocks(rng, 1, n)
    return _block(diags[0], offs[0])


def test_unbounded_equals_reference_bitwise():
    rng = np.random.default_rng(2026)
    for n in (1, 2, 3, 5, 8, 13, 21, 34):
        for _ in range(4):
            t = _random_block(rng, n)
            assert _bits(eigenvalues(t)) == _bits(_reference_eigenvalues(t))
            assert _bits(eigenvalues(t, math.inf)) == _bits(_reference_eigenvalues(t))


def test_bounded_equals_reference_on_random_blocks():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4, 7, 12, 20):
        for _ in range(4):
            t = _random_block(rng, n)
            ref = _reference_eigenvalues(t)
            for upper in (*rng.uniform(ref[0] - 1.0, ref[-1] + 1.0, 5), ref[n // 2]):
                _assert_bounded_matches_reference(t, float(upper))


def test_bounded_with_repeated_eigenvalues():
    # zero couplings split the block into pieces with equal spectra
    blocks = [
        _block([1.0, 1.0, 2.0, 2.0, 2.0, 3.0], [0.0] * 5),
        _block([2.0, 1.0, 0.0, 2.0, 1.0], [0.5, 0.0, 0.0, 0.5]),
        _block([4.0, 1.0, 4.0, 1.0, 4.0, 1.0], [1.0, 0.0, 1.0, 0.0, 1.0]),
    ]
    for t in blocks:
        ref = _reference_eigenvalues(t)
        assert _bits(eigenvalues(t)) == _bits(ref)
        for upper in (*ref, 0.5, 1.5, 2.5, 10.0):
            _assert_bounded_matches_reference(t, upper)


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
        for block in build_irrep_block(k, t):
            ref = _reference_eigenvalues(block)
            assert _bits(eigenvalues(block)) == _bits(ref)
            for value in (ref[0], ref[len(ref) // 2], ref[-1]):
                for upper in (
                    value,
                    math.nextafter(value, -math.inf),
                    math.nextafter(value, math.inf),
                ):
                    _assert_bounded_matches_reference(block, upper)


def test_bound_below_the_hull_returns_nothing():
    t = _block([3.0, 5.0, 4.0], [1.0, 1.0])  # Gershgorin hull [2, 6]
    assert eigenvalues(t, 1.999) == ()
    assert eigenvalues(t, -math.inf) == ()
    assert eigenvalues(_block([1.0], []), math.nextafter(1.0, 0.0)) == ()
    assert eigenvalues(_block([1.0], []), 1.0) == (1.0,)


def test_bound_drops_brackets_above_it():
    t = _block([0.0, 10.0, 20.0, 30.0], [0.1, 0.1, 0.1])
    got = eigenvalues(t, 5.0)
    assert len(got) == 1
    assert _bits(got) == _bits(_reference_eigenvalues(t)[:1])


def test_eigen_block_bound_keeps_every_value_below_it():
    t = MetricTriple(1.7, 1.2, 0.8)
    for k in (3, 8, 14):
        full = eigen_block(k, t)
        for upper in (full[0], full[len(full) // 2], 0.5 * (full[0] + full[-1])):
            got = eigen_block(k, t, upper)
            assert [v for v in got if v <= upper] == [v for v in full if v <= upper]
            assert set(got) <= set(full)
