import numpy as np
import pytest

from homsphere.casimir import TridiagBlock
from homsphere.core import MetricTriple
from homsphere.eigensolve import eigen_block, eigenvalues
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
