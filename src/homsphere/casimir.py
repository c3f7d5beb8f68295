"""Casimir blocks of the irreducible SU(2) representations.

For the (k+1)-dimensional irrep acting on degree-k homogeneous polynomials
in two variables (monomial basis P_0..P_k), the negative Casimir operator
of a metric triple couples only basis indices at distance two.  A
similarity by a diagonal of binomial square roots makes it symmetric, and
reordering the basis into even and odd indices splits it into two
symmetric tridiagonal blocks.  The symmetry l <-> k-l splits those
blocks again, into halves of about k/4 rows, and ``_wang_halves``, the
only assembly, writes the halves directly from the closed entries in
O(k), as (diagonal, off-diagonal) pairs of plain lists.  Every entry
depends on the triple only through the three squares of ``_squares``,
which a caller forms once for all its blocks.  The dense matrix, its
generator construction, the symmetrize/split steps and the
``TridiagBlock`` that holds a full block live in ``homsphere.oracle`` as
independent references: the full blocks come only from that chain.
Entries are plain Python floats, so nothing here needs numpy.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)


def _squares(a: float, b: float, c: float) -> tuple[float, float, float | None]:
    """(a^2, b^2 + c^2, c^2 - b^2) of a descending triple: all the entries need.

    The last is None when two parameters are equal: with b = c the
    matrices are diagonal, and with a = b > c the metric is isometric to
    (c, a, b), whose matrices are diagonal in the same way, so its first
    two squares are returned.  Equality is tested on the parameters, not
    on squares that may underflow.
    """
    if a == b:
        a, c = c, a
    b2, c2 = b * b, c * c
    return a * a, b2 + c2, None if b == c else c2 - b2


def _diagonal(k: int, a2: float, bc2: float, ls: range) -> list[float]:
    """Diagonal (k-2l)^2 a2 + ((2l+1)k - 2l^2) bc2 of the irrep-k matrix, l in ``ls``.

    ``a2`` is a^2 and ``bc2`` is b^2 + c^2.  With b = c the matrix is
    this diagonal alone, and 2 b^2 = b^2 + b^2 exactly, so the entries are
    bitwise the closed Berger eigenvalues.
    """
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    return [(k - 2 * l) ** 2 * a2 + ((2 * l + 1) * k - 2 * l * l) * bc2 for l in ls]


def _parity_entries(
    k: int, a2: float, bc2: float, off: float, p: int, rows: int, couplings: int
) -> tuple[list[float], list[float]]:
    """The first ``rows`` diagonal entries and ``couplings`` couplings of one block.

    The block holds the basis indices l = p, p+2, ...; ``off`` is
    c^2 - b^2.  Column l of the matrix holds l(l-1) off at row l-2 and
    (k-l)(k-l-1) off at row l+2.  Conjugating by d_l = sqrt(binom(k, l))
    scales the coupling of l-2 and l by f = d_l / d_{l-2} above the
    diagonal and by 1/f below it; the block entry is the mean of the two.
    f is a product of the square roots of two adjacent ratios
    (k-l+1)/l, so nothing overflows for large k.
    """
    diag = _diagonal(k, a2, bc2, range(p, p + 2 * rows, 2))
    coupling = []
    for l in range(p + 2, p + 2 + 2 * couplings, 2):
        f = math.sqrt((k - l + 1) / l) * math.sqrt((k - l + 2) / (l - 1))
        coupling.append(0.5 * (l * (l - 1) * off * f + (k - l + 2) * (k - l + 1) * off / f))
    return diag, coupling


def _wang_halves(
    k: int, a2: float, bc2: float, off: float
) -> list[tuple[list[float], list[float]]]:
    """(diag, offdiag) lists whose eigenvalues, the odd-k ones twice, are those of irrep k.

    ``a2``, ``bc2`` and ``off`` are the squares of ``_squares``.  The
    matrix is persymmetric under l <-> k-l (Wang 1929).  For odd k that
    map swaps even and odd indices, so the odd block is the even block
    reversed: only the even block is returned.  For even k it reverses
    each block, and a block of size n splits into a symmetric and an
    antisymmetric half:

    * n = 2m+1: d[:m+1] with its last coupling times sqrt 2, and d[:m];
    * n = 2m: d[:m] with its last diagonal entry d_{m-1} + e_{m-1}, and
      the same with d_{m-1} - e_{m-1}.

    Only the first half of each block is assembled, and its entries are
    bitwise those of the block that
    ``oracle.tridiagonal_split(oracle.symmetrize(oracle.casimir_matrix(k, t), k), k)``
    produces.  The couplings of a block are persymmetric only to an ulp,
    so its second half is never read.  The two halves of a block of even
    size share one off-diagonal list.
    """
    if k % 2:
        n = (k + 1) // 2
        return [_parity_entries(k, a2, bc2, off, 0, n, n - 1)]
    halves = []
    for p in (0, 1) if k else (0,):
        m, odd = divmod((k - p) // 2 + 1, 2)
        diag, coupling = _parity_entries(k, a2, bc2, off, p, m + odd, m)
        if odd:
            if m:
                halves.append((diag[:m], coupling[:-1]))
                coupling[-1] *= _SQRT2
            halves.append((diag, coupling))
        else:
            d, e = diag.pop(), coupling.pop()
            halves.append((diag + [d + e], coupling))
            halves.append((diag + [d - e], coupling))
    return halves
