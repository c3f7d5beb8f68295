"""Casimir blocks of the irreducible SU(2) representations.

For the (k+1)-dimensional irrep acting on degree-k homogeneous polynomials
in two variables (monomial basis P_0..P_k), the negative Casimir operator
of a metric triple couples only basis indices at distance two.  A
similarity by a diagonal of binomial square roots makes it symmetric, and
reordering the basis into even and odd indices splits it into two
symmetric tridiagonal blocks.  ``build_irrep_block`` writes those two
blocks directly from the closed entries in O(k); the dense matrix, its
generator construction and the symmetrize/split checks live in
``homsphere.oracle`` as independent references.  Entries are plain
Python floats, so nothing here needs numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import MetricTriple


@dataclass(frozen=True, eq=False, slots=True)
class TridiagBlock:
    """A real symmetric tridiagonal matrix stored as diagonal/off-diagonal."""

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError("offdiag must have length len(diag) - 1")

    @property
    def n(self) -> int:
        return len(self.diag)


def _diagonal(k: int, a2: float, bc2: float) -> list[float]:
    """Diagonal (k-2l)^2 a2 + ((2l+1)k - 2l^2) bc2, l = 0..k, of the irrep-k matrix.

    ``a2`` is a^2 and ``bc2`` is b^2 + c^2.  With b = c the matrix is this
    diagonal alone, and 2 b^2 = b^2 + b^2 exactly, so the entries are
    bitwise the closed Berger eigenvalues.
    """
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    return [(k - 2 * l) ** 2 * a2 + ((2 * l + 1) * k - 2 * l * l) * bc2 for l in range(k + 1)]


def build_irrep_block(k: int, t: MetricTriple) -> tuple[TridiagBlock, TridiagBlock]:
    """The (even, odd) symmetric tridiagonal blocks of the irrep-k Casimir matrix.

    Column l of the matrix holds the diagonal entry, l(l-1)(c^2-b^2) at
    row l-2 and (k-l)(k-l-1)(c^2-b^2) at row l+2.  Conjugating by
    d_l = sqrt(binom(k, l)) scales the coupling of l-2 and l by
    f = d_l / d_{l-2} above the diagonal and by 1/f below it; the block
    entry is the mean of the two.  Only square roots of the adjacent ratios
    (k-l+1)/l are formed, so nothing overflows for large k.  Even indices
    {0,2,...} give a block of size floor((k+2)/2), odd indices {1,3,...}
    one of size floor((k+1)/2).  Every entry is bitwise the one that
    ``oracle.tridiagonal_split(oracle.symmetrize(oracle.casimir_matrix(k, t), k), k)``
    produces.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    diag = _diagonal(k, a2, b2 + c2)
    off = c2 - b2
    ratio = [math.sqrt((k - l + 1) / l) for l in range(1, k + 1)]  # d_l / d_{l-1}
    coupling = []
    for l in range(2, k + 1):
        f = ratio[l - 1] * ratio[l - 2]  # d_l / d_{l-2}
        coupling.append(0.5 * (l * (l - 1) * off * f + (k - l + 2) * (k - l + 1) * off / f))
    even = TridiagBlock(diag=tuple(diag[0::2]), offdiag=tuple(coupling[0::2]))
    odd = TridiagBlock(diag=tuple(diag[1::2]), offdiag=tuple(coupling[1::2]))
    return even, odd
