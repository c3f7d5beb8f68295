"""Casimir blocks of the irreducible SU(2) representations.

For the (k+1)-dimensional irrep acting on degree-k homogeneous polynomials
in two variables (monomial basis P_0..P_k), the negative Casimir operator
of a metric triple couples only basis indices at distance two.  A
similarity by a diagonal of binomial square roots makes it symmetric, and
reordering the basis into even and odd indices splits it into two
symmetric tridiagonal blocks.  ``build_irrep_block`` writes those two
blocks directly from the closed entries in O(k); the dense matrix, its
generator construction and the symmetrize/split checks live in
``homsphere.oracle`` as independent references.  Gershgorin column
intervals give certified eigenvalue bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MetricTriple


@dataclass(frozen=True, eq=False)
class TridiagBlock:
    """A real symmetric tridiagonal matrix stored as diagonal/off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        if self.offdiag.shape[0] != max(self.diag.shape[0] - 1, 0):
            raise ValueError("offdiag must have length len(diag) - 1")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        for i, e in enumerate(self.offdiag):
            m[i, i + 1] = e
            m[i + 1, i] = e
        return m


@dataclass(frozen=True, eq=False)
class GershgorinIntervals:
    """Per-column eigenvalue intervals [lower_j, upper_j] plus closed floors.

    ``floor`` is the global lower envelope 2k*b^2 + k^2*c^2; for odd k,
    ``odd_floor`` is the sharper a^2 + (2k-1)*b^2 + k^2*c^2.
    """

    lower: np.ndarray
    upper: np.ndarray
    floor: float
    odd_floor: float | None

    def hull(self) -> tuple[float, float]:
        return float(self.lower.min()), float(self.upper.max())

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return bool(np.any((self.lower - slack <= x) & (x <= self.upper + slack)))


def _diagonal(k: int, a2: float, bc2: float) -> list[float]:
    """Diagonal (k-2l)^2 a2 + ((2l+1)k - 2l^2) bc2, l = 0..k, of the irrep-k matrix.

    ``a2`` is a^2 and ``bc2`` is b^2 + c^2.  With b = c the matrix is this
    diagonal alone, and 2 b^2 = b^2 + b^2 exactly, so the entries are
    bitwise the closed Berger eigenvalues.
    """
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    return [(k - 2 * l) ** 2 * a2 + ((2 * l + 1) * k - 2 * l * l) * bc2 for l in range(k + 1)]


def gershgorin(k: int, t: MetricTriple) -> GershgorinIntervals:
    """Per-column Gershgorin intervals of the irrep-k Casimir matrix.

    For canonical triples (b >= c) the column radius is
    ((l-1)l + (k-l-1)(k-l)) * (b^2 - c^2) with zero-based l, which is
    nonnegative and self-vanishing when an index falls outside the matrix.
    Every eigenvalue lies in the union of [lower_l, upper_l], is at least
    ``floor`` = 2k b^2 + k^2 c^2, and for odd k at least ``odd_floor``.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    diag = np.array(_diagonal(k, a2, b2 + c2))
    l = np.arange(k + 1)
    radius = ((l - 1) * l + (k - l - 1) * (k - l)) * (b2 - c2)
    floor = 2 * k * b2 + k * k * c2
    odd_floor = a2 + (2 * k - 1) * b2 + k * k * c2 if k % 2 == 1 else None
    return GershgorinIntervals(
        lower=diag - radius, upper=diag + radius, floor=floor, odd_floor=odd_floor
    )


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
    even = TridiagBlock(diag=np.array(diag[0::2]), offdiag=np.array(coupling[0::2]))
    odd = TridiagBlock(diag=np.array(diag[1::2]), offdiag=np.array(coupling[1::2]))
    return even, odd
