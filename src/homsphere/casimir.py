"""Casimir blocks of the irreducible SU(2) representations.

For the (k+1)-dimensional irrep acting on degree-k homogeneous polynomials
in two variables (monomial basis P_0..P_k), the negative Casimir operator
of a metric triple couples only basis indices at distance two.  A
similarity by a diagonal of binomial square roots makes it symmetric,
with the geometric mean of the two entries that couple l-2 and l as
their coupling, and reordering the basis into even and odd indices
splits it into two symmetric tridiagonal blocks.  The symmetry
l <-> k-l splits those blocks again, into halves of about k/4 rows, and
``_wang_halves``, the only assembly, writes the halves directly from
the closed entries, as (diagonal, off-diagonal) pairs of plain lists.
Every entry depends on the triple only through the three squares of
``_squares``, in the frame it picks, which a caller forms once for all
its blocks, and on k only through the integer coefficients and the
coupling roots of ``_plan(k)``, which is built once per process for
each k up to ``_PLAN_K_MAX``: a call evaluates the entries from the plan
in O(k) float operations.  Nothing here builds a full block: the dense
matrix, its generator construction, the symmetrize/split steps, which
give the full blocks as the same (diagonal, off-diagonal) list pairs,
and the full diagonal ``_diagonal`` live in ``homsphere.oracle`` as
independent references, the only source of full blocks and full
diagonals.  Entries are plain Python floats.
"""

from __future__ import annotations

import functools
import math


def _squares(a: float, b: float, c: float) -> tuple[float, float, float | None]:
    """(a^2, b^2 + c^2, c^2 - b^2) of a descending triple or of its frame (c, a, b).

    Every permutation of a triple gives an isometric metric, so the
    blocks may be written in any frame; the squares of (c, a, b) are
    returned when a^2 - b^2 < b^2 - c^2, those of (a, b, c) otherwise.
    In a parity block the diagonal entries of rows l and l+2 differ by
    4(k-2l-2)(b^2 + c^2 - 2a^2) and the coupling is (c^2 - b^2) sqrt(N),
    so the ratio of coupling to gap scales as (b^2 - c^2)/(2a^2 - b^2 - c^2)
    in the a frame and (a^2 - b^2)/(a^2 + b^2 - 2c^2) in the c frame: the
    second is smaller exactly when a^2 - b^2 < b^2 - c^2.  The b frame
    never wins, its ratio being at least 1.  A block whose couplings are
    small against its gaps is nearly diagonal, and ``eigensolve``'s
    Newton starts from its perturbed diagonal.  The last square is None
    when the blocks are diagonal: b = c in the a frame, and a = b > c,
    always solved in the c frame.  Equality is tested on the parameters,
    not on squares that may underflow.  An a^2 of inf, or the NaN of
    inf - inf, fails the comparison and keeps the a frame.
    """
    if a == b or a * a - b * b < b * b - c * c:
        a, b, c = c, a, b
    b2, c2 = b * b, c * c
    return a * a, b2 + c2, None if b == c else c2 - b2


# The cache of ``_plan`` keeps the plan of every k <= _PLAN_K_MAX a
# process has solved.  A plan holds about k/2 diagonal and k/2 coupling
# coefficients of each kind, so the plans of all k <= K take memory
# quadratic in K: 0.07 MiB for K = 56, 0.44 MiB for K = 128, 1.1 MiB for
# K = 200, 1.8 MiB for K = 256, 7.1 MiB for K = 512 and 107 MiB for
# K = 1996 (tracemalloc, CPython 3.11).  256 keeps every block of a
# repeated K = 200 table.  An unbounded cache would keep gigabytes after
# a table near spectrum.K_CAP: the K = 1996 table of (1e15, 1, 0.5) at
# lam_max = 1e6 peaks at 16 MiB RSS with this bound and at 130 MiB
# without it.  A plan past the bound is built again on each call, at
# about the cost of the assembly it replaces, and is not kept.
_PLAN_K_MAX = 256
_WHOLE, _ROOT2, _PLUS_MINUS = range(3)


@functools.cache
def _plan(k: int) -> tuple:
    """The part of the Wang halves of irrep k that does not depend on the triple.

    One record per block whose halves ``_wang_halves`` returns, for the
    first rows of the block, which hold the basis indices l = p, p+2, ...:
    (a_coefs, bc_coefs, roots, edit).

    * ``a_coefs`` and ``bc_coefs``: the integers (k-2l)^2 and
      (2l+1)k - 2l^2 that multiply a^2 and b^2 + c^2 on the diagonal;
    * ``roots``: sqrt(N) for the coupling of l-2 and l, with
      N = l(l-1)(k-l+2)(k-l+1).  The matrix couples l-2 and l by
      l(l-1) (c^2-b^2) in one direction and (k-l+2)(k-l+1) (c^2-b^2) in
      the other, and the symmetric block entry is their geometric mean
      (c^2-b^2) sqrt(N).  N, and 2N, are exact integers below 2^53 for
      every k <= spectrum.K_CAP, so each root is the correctly rounded one.
      For a ``_ROOT2`` block the last root is sqrt(2N), which folds in
      the sqrt 2 of its symmetric half;
    * ``edit``: ``_WHOLE`` for the block of odd k, ``_ROOT2`` for a block
      of 2m+1 rows (its last coupling times sqrt 2) and ``_PLUS_MINUS``
      for a block of 2m rows (its last diagonal entry plus and minus its
      last coupling).

    The coefficients are held column by column, which keeps a plan to a
    few tuples per block: the first use of a large table then allocates
    few objects.  ``_wang_halves`` keeps the plans of k <= ``_PLAN_K_MAX``
    in the cache for the life of the process.

    Raises:
        ValueError: if k is negative.
    """
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    if k % 2:
        n = (k + 1) // 2
        return (_block_plan(k, 0, n, n - 1, _WHOLE),)
    blocks = []
    for p in (0, 1) if k else (0,):
        m, odd = divmod((k - p) // 2 + 1, 2)
        blocks.append(_block_plan(k, p, m + odd, m, _ROOT2 if odd else _PLUS_MINUS))
    return tuple(blocks)


def _block_plan(k: int, p: int, rows: int, couplings: int, edit: int) -> tuple:
    """The ``_plan`` record of the first ``rows`` rows of the parity-p block of irrep k."""
    ls = range(p, p + 2 * rows, 2)
    ns = [l * (l - 1) * (k - l + 2) * (k - l + 1) for l in range(p + 2, p + 2 + 2 * couplings, 2)]
    if ns and edit == _ROOT2:
        ns[-1] *= 2
    return (
        tuple([(k - 2 * l) ** 2 for l in ls]),
        tuple([(2 * l + 1) * k - 2 * l * l for l in ls]),
        tuple(map(math.sqrt, ns)),
        edit,
    )


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

    * n = 2m+1: d[:m] and d[:m+1], the latter with its last coupling
      times sqrt 2;
    * n = 2m: d[:m] with its last diagonal entry d_{m-1} + e_{m-1}, and
      the same with d_{m-1} - e_{m-1}.

    Only the first half of each block is evaluated, from ``_plan(k)``:
    a diagonal entry is (k-2l)^2 a2 + ((2l+1)k - 2l^2) bc2, bitwise the
    one the dense oracle chain ``oracle.tridiagonal_split(
    oracle.symmetrize(oracle.casimir_matrix(k, t), k), k)`` gives, and a
    coupling is off times its plan root, sqrt 2 included, within a few
    ulp of the chain's, which derives it by the binomial conjugation.
    The edits d +- e act on the evaluated entries.  The two halves of a
    block of even size share one off-diagonal list, and every call
    returns new lists.
    """
    halves = []
    plan = _plan(k) if k <= _PLAN_K_MAX else _plan.__wrapped__(k)
    for a_coefs, bc_coefs, roots, edit in plan:
        if len(a_coefs) == 1:  # a block of one or two rows, whose halves are 1x1
            d = a_coefs[0] * a2 + bc_coefs[0] * bc2
            if roots:
                e = off * roots[0]
                halves.append(([d + e], []))
                halves.append(([d - e], []))
            else:
                halves.append(([d], []))
            continue
        diag = [ca * a2 + cbc * bc2 for ca, cbc in zip(a_coefs, bc_coefs)]
        coupling = [off * r for r in roots]
        if edit == _ROOT2:
            halves.append((diag[:-1], coupling[:-1]))
        elif edit == _PLUS_MINUS:
            d, e = diag.pop(), coupling.pop()
            halves.append((diag + [d + e], coupling))
            diag.append(d - e)
        halves.append((diag, coupling))
    return halves
