"""Casimir blocks of the irreducible SU(2) representations.

For the (k+1)-dimensional irrep acting on degree-k homogeneous polynomials
in two variables (monomial basis P_0..P_k), the negative Casimir operator
of a metric triple couples only basis indices at distance two.  A
similarity by a diagonal of binomial square roots makes it symmetric, and
reordering the basis into even and odd indices splits it into two
symmetric tridiagonal blocks.  The symmetry l <-> k-l splits those
blocks again, into halves of about k/4 rows, and ``_wang_halves``, the
only assembly, writes the halves directly from the closed entries, as
(diagonal, off-diagonal) pairs of plain lists.  Every entry depends on
the triple only through the three squares of ``_squares``, which a
caller forms once for all its blocks, and on k only through the integer
coefficients and square-root ratios of ``_plan(k)``, which is built once
per process for each k up to ``_PLAN_K_MAX``: a call evaluates the
entries from the plan in O(k) float operations.  Nothing here builds a
full block: the dense matrix, its generator construction, the
symmetrize/split steps, the ``TridiagBlock`` that holds a full block and
the full diagonal ``_diagonal`` live in ``homsphere.oracle`` as
independent references, the only source of full blocks and full
diagonals.  Entries are plain Python floats, so nothing here needs numpy.
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


# The memo keeps the plan of every k <= _PLAN_K_MAX.  A plan holds about
# k/2 diagonal and k/2 coupling coefficients of each kind, so the plans of
# all k <= K take memory quadratic in K: 170 KiB for K = 64, 0.7 MiB for
# K = 128, 2.9 MiB for K = 256 and 12 MiB for K = 512 (tracemalloc,
# CPython 3.11).  128 holds every block of a table with K = 68, such as
# lam_max = 3200 on (1.7, 1.2, 0.8), where an unbounded memo would keep
# gigabytes for a table near spectrum.K_CAP.  A plan past it is built
# again on each call, at about the cost of the assembly it replaces.
_PLAN_K_MAX = 128
_PLANS: dict[int, tuple] = {}
_WHOLE, _ROOT2, _PLUS_MINUS = range(3)


def _plan(k: int) -> tuple:
    """The part of the Wang halves of irrep k that does not depend on the triple.

    One record per block whose halves ``_wang_halves`` returns, for the
    first rows of the block, which hold the basis indices l = p, p+2, ...:
    (a_coefs, bc_coefs, above, below, ratios, edit).

    * ``a_coefs`` and ``bc_coefs``: the integers (k-2l)^2 and
      (2l+1)k - 2l^2 that multiply a^2 and b^2 + c^2 on the diagonal;
    * ``above``, ``below`` and ``ratios``: l(l-1), (k-l+2)(k-l+1) and f
      for the coupling of l-2 and l.  Column l of the matrix holds
      l(l-1) (c^2-b^2) at row l-2 and (k-l)(k-l-1) (c^2-b^2) at row l+2.
      Conjugating by d_l = sqrt(binom(k, l)) scales the coupling of l-2
      and l by f = d_l / d_{l-2} above the diagonal and by 1/f below it;
      the block entry is the mean of the two.  f is a product of the
      square roots of two adjacent ratios (k-l+1)/l, so nothing
      overflows for large k;
    * ``edit``: ``_WHOLE`` for the block of odd k, ``_ROOT2`` for a block
      of 2m+1 rows (its last coupling times sqrt 2) and ``_PLUS_MINUS``
      for a block of 2m rows (its last diagonal entry plus and minus its
      last coupling).

    The coefficients are held column by column, which keeps a plan to a
    few tuples per block: the first use of a large table then allocates
    few objects.  Plans of k <= ``_PLAN_K_MAX`` are kept in ``_PLANS``.

    Raises:
        ValueError: if k is negative.
    """
    plan = _PLANS.get(k)
    if plan is not None:
        return plan
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    if k % 2:
        n = (k + 1) // 2
        plan = (_block_plan(k, 0, n, n - 1, _WHOLE),)
    else:
        blocks = []
        for p in (0, 1) if k else (0,):
            m, odd = divmod((k - p) // 2 + 1, 2)
            blocks.append(_block_plan(k, p, m + odd, m, _ROOT2 if odd else _PLUS_MINUS))
        plan = tuple(blocks)
    if k <= _PLAN_K_MAX:
        _PLANS[k] = plan
    return plan


def _block_plan(k: int, p: int, rows: int, couplings: int, edit: int) -> tuple:
    """The ``_plan`` record of the first ``rows`` rows of the parity-p block of irrep k."""
    ls = range(p, p + 2 * rows, 2)
    cs = range(p + 2, p + 2 + 2 * couplings, 2)
    return (
        tuple([(k - 2 * l) ** 2 for l in ls]),
        tuple([(2 * l + 1) * k - 2 * l * l for l in ls]),
        tuple([l * (l - 1) for l in cs]),
        tuple([(k - l + 2) * (k - l + 1) for l in cs]),
        tuple([math.sqrt((k - l + 1) / l) * math.sqrt((k - l + 2) / (l - 1)) for l in cs]),
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

    * n = 2m+1: d[:m+1] with its last coupling times sqrt 2, and d[:m];
    * n = 2m: d[:m] with its last diagonal entry d_{m-1} + e_{m-1}, and
      the same with d_{m-1} - e_{m-1}.

    Only the first half of each block is evaluated, from ``_plan(k)``:
    a diagonal entry is (k-2l)^2 a2 + ((2l+1)k - 2l^2) bc2 and a coupling
    0.5 (l(l-1) off f + (k-l+2)(k-l+1) off / f), in that order, and the
    edits act on the evaluated entries.  So each entry is bitwise the one that
    ``oracle.tridiagonal_split(oracle.symmetrize(oracle.casimir_matrix(k, t), k), k)``
    produces.  The couplings of a block are persymmetric only to an ulp,
    so its second half is never read.  The two halves of a block of even
    size share one off-diagonal list, and every call returns new lists.
    """
    halves = []
    for a_coefs, bc_coefs, above, below, ratios, edit in _plan(k):
        if len(a_coefs) == 1:  # a block of one or two rows, whose halves are 1x1
            d = a_coefs[0] * a2 + bc_coefs[0] * bc2
            if ratios:
                f = ratios[0]
                e = 0.5 * (above[0] * off * f + below[0] * off / f)
                halves.append(([d + e], []))
                halves.append(([d - e], []))
            else:
                halves.append(([d], []))
            continue
        diag = [ca * a2 + cbc * bc2 for ca, cbc in zip(a_coefs, bc_coefs)]
        coupling = [0.5 * (u * off * f + v * off / f) for u, v, f in zip(above, below, ratios)]
        if edit == _ROOT2:
            halves.append((diag[:-1], coupling[:-1]))
            coupling[-1] *= _SQRT2
        elif edit == _PLUS_MINUS:
            d, e = diag.pop(), coupling.pop()
            halves.append((diag + [d + e], coupling))
            diag.append(d - e)
        halves.append((diag, coupling))
    return halves
