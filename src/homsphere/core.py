"""Domain types shared by every module: metric parameters, groups, spectra.

A left-invariant metric on SU(2) or SO(3) is described by three positive
parameters ``(a, b, c)``; permuting them does not change the isometry
class, so triples are stored in canonical descending order.

The package's result records (``MetricTriple``, ``SpectrumTable`` and the
records of ``geometry``, ``rigidity`` and ``spectrum``) are frozen slotted
classes on ``_Record``, not dataclasses: every command runs in a fresh
interpreter, and ``dataclasses`` would load ``inspect``, ``ast`` and
``dis`` and build each record by ``exec`` at import, about a fifth of the
package's start-up.  ``EigenPair`` is a ``collections.namedtuple`` for the
same reason: ``typing.NamedTuple`` would load ``typing``, which nothing
else on the command path needs.

A ``SpectrumTable`` keeps the value and multiplicity columns it has
checked, as tuples, and builds its ``entries`` only when they are first
read.  An ``EigenPair`` is a tuple subclass, which CPython's cyclic
collector keeps tracking where it untracks a plain tuple, so a table of
thousands of entries costs as many allocations and collector work
besides, a quarter of the wall time of the benchmark's CLI batch; the CLI,
``counting_function`` and ``isospectral_check`` read the columns and
never build them.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_right
from collections import namedtuple
from itertools import islice, repeat


class HomsphereError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveParameter(HomsphereError, ValueError):
    """A metric parameter was zero, negative, or not finite."""


class GroupKind(enum.Enum):
    """The two groups carrying the metrics: SU(2) ~ S^3, SO(3) ~ RP^3."""

    SU2 = "su2"
    SO3 = "so3"


class MetricClass(enum.Enum):
    """Coarse classification of a canonical triple by parameter equalities."""

    ROUND = "Round"          # a = b = c
    BERGER_AB = "BergerAB"   # a = b > c
    BERGER_BC = "BergerBC"   # a > b = c
    GENERIC = "Generic"      # a > b > c


# sets a field of a record, whose own __setattr__ raises
_set = object.__setattr__


class _Record:
    """Base of the frozen result records.

    A record names its fields, in order, in ``__slots__``, and its own
    ``__init__`` validates them and sets each once, through ``_set`` or
    ``_fill``.  A slot whose name starts with ``_`` holds state kept
    besides the fields (``SpectrumTable``'s columns) and is no field:
    ``_fields``, set once per class, lists the fields alone.  The contract:

    * frozen: assigning or deleting any attribute raises AttributeError;
    * a record is its constructor call, ``__reduce__()`` = (type, fields):
      it equals only a record of the same type with equal fields, never
      the tuple of its fields, and hashes as that pair;
    * the repr is ``Name(field=value, ...)``, as a dataclass prints;
    * picklable and copyable: ``pickle`` and ``copy`` rebuild the record
      through its constructor, so a copy is validated again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple([name for name in cls.__slots__ if name[0] != "_"])

    def _fill(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return (
            self.__reduce__() == other.__reduce__()
            if isinstance(other, _Record)
            else NotImplemented
        )

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields]),
        )

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self._fields])


class MetricTriple(_Record):
    """Canonical parameters of the metric making {aX1, bX2, cX3} orthonormal.

    The constructor sorts the inputs descending, so ``a >= b >= c > 0``
    always holds.  Sorting is safe because any permutation of the
    parameters yields an isometric metric.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float) -> None:
        vals = (float(a), float(b), float(c))
        a, b, c = sorted(vals, reverse=True)
        # every value takes part in one comparison, which a NaN fails
        if not 0.0 < c <= b <= a < math.inf:
            raise NonPositiveParameter(
                f"metric parameters must be finite and positive, got {vals}"
            )
        # set one by one, not through ``_fill``, which costs about 0.35 us
        # more here and 0.7 us more for the five fields of ``SpectrumTable``
        # (Python 3.11, shared 2-CPU host), against a median bench ``sweep``
        # table call of 17 us: both records are built on every table call
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    def scaled(self, s: float) -> "MetricTriple":
        """Triple (s*a, s*b, s*c); eigenvalues scale by s^2, lengths by 1/s."""
        return MetricTriple(s * self.a, s * self.b, s * self.c)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def normalize_triple(a: float, b: float, c: float) -> MetricTriple:
    """Return the canonical descending-sorted triple for the inputs.

    Raises:
        NonPositiveParameter: if any input is <= 0 or not finite.
    """
    return MetricTriple(a, b, c)


def classify(t: MetricTriple) -> MetricClass:
    """Classify a canonical triple by exact equality of its stored values.

    Equality is exact on the stored floats by design: the class gates which
    closed formulas apply downstream, and fuzzy gating would silently change
    outputs.  Callers wanting tolerance-based detection must round their
    inputs before constructing the triple.
    """
    if t.a == t.b == t.c:
        return MetricClass.ROUND
    if t.a == t.b:
        return MetricClass.BERGER_AB
    if t.b == t.c:
        return MetricClass.BERGER_BC
    return MetricClass.GENERIC


class EigenPair(namedtuple("EigenPair", ("value", "multiplicity"))):
    """A distinct Laplace eigenvalue together with its multiplicity.

    A validated tuple: it compares equal to ``(value, multiplicity)``.
    The constructor rejects a negative value and a multiplicity that is
    not an ``int`` of at least 1: NaN in either field, and a float or a
    bool multiplicity, among them.  ``SpectrumTable`` builds its entries
    with ``tuple.__new__`` instead, after it has checked the whole table
    at once.
    """

    __slots__ = ()

    def __new__(cls, value: float, multiplicity: int) -> EigenPair:
        if not value >= 0.0:
            raise ValueError(f"eigenvalue must be nonnegative, got {value}")
        if type(multiplicity) is not int or multiplicity < 1:
            raise ValueError(f"multiplicity must be an int >= 1, got {multiplicity!r}")
        return super().__new__(cls, value, multiplicity)


class SpectrumTable(_Record):
    """Sorted distinct eigenvalues <= truncation_bound, with multiplicities.

    The table is complete below ``truncation_bound``: every eigenvalue of the
    metric not exceeding the bound appears, so the first entry is the
    constant functions' (0, 1).  Multiplicities are ints >= 1.
    ``k_sources[i]`` lists the irrep labels k whose blocks contributed to
    ``entries[i]``.  All of this but the completeness itself, which
    ``spectrum_up_to`` provides, is checked on the table's columns by one
    routine, ``_fill_table``.  The constructor runs it on the columns of
    ``entries``; ``spectrum_up_to`` runs it, through ``_spectrum_table``,
    on the columns it clusters, with no entries built before.  The
    constructor alone also rejects a bool multiplicity, as ``EigenPair``
    does.

    Either way the table keeps the checked value and multiplicity columns,
    as tuples in the private slots ``_values`` and ``_mults``, and builds
    ``entries``, ``EigenPair`` tuples, from them on its first read, which
    ``__getattr__`` stores in the slot that later reads find.  The
    package's own readers (``counting_function``, the CLI's row writer and
    ``isospectral_check``) read the columns and build no entries: an
    ``EigenPair`` is a tuple subclass, which CPython's cyclic collector
    keeps tracking where it untracks a plain tuple, so each entry costs an
    allocation and collector work besides.  Building no entries cut the
    wall time of the benchmark's ``commands`` batch, whose 24 closed-form
    tables hold about 1,000-3,000 entries each, by a quarter, from 0.094
    to 0.071 s (Python 3.11.7, shared 2-CPU Xeon).  The stored entries
    cannot be told from entries built at construction: every read returns
    equal tuples, and equality, hashing, the repr and ``pickle`` read
    ``entries`` as the constructor takes them.
    """

    __slots__ = (
        "entries", "truncation_bound", "group", "triple", "k_sources", "_values", "_mults"
    )

    def __init__(
        self,
        entries: tuple[EigenPair, ...],
        truncation_bound: float,
        group: GroupKind,
        triple: MetricTriple,
        k_sources: tuple[tuple[int, ...], ...],
    ) -> None:
        values, mults = zip(*entries) if entries else ((), ())
        # _fill_table sums a bool as the int it is; spectrum_up_to's columns
        # never hold one, so only this route pays for the test
        if bool in map(type, mults):
            raise ValueError("spectrum multiplicities must be >= 1 and ints")
        _fill_table(self, values, mults, truncation_bound, group, triple, k_sources)

    def __getattr__(self, name: str) -> tuple[EigenPair, ...]:
        # reached only for an attribute that normal lookup does not find:
        # ``entries`` before its first read, or a name the table lacks
        if name != "entries":
            return object.__getattribute__(self, name)  # raises AttributeError
        pairs = zip(self._values, self._mults)
        _set(self, "entries", tuple(map(tuple.__new__, repeat(EigenPair), pairs)))
        return self.entries

    def counting_function(self, lam: float) -> int:
        """Number of eigenvalues <= lam, counted with multiplicity.

        Raises:
            ValueError: if ``lam`` is NaN or above ``truncation_bound``,
                where the table cannot see every eigenvalue <= lam.
        """
        if not lam <= self.truncation_bound:
            raise ValueError(
                f"lam must be at most the truncation bound {self.truncation_bound}, got {lam}"
            )
        return sum(islice(self._mults, bisect_right(self._values, lam)))


def _fill_table(
    table: SpectrumTable,
    values: tuple[float, ...],
    mults: tuple[int, ...],
    truncation_bound: float,
    group: GroupKind,
    triple: MetricTriple,
    k_sources: tuple[tuple[int, ...], ...],
) -> None:
    """Check a spectrum table's columns and set its fields: the one check of both routes.

    Each test runs over a whole column at C speed, with no Python loop
    per entry, since ``spectrum_up_to`` builds a table on every call.  The
    table keeps the columns, tuples from both routes, as they are.
    """
    if not values or values[0] != 0.0 or mults[0] != 1:
        raise ValueError("first spectrum entry must be (0, 1)")
    if len(k_sources) != len(values):
        raise ValueError("k_sources must hold one tuple per spectrum entry")
    # strict increase from (0, 1) also puts every value at >= 0
    if not all(map(operator.lt, values, values[1:])):
        raise ValueError("spectrum entries must be strictly increasing")
    # an entry that is not an int (NaN, inf, 1.5) makes the sum a non-int,
    # and below that the minimum compares ints exactly
    if type(sum(mults)) is not int or min(mults) < 1:
        raise ValueError("spectrum multiplicities must be >= 1 and ints")
    if not values[-1] <= truncation_bound:
        raise ValueError("spectrum entry exceeds the truncation bound")
    # set one by one, not through ``_fill``: see ``MetricTriple``
    _set(table, "_values", values)
    _set(table, "_mults", mults)
    _set(table, "truncation_bound", truncation_bound)
    _set(table, "group", group)
    _set(table, "triple", triple)
    _set(table, "k_sources", k_sources)


def _spectrum_table(
    values: tuple[float, ...],
    mults: tuple[int, ...],
    truncation_bound: float,
    group: GroupKind,
    triple: MetricTriple,
    k_sources: tuple[tuple[int, ...], ...],
) -> SpectrumTable:
    """The ``SpectrumTable`` with these columns, checked as the constructor checks them."""
    table = object.__new__(SpectrumTable)
    _fill_table(table, values, mults, truncation_bound, group, triple, k_sources)
    return table


class SpectralInvariants(_Record):
    """The rigidity fingerprint: (abc, scalar curvature, lambda_1, mult).

    For metrics in this family ``mult1`` is one of {3, 4, 6, 7, 9}.  The
    inverse solver uses the multiplicity to select the equation it solves,
    and on SO(3) to build the triple in the class that 6 (a = b > c) or 9
    (round) fixes; it rejects fingerprints whose v, Scal and lambda1 no
    metric reproduces.  It does not check the multiplicity of the triple
    it returns otherwise, so an SU(2) fingerprint or an SO(3) fingerprint
    with multiplicity 3 can come back as a triple whose own multiplicity
    differs.
    """

    __slots__ = ("vol_param", "scal", "lambda1", "mult1")

    def __init__(self, vol_param: float, scal: float, lambda1: float, mult1: int) -> None:
        self._fill(vol_param, scal, lambda1, mult1)
