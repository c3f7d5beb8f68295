"""Domain types shared by every module: metric parameters, groups, spectra.

A left-invariant metric on SU(2) or SO(3) is described by three positive
parameters ``(a, b, c)``; permuting them does not change the isometry
class, so triples are stored in canonical descending order.

Every record in the package (``MetricTriple``, ``SpectrumTable``, the
records of ``geometry``, ``rigidity`` and ``spectrum``, and those of the
checks, ``oracle.GershgorinIntervals`` and ``acceptance.CriterionResult``)
is a frozen slotted class on ``_Record``, not a dataclass: every command,
``verify`` included, runs in a fresh interpreter, and ``dataclasses``
would load ``inspect``, ``ast`` and ``dis`` and build each record by
``exec`` at import, about a fifth of the package's start-up.  The one
exception, ``EigenPair``, is a ``collections.namedtuple``, since its
contract is tuple equality; ``typing.NamedTuple`` would load ``typing``,
which nothing else on the command path needs.

A ``SpectrumTable`` is its columns: the distinct values, their
multiplicities and their irrep labels, checked and stored as tuples by
its one constructor.  Its ``EigenPair`` entries are a view, built on each
read, which nothing in the package reads.
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


# the members, read once: on Python 3.11 every attribute read on an enum
# class goes through EnumType.__getattr__'s slow path, about 0.15 us, so
# the per-call group tests read these
_SU2, _SO3 = GroupKind.SU2, GroupKind.SO3


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
    ``_fill``.  The contract:

    * frozen: assigning or deleting any attribute raises AttributeError;
    * a record is its constructor call, ``__reduce__()`` = (type, fields):
      it equals only a record of the same type with equal fields, never
      the tuple of its fields, and hashes as that pair;
    * the repr is ``Name(field=value, ...)``, as a dataclass prints;
    * picklable and copyable: ``pickle`` and ``copy`` rebuild the record
      through its constructor, so a copy is validated again.
    """

    __slots__ = ()

    def _fill(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
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
            ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__]),
        )

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


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
        # set one by one, not through ``_fill``, which costs about 0.3 us
        # more here and 0.4 us more for the six fields of ``SpectrumTable``
        # (Python 3.11.7, shared 2-CPU host), against a median bench ``sweep``
        # table call of 13 us: both records are built on every table call
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
    bool multiplicity, among them.  ``SpectrumTable.entries`` builds its
    pairs with ``tuple.__new__`` instead, from columns the table has
    checked whole.
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

    The table is its columns: ``values[i]`` is a distinct eigenvalue,
    ``multiplicities[i]`` its multiplicity and ``k_sources[i]`` the irrep
    labels k whose blocks contributed to it.  The table is complete below
    ``truncation_bound``: every eigenvalue of the metric not exceeding the
    bound appears, so the first entry is the constant functions' (0, 1).
    The constructor stores the three columns as tuples and checks all of
    this but the completeness itself, which ``spectrum_up_to`` provides:
    each test runs over a whole column at C speed, with no Python loop per
    entry, since ``spectrum_up_to`` builds a table on every call.  The
    label groups inside ``k_sources`` are kept as given: making each one a
    tuple would cost about 17 ns per entry, 35 us on a table of 2,000
    entries (Python 3.11.7).

    ``entries``, the table as ``EigenPair``s, is built from the columns on
    each read.  Nothing in the package reads it: an ``EigenPair`` is a
    tuple subclass, which CPython's cyclic collector keeps tracking where
    it untracks a plain tuple, so each one costs an allocation and
    collector work besides.
    """

    __slots__ = ("values", "multiplicities", "truncation_bound", "group", "triple", "k_sources")

    def __init__(
        self,
        values: tuple[float, ...],
        multiplicities: tuple[int, ...],
        truncation_bound: float,
        group: GroupKind,
        triple: MetricTriple,
        k_sources: tuple[tuple[int, ...], ...],
    ) -> None:
        values, mults, k_sources = tuple(values), tuple(multiplicities), tuple(k_sources)
        if len(mults) != len(values):
            raise ValueError("spectrum values and multiplicities must have equal lengths")
        if not values or values[0] != 0.0 or mults[0] != 1:
            raise ValueError("first spectrum entry must be (0, 1)")
        if len(k_sources) != len(values):
            raise ValueError("k_sources must hold one tuple per spectrum entry")
        # strict increase from (0, 1) also puts every value at >= 0
        if not all(map(operator.lt, values, values[1:])):
            raise ValueError("spectrum entries must be strictly increasing")
        # a NaN, an inf, a float or a bool is no int; reading every type
        # costs a median bench ``sweep`` table call about 0.3 us (2%) more
        # than testing the type of the sum, which a bool passes
        if {*map(type, mults)} != {int} or min(mults) < 1:
            raise ValueError("spectrum multiplicities must be >= 1 and ints")
        if not values[-1] <= truncation_bound:
            raise ValueError("spectrum entry exceeds the truncation bound")
        # set one by one, not through ``_fill``: see ``MetricTriple``
        _set(self, "values", values)
        _set(self, "multiplicities", mults)
        _set(self, "truncation_bound", truncation_bound)
        _set(self, "group", group)
        _set(self, "triple", triple)
        _set(self, "k_sources", k_sources)

    @property
    def entries(self) -> tuple[EigenPair, ...]:
        """The (value, multiplicity) pairs as ``EigenPair``s, built on each read."""
        return tuple(map(tuple.__new__, repeat(EigenPair), zip(self.values, self.multiplicities)))

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
        return sum(islice(self.multiplicities, bisect_right(self.values, lam)))


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
