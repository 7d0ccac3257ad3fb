"""Result object returned by every SAC search algorithm.

An answer's members are kept as :class:`Members`: one sorted, read-only
``int32`` array of internal vertex indices that behaves as a frozenset.
The probes of :mod:`repro.core` already produce that array, so an answer
goes from the probe through :class:`SACResult`, the answer cache and the
subscription registry to the response body
(:meth:`repro.graph.SpatialGraph.labels_of`) without a Python set being
built on the way.
"""

from __future__ import annotations

import operator
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional

import numpy as np

from repro.geometry.circle import Circle

_INT32 = np.iinfo(np.int32)


class Members(AbstractSet):
    """An immutable set of vertex indices stored as one sorted array.

    Built from any iterable of integers (a set, a list, an ndarray); equal
    to, and hashing like, the frozenset of the same integers.  Iteration
    yields plain ``int`` in ascending order, ``in`` is a binary search, and
    :attr:`array` is the sorted, duplicate-free, read-only array itself
    (``int32`` unless an index does not fit).  ``-``, ``&`` and ``|``
    between two :class:`Members` run on the arrays and return
    :class:`Members`; with any other set they go through a frozenset and
    return what frozenset algebra returns.

    An ndarray that is already sorted and duplicate-free is not copied when
    its dtype is kept; a writable one is wrapped in a read-only view.
    """

    __slots__ = ("_array", "_frozen")

    def __new__(cls, members: Iterable[int] = ()) -> "Members":
        if type(members) is cls:
            return members
        if isinstance(members, np.ndarray):
            array = members
            if array.dtype.kind not in "iu":
                if array.size:
                    raise TypeError(f"vertex indices must be integers, got dtype {array.dtype}")
                array = array.astype(np.int64)
        else:
            array = np.fromiter(map(operator.index, members), np.int64)
        if array.size > 1 and not bool((array[1:] > array[:-1]).all()):
            array = np.unique(array)
        if array.dtype != np.int32 and (
            array.size == 0 or (_INT32.min <= array[0] and array[-1] <= _INT32.max)
        ):
            array = array.astype(np.int32)
        if array.flags.writeable:
            array = array.view()
            array.flags.writeable = False
        self = object.__new__(cls)
        self._array = array
        self._frozen: Optional[frozenset] = None
        return self

    @property
    def array(self) -> np.ndarray:
        """The members as a sorted, duplicate-free, read-only array."""
        return self._array

    def _frozenset(self) -> frozenset:
        """The members as a frozenset, built on first use and kept."""
        if self._frozen is None:
            self._frozen = frozenset(self._array.tolist())
        return self._frozen

    # ------------------------------------------------------------ the set API
    def __len__(self) -> int:
        return int(self._array.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._array.tolist())

    def __contains__(self, vertex: object) -> bool:
        try:
            vertex = operator.index(vertex)
        except TypeError:
            return False
        array = self._array
        if not array.size or not array[0] <= vertex <= array[-1]:
            return False
        return bool(array[array.searchsorted(vertex)] == vertex)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Members):
            return np.array_equal(self._array, other._array)
        if isinstance(other, AbstractSet):
            return len(other) == len(self) and all(v in other for v in self)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._frozenset())

    def __and__(self, other):
        if isinstance(other, Members):
            return Members(np.intersect1d(self._array, other._array, assume_unique=True))
        return self._frozenset() & other if isinstance(other, AbstractSet) else NotImplemented

    def __or__(self, other):
        if isinstance(other, Members):
            return Members(np.union1d(self._array, other._array))
        return self._frozenset() | other if isinstance(other, AbstractSet) else NotImplemented

    def __sub__(self, other):
        if isinstance(other, Members):
            return Members(np.setdiff1d(self._array, other._array, assume_unique=True))
        return self._frozenset() - other if isinstance(other, AbstractSet) else NotImplemented

    def __rand__(self, other):
        return other & self._frozenset() if isinstance(other, AbstractSet) else NotImplemented

    def __ror__(self, other):
        return other | self._frozenset() if isinstance(other, AbstractSet) else NotImplemented

    def __rsub__(self, other):
        return other - self._frozenset() if isinstance(other, AbstractSet) else NotImplemented

    # ---------------------------------------------------------------- interop
    def __reduce__(self):  # unpickles read-only, like every other Members
        return (Members, (self._array.tolist(),))

    def __repr__(self) -> str:
        return f"Members({self._array.tolist()!r})"


@dataclass(frozen=True)
class SACResult:
    """A spatial-aware community together with its covering circle.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the result (``"exact"``,
        ``"appinc"``, ...).
    query:
        Internal index of the query vertex.
    k:
        Minimum-degree threshold the community satisfies.
    members:
        The internal vertex indices forming the community, as
        :class:`Members` (any iterable passed in is converted).  Always
        contains ``query`` and induces a connected subgraph of minimum degree
        at least ``k``.
    circle:
        The minimum covering circle (MCC) of the members' locations.
    stats:
        Algorithm-specific bookkeeping (number of feasibility checks, binary
        search iterations, candidate-set sizes, ...), useful for the
        efficiency experiments.
    footprint:
        The sorted, read-only ``float64`` distances from the query that
        AppFast's binary search compared candidate distances against (see
        :func:`repro.core.appfast.unchanged_by`), or ``None`` for every
        other answer.  Not part of equality.
    """

    algorithm: str
    query: int
    k: int
    members: Members
    circle: Circle
    stats: Dict[str, float] = field(default_factory=dict)
    footprint: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", Members(self.members))

    @property
    def radius(self) -> float:
        """Radius of the community's minimum covering circle."""
        return self.circle.radius

    @property
    def size(self) -> int:
        """Number of community members."""
        return len(self.members)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.members

    def __len__(self) -> int:
        return len(self.members)

    def summary(self) -> Dict[str, float]:
        """Return a flat summary row (algorithm, size, radius)."""
        return {
            "algorithm": self.algorithm,
            "query": self.query,
            "k": self.k,
            "size": self.size,
            "radius": self.radius,
        }
