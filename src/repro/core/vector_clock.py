"""Vector clocks (Mattern) used to order sub-computations.

The provenance algorithm derives the happens-before partial order between
sub-computations in a completely decentralized way: every thread carries a
vector clock, every synchronization object carries one, and release/acquire
operations propagate clock values between them.  Because threads are
created dynamically (kmeans creates several hundred), the clock is a sparse
mapping from thread id to counter rather than a fixed-size array; absent
entries are zero, which matches the paper's initialisation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple


class VectorClock:
    """A sparse vector clock over thread ids.

    The clock supports the three operations the provenance algorithm needs:
    setting a thread's own component (``startSub-computation``), merging
    with another clock component-wise (``release``/``acquire``), and the
    happens-before comparison used to order sub-computations in the CPG.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Mapping[int, int]] = None) -> None:
        self._entries: Dict[int, int] = {}
        if entries:
            for tid, value in entries.items():
                if value < 0:
                    raise ValueError(f"clock component for thread {tid} must be >= 0, got {value}")
                if value > 0:
                    self._entries[int(tid)] = int(value)

    @classmethod
    def adopt(cls, entries: Dict[int, int]) -> "VectorClock":
        """Wrap ``entries`` as a clock without copying or checking it.

        For a decoder that has already checked every component is a
        positive integer: the clock takes ownership of the dict, so the
        caller must not keep mutating it.
        """
        clock = cls.__new__(cls)
        clock._entries = entries
        return clock

    # ------------------------------------------------------------------ #
    # Component access
    # ------------------------------------------------------------------ #

    def get(self, tid: int) -> int:
        """Return the component for thread ``tid`` (0 if absent)."""
        return self._entries.get(tid, 0)

    def set(self, tid: int, value: int) -> None:
        """Set the component for thread ``tid``."""
        if value < 0:
            raise ValueError(f"clock component must be >= 0, got {value}")
        if value == 0:
            self._entries.pop(tid, None)
        else:
            self._entries[tid] = value

    def advance(self, tid: int, value: Optional[int] = None) -> int:
        """Advance thread ``tid``'s component.

        Args:
            tid: The thread whose component advances.
            value: Explicit new value (the sub-computation counter ``alpha``
                in the paper); when omitted the component is incremented.

        Returns:
            The new component value.
        """
        new_value = self.get(tid) + 1 if value is None else value
        if new_value < self.get(tid):
            raise ValueError(
                f"clock for thread {tid} may not move backwards "
                f"({self.get(tid)} -> {new_value})"
            )
        self.set(tid, new_value)
        return new_value

    def merge(self, other: "VectorClock") -> None:
        """Merge ``other`` into this clock component-wise (in place).

        This is the ``max`` update performed on release (into the sync
        object's clock) and on acquire (into the thread's clock).  Both
        paths stay at C level for the common cases: an empty clock (a
        fresh token, a thread's first acquire) copies ``other``, and
        otherwise only the components that differ are visited.
        """
        mine = self._entries
        if not mine:
            mine.update(other._entries)
            return
        for tid, value in other._entries.items() - mine.items():
            if value > mine.get(tid, 0):
                mine[tid] = value

    def merged(self, other: "VectorClock") -> "VectorClock":
        """Return a new clock equal to the component-wise max of both."""
        result = self.copy()
        result.merge(other)
        return result

    def copy(self) -> "VectorClock":
        """Return an independent copy of this clock."""
        clone = VectorClock()
        clone._entries = dict(self._entries)
        return clone

    # ------------------------------------------------------------------ #
    # Ordering
    # ------------------------------------------------------------------ #

    def happens_before(self, other: "VectorClock") -> bool:
        """Return ``True`` if this clock is strictly less than ``other``.

        ``a`` happens-before ``b`` iff every component of ``a`` is <= the
        corresponding component of ``b`` and at least one is strictly
        smaller.
        """
        return self.dominated_by(other) and self._entries != other._entries

    def dominated_by(self, other: "VectorClock") -> bool:
        """Return ``True`` if every component of this clock is <= ``other``'s."""
        for tid, value in self._entries.items():
            if value > other.get(tid):
                return False
        return True

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Return ``True`` if the clocks are distinct and unordered."""
        return (
            self != other
            and not self.happens_before(other)
            and not other.happens_before(self)
        )

    # ------------------------------------------------------------------ #
    # Conversions and dunder protocol
    # ------------------------------------------------------------------ #

    def as_dict(self) -> Dict[int, int]:
        """Return the non-zero components as a plain dictionary."""
        return dict(self._entries)

    def threads(self) -> Iterable[int]:
        """Thread ids with non-zero components."""
        return self._entries.keys()

    def total(self) -> int:
        """Sum of the components (the first part of :func:`~repro.core.cpg.causal_key`)."""
        return sum(self._entries.values())

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._entries.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._entries.items())))

    def __le__(self, other: "VectorClock") -> bool:
        return self.dominated_by(other)

    def __lt__(self, other: "VectorClock") -> bool:
        return self.happens_before(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{tid}:{value}" for tid, value in sorted(self._entries.items()))
        return f"VC{{{inner}}}"


def merge_all(clocks: Iterable[VectorClock]) -> VectorClock:
    """Return the component-wise maximum of every clock in ``clocks``."""
    result = VectorClock()
    for clock in clocks:
        result.merge(clock)
    return result
