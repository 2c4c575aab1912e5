"""The simulated MMU: protection checks, fault delivery, and data movement.

The MMU is the single entry point for every load and store performed by a
simulated process.  It validates the address, consults the per-process page
table, delivers a fault to the installed handler when the protection does
not permit the access (exactly one fault per page / access kind /
sub-computation, like the real first-touch trap), and finally moves the
bytes through the process's copy-on-write view.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ProtectionError
from repro.memory.address_space import SharedAddressSpace
from repro.memory.cow import ProcessView
from repro.memory.fault_handler import FaultDispatcher, FaultKind
from repro.memory.page import PROT_NONE, PROT_READ, PROT_WRITE

_WORD_STRUCT = struct.Struct("<q")
_DOUBLE_STRUCT = struct.Struct("<d")

#: Machine word size used by the word-level helpers (bytes).
WORD_SIZE = 8


@dataclass
class AccessStats:
    """Counters for memory traffic seen by the MMU.

    Attributes:
        loads: Number of load operations (not bytes).
        stores: Number of store operations.
        bytes_read: Total bytes read.
        bytes_written: Total bytes written.
        per_pid_loads: Load count per simulated process.
        per_pid_stores: Store count per simulated process.
    """

    loads: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    per_pid_loads: Dict[int, int] = field(default_factory=dict)
    per_pid_stores: Dict[int, int] = field(default_factory=dict)


class MMU:
    """Software model of the memory-management unit used by INSPECTOR.

    Args:
        shared: The shared backing store.
        dispatcher: The fault dispatcher; its handler implements the
            "record the access and relax the protection" behaviour.
    """

    def __init__(self, shared: SharedAddressSpace, dispatcher: FaultDispatcher | None = None) -> None:
        self.shared = shared
        self.dispatcher = dispatcher if dispatcher is not None else FaultDispatcher()
        self.views: Dict[int, ProcessView] = {}
        self.stats = AccessStats()

    # ------------------------------------------------------------------ #
    # Process management
    # ------------------------------------------------------------------ #

    def register_process(self, pid: int) -> ProcessView:
        """Create (or return) the memory view of process ``pid``."""
        view = self.views.get(pid)
        if view is None:
            view = ProcessView(pid, self.shared)
            self.views[pid] = view
        return view

    def view(self, pid: int) -> ProcessView:
        """Return the registered view for ``pid``.

        Raises:
            KeyError: If the process was never registered.
        """
        return self.views[pid]

    def unregister_process(self, pid: int) -> None:
        """Forget the view of a terminated process."""
        self.views.pop(pid, None)

    # ------------------------------------------------------------------ #
    # Protection management (mprotect equivalents)
    # ------------------------------------------------------------------ #

    def protect_all(self, pid: int, prot: int = PROT_NONE) -> None:
        """Apply ``prot`` to every tracked page of process ``pid``.

        This is the ``mprotect(PROT_NONE)`` performed at the start of every
        sub-computation: it guarantees that the first read and the first
        write of each page trap again.
        """
        self.register_process(pid).page_table.protect_all(prot)

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #

    def _check_pages(self, view: ProcessView, address: int, size: int, write: bool) -> None:
        """Fault in every page spanned by a non-empty access until it is permitted."""
        needed = PROT_WRITE if write else PROT_READ
        page_size = self.shared.page_size
        table = view.page_table
        entries = table.entries
        for page in range(address // page_size, (address + size - 1) // page_size + 1):
            entry = entries.get(page)
            if entry is None:
                entry = table.entry(page)
            if not entry.prot & needed:
                kind = FaultKind.WRITE if write else FaultKind.READ
                self.dispatcher.deliver(view.pid, page, kind, entry)
                if not entry.prot & needed:
                    raise ProtectionError(
                        f"pid {view.pid}: access to page {page} still forbidden after fault"
                    )
            if write:
                entry.dirty = True
            entry.accessed = True

    def read(self, pid: int, address: int, size: int) -> bytes:
        """Perform a load of ``size`` bytes on behalf of process ``pid``."""
        region = self.shared.check_range(address, size)
        view = self.views.get(pid)
        if view is None:
            view = self.register_process(pid)
        if region.tracked and size > 0:
            self._check_pages(view, address, size, False)
        stats = self.stats
        stats.loads += 1
        stats.bytes_read += size
        stats.per_pid_loads[pid] = stats.per_pid_loads.get(pid, 0) + 1
        if region.shared:
            return view.read_bytes(address, size)
        return self.shared.read(address, size)

    def write(self, pid: int, address: int, data: bytes) -> None:
        """Perform a store of ``data`` on behalf of process ``pid``."""
        size = len(data)
        region = self.shared.check_range(address, size)
        view = self.views.get(pid)
        if view is None:
            view = self.register_process(pid)
        if region.tracked and size > 0:
            self._check_pages(view, address, size, True)
        stats = self.stats
        stats.stores += 1
        stats.bytes_written += size
        stats.per_pid_stores[pid] = stats.per_pid_stores.get(pid, 0) + 1
        if region.shared:
            view.write_bytes(address, data)
        else:
            self.shared.write(address, data)

    # ------------------------------------------------------------------ #
    # Word-level helpers used by the instruction-level program model
    # ------------------------------------------------------------------ #

    def read_word(self, pid: int, address: int) -> int:
        """Load a signed 64-bit integer."""
        return _WORD_STRUCT.unpack(self.read(pid, address, WORD_SIZE))[0]

    def write_word(self, pid: int, address: int, value: int) -> None:
        """Store a signed 64-bit integer."""
        self.write(pid, address, _WORD_STRUCT.pack(int(value)))

    def read_double(self, pid: int, address: int) -> float:
        """Load a 64-bit IEEE-754 double."""
        return _DOUBLE_STRUCT.unpack(self.read(pid, address, WORD_SIZE))[0]

    def write_double(self, pid: int, address: int, value: float) -> None:
        """Store a 64-bit IEEE-754 double."""
        self.write(pid, address, _DOUBLE_STRUCT.pack(float(value)))

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #

    def dirty_pages(self, pid: int) -> List[int]:
        """Return the pages privately modified by ``pid`` since its last commit."""
        return self.register_process(pid).dirty_pages()
