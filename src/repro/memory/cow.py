"""Per-process copy-on-write views of the shared address space.

INSPECTOR runs every thread as a separate process whose globals and heap
are ``MAP_PRIVATE`` mappings of the shared memory-mapped file.  The kernel
therefore gives each "thread" a private copy of any page it writes, and the
library merges those copies back at synchronization points.  A
:class:`ProcessView` models exactly that: a private page cache plus the
*twin* snapshots needed to compute commit diffs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.memory.address_space import SharedAddressSpace
from repro.memory.page import PROT_NONE, PageTable


class ProcessView:
    """The private memory view of one simulated process.

    Attributes:
        pid: Identifier of the owning simulated process.
        shared: The shared backing store.
        page_table: Per-process protection state (consulted by the MMU).
        private_pages: Copy-on-write page copies created on first write.
        twins: Pristine snapshots of each privately copied page, taken at
            copy time and used to compute the commit diff.
    """

    def __init__(self, pid: int, shared: SharedAddressSpace) -> None:
        self.pid = pid
        self.shared = shared
        self.page_table = PageTable(default_prot=PROT_NONE)
        self.private_pages: Dict[int, bytearray] = {}
        self.twins: Dict[int, bytes] = {}

    # ------------------------------------------------------------------ #
    # Copy-on-write plumbing
    # ------------------------------------------------------------------ #

    def has_private_copy(self, page: int) -> bool:
        """Return ``True`` if the process already owns a private copy of ``page``."""
        return page in self.private_pages

    def ensure_private_copy(self, page: int) -> bytearray:
        """Return the private copy of ``page``, creating it (and its twin) on demand.

        This is the software equivalent of the kernel's copy-on-write fault:
        the shared contents are duplicated and the pristine duplicate is
        retained as the twin for later diffing.
        """
        existing = self.private_pages.get(page)
        if existing is not None:
            return existing
        snapshot = self.shared.page_snapshot(page)
        self.twins[page] = snapshot
        copy = bytearray(snapshot)
        self.private_pages[page] = copy
        return copy

    def drop_private_state(self) -> None:
        """Discard every private copy and twin (done after a commit).

        After the commit the process must observe the shared state again, so
        keeping stale private copies would violate release consistency.
        """
        self.private_pages.clear()
        self.twins.clear()

    def dirty_pages(self) -> List[int]:
        """Return the ids of pages this process has privately modified."""
        return sorted(self.private_pages)

    # ------------------------------------------------------------------ #
    # Raw data movement (protection checks happen in the MMU, not here)
    # ------------------------------------------------------------------ #

    def read_bytes(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes at ``address`` preferring the private copies."""
        out = bytearray()
        remaining = size
        cursor = address
        page_size = self.shared.page_size
        while remaining > 0:
            page, offset = divmod(cursor, page_size)
            source = self.private_pages.get(page)
            if source is None:
                source = self.shared.page(page)
            if remaining == size and offset + size <= page_size:
                # The whole access lies in its first page (every word access does).
                return bytes(source[offset : offset + size])
            chunk = min(remaining, page_size - offset)
            out += source[offset : offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write ``data`` at ``address`` into private copy-on-write pages."""
        size = len(data)
        remaining = size
        cursor = address
        page_size = self.shared.page_size
        while remaining > 0:
            page, offset = divmod(cursor, page_size)
            target = self.private_pages.get(page)
            if target is None:
                target = self.ensure_private_copy(page)
            if remaining == size and offset + size <= page_size:
                # The whole access lies in its first page (every word access does).
                target[offset : offset + size] = data
                return
            chunk = min(remaining, page_size - offset)
            done = cursor - address
            target[offset : offset + chunk] = memoryview(data)[done : done + chunk]
            cursor += chunk
            remaining -= chunk
