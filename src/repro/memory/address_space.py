"""The shared, file-backed portion of the simulated address space.

INSPECTOR maps the globals and heap regions of the application onto memory
mapped files so that the simulated processes (which stand in for threads)
can exchange data at synchronization points.  This module is that shared
backing store: a sparse collection of pages addressed by page id, plus the
region map that says which addresses are valid and which of them are
tracked for provenance.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional

from repro.errors import InvalidAddressError
from repro.memory.layout import (
    DEFAULT_PAGE_SIZE,
    Region,
    default_regions,
    page_id,
    page_offset,
    pages_spanned,
)

_WORD_STRUCT = struct.Struct("<q")
_DOUBLE_STRUCT = struct.Struct("<d")

#: Size in bytes of the machine word used by :meth:`SharedAddressSpace.read_word`.
WORD_SIZE = 8


class SharedAddressSpace:
    """Sparse byte-addressable shared memory made of fixed-size pages.

    This is the "shared-memory mapped file" of the paper: the single
    authoritative copy of the globals/heap/input regions.  Simulated
    processes never write it directly during a sub-computation -- they
    write their private copy-on-write views and merge the deltas here at
    synchronization points (see :mod:`repro.memory.shared_commit`).

    Args:
        page_size: Page size in bytes.
        regions: Optional explicit region list; defaults to the standard
            globals/heap/input/stack layout.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        regions: Optional[Iterable[Region]] = None,
    ) -> None:
        self.page_size = page_size
        self.regions: List[Region] = list(regions) if regions is not None else default_regions()
        self._pages: Dict[int, bytearray] = {}

    # ------------------------------------------------------------------ #
    # Region handling
    # ------------------------------------------------------------------ #

    def add_region(self, region: Region) -> None:
        """Register an additional region (for example an extra mmap)."""
        self.regions.append(region)

    def region_of(self, address: int) -> Region:
        """Return the region containing ``address``.

        Raises:
            InvalidAddressError: If the address is outside every region.
        """
        for region in self.regions:
            if region.base <= address < region.base + region.size:
                return region
        raise InvalidAddressError(f"address {address:#x} is not mapped")

    def region_named(self, name: str) -> Region:
        """Return the region called ``name``.

        Raises:
            InvalidAddressError: If no region has that name.
        """
        for region in self.regions:
            if region.name == name:
                return region
        raise InvalidAddressError(f"no region named {name!r}")

    def is_tracked(self, address: int) -> bool:
        """Return ``True`` if accesses to ``address`` are provenance-tracked."""
        return self.region_of(address).tracked

    def check_range(self, address: int, size: int) -> Region:
        """Validate that ``[address, address + size)`` lies inside one region."""
        region = self.region_of(address)
        if size > 0 and address + size > region.base + region.size:
            raise InvalidAddressError(
                f"access of {size} bytes at {address:#x} crosses the end of region "
                f"{region.name!r}"
            )
        return region

    # ------------------------------------------------------------------ #
    # Page-level access (used by the COW views and the commit protocol)
    # ------------------------------------------------------------------ #

    def page(self, page: int) -> bytearray:
        """Return the backing bytes of ``page``, creating a zero page on demand."""
        existing = self._pages.get(page)
        if existing is None:
            existing = bytearray(self.page_size)
            self._pages[page] = existing
        return existing

    def page_snapshot(self, page: int) -> bytes:
        """Return an immutable copy of ``page`` (used to create twins)."""
        return bytes(self.page(page))

    def materialized_pages(self) -> List[int]:
        """Return the ids of pages that have been materialized so far."""
        return sorted(self._pages)

    # ------------------------------------------------------------------ #
    # Direct byte access (used by the native baseline and by the commit)
    # ------------------------------------------------------------------ #

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``address`` from the shared copy."""
        self.check_range(address, size)
        out = bytearray()
        remaining = size
        cursor = address
        while remaining > 0:
            page = page_id(cursor, self.page_size)
            offset = page_offset(cursor, self.page_size)
            chunk = min(remaining, self.page_size - offset)
            out += self.page(page)[offset : offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address`` into the shared copy."""
        self.check_range(address, len(data))
        cursor = address
        view = memoryview(data)
        while view.nbytes > 0:
            page = page_id(cursor, self.page_size)
            offset = page_offset(cursor, self.page_size)
            chunk = min(view.nbytes, self.page_size - offset)
            self.page(page)[offset : offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]

    def read_word(self, address: int) -> int:
        """Read a signed 64-bit little-endian integer at ``address``."""
        return _WORD_STRUCT.unpack(self.read(address, WORD_SIZE))[0]

    def write_word(self, address: int, value: int) -> None:
        """Write a signed 64-bit little-endian integer at ``address``."""
        self.write(address, _WORD_STRUCT.pack(value))

    def read_double(self, address: int) -> float:
        """Read a 64-bit IEEE-754 double at ``address``."""
        return _DOUBLE_STRUCT.unpack(self.read(address, WORD_SIZE))[0]

    def write_double(self, address: int, value: float) -> None:
        """Write a 64-bit IEEE-754 double at ``address``."""
        self.write(address, _DOUBLE_STRUCT.pack(value))

    # ------------------------------------------------------------------ #
    # Convenience helpers
    # ------------------------------------------------------------------ #

    def pages_for(self, address: int, size: int) -> List[int]:
        """Return the page ids spanned by an access (validated)."""
        self.check_range(address, size)
        return pages_spanned(address, size, self.page_size)

    def load_input(self, data: bytes, offset: int = 0) -> int:
        """Copy ``data`` into the input region and return its base address.

        This models the ``mmap`` input shim of the paper: the input file is
        mapped into a dedicated region so that the data flow from the input
        is recorded through the same page-protection machinery.
        """
        base = self.region_named("input").base + offset
        self.write(base, data)
        return base
