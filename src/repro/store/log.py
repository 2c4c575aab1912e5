"""The append-only segment log: the per-flush commit record.

Rewriting ``MANIFEST.json`` on every flush would cost O(#segments) per
flush.  Instead each flush appends one framed record to ``segments.log``;
the manifest is a periodic *checkpoint* and opening the store replays the
committed log tail on top of it.  A record still grows with the number of
runs, since it carries the whole run table (ROADMAP item 6).

**Record framing.**  Each record is::

    +--------+----------------+---------------+------------------+
    | "ILOG" | length (4B LE) | crc32 (4B LE) | JSON payload     |
    +--------+----------------+---------------+------------------+

The payload is one UTF-8 JSON object carrying a monotonically increasing
``seq`` plus the flush's manifest delta (the segment entries sealed since
the last durable point, the whole run table, and the store counters).
The CRC and length make a torn tail *detectable*: replay stops at the
first frame that is short, mis-tagged, corrupt, or fails to parse, and
the next append truncates the file back to the last valid offset before
writing.  That is the whole crash-recovery story of an
append: either the record is complete (the flush committed) or it is a
tear (the flush never happened; the segment files it would have named are
orphans, swept by the next maintenance operation).

**Checkpointing.**  A checkpoint folds every applied record into a fresh
manifest (recording its ``log_seq``) and then resets the log.  The
manifest rename is the commit point; a crash between it and the reset is
harmless because replay skips records whose ``seq`` the checkpoint
already covers.  Sequence numbers are minted from a monotonic counter and
never reused -- the same recovery argument as segment ids.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Iterator, List, Optional

from repro.errors import StoreError

from repro.store import files

#: Frame magic of one segment-log record.
LOG_RECORD_MAGIC = b"ILOG"

_LENGTH_BYTES = 4
_CRC_BYTES = 4
_HEADER_SIZE = len(LOG_RECORD_MAGIC) + _LENGTH_BYTES + _CRC_BYTES

#: Refuse to trust absurd frame lengths (a corrupt header would otherwise
#: make replay try to skip gigabytes); no sane flush record approaches it.
_MAX_RECORD_BYTES = 256 * 1024 * 1024


def encode_log_record(payload: dict) -> bytes:
    """Frame one record payload (JSON object) for appending."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return (
        LOG_RECORD_MAGIC
        + len(body).to_bytes(_LENGTH_BYTES, "little")
        + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(_CRC_BYTES, "little")
        + body
    )


class SegmentLog:
    """One store's ``segments.log``: framed, append-only commit records.

    The class is deliberately dumb about *content* -- it frames, appends,
    scans, and truncates; what a record means is the store's business
    (:meth:`ProvenanceStore.flush` writes them,
    ``ProvenanceStore.open`` replays them).

    Attributes:
        path: Absolute path of the log file (may not exist yet).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Byte offset of the end of the last valid record, established by
        #: :meth:`replay`; ``None`` until the file has been scanned.
        self._valid_bytes: Optional[int] = None
        #: Records seen by the last :meth:`replay` plus appends since.
        self._records = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def exists(self) -> bool:
        return os.path.exists(self.path)

    @property
    def record_count(self) -> int:
        """Valid records currently in the file (scan + appends since)."""
        if self._valid_bytes is None:
            self.scan()
        return self._records

    @property
    def valid_bytes(self) -> int:
        """Bytes of the file covered by valid records (the commit horizon)."""
        if self._valid_bytes is None:
            self.scan()
        return self._valid_bytes or 0

    def size_bytes(self) -> int:
        """Raw on-disk size (including any torn tail)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def scan(self) -> List[dict]:
        """Parse every valid record, stopping at the first torn frame.

        A missing file is an empty log.  Establishes the valid-byte
        horizon the next :meth:`append` truncates to, so a torn tail can
        never be followed by live records.
        """
        records: List[dict] = []
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._valid_bytes = 0
            self._records = 0
            return records
        offset = 0
        while True:
            record, end = self._parse_one(data, offset)
            if record is None:
                break
            records.append(record)
            offset = end
        self._valid_bytes = offset
        self._records = len(records)
        return records

    @staticmethod
    def _parse_one(data: bytes, offset: int) -> "tuple[Optional[dict], int]":
        """Parse the record at ``offset``; ``(None, offset)`` on a tear."""
        header_end = offset + _HEADER_SIZE
        if header_end > len(data):
            return None, offset
        if data[offset : offset + len(LOG_RECORD_MAGIC)] != LOG_RECORD_MAGIC:
            return None, offset
        length = int.from_bytes(
            data[offset + len(LOG_RECORD_MAGIC) : offset + len(LOG_RECORD_MAGIC) + _LENGTH_BYTES],
            "little",
        )
        if length > _MAX_RECORD_BYTES:
            return None, offset
        crc = int.from_bytes(data[header_end - _CRC_BYTES : header_end], "little")
        body_end = header_end + length
        if body_end > len(data):
            return None, offset
        body = data[header_end:body_end]
        if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            return None, offset
        try:
            record = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None, offset
        if not isinstance(record, dict):
            return None, offset
        return record, body_end

    def replay(self) -> Iterator[dict]:
        """Yield every valid record in append order (a fresh scan)."""
        return iter(self.scan())

    def verify(self) -> dict:
        """Re-scan the file and report its framing integrity (fsck's view).

        Returns ``{"records", "valid_bytes", "torn_bytes"}``.
        ``torn_bytes`` counts file bytes past the last valid record: a
        tail torn by a crashed append (or trailing corruption).  Replay
        already ignores those bytes and the next append truncates them,
        so a torn tail is a warning, not damage.
        """
        records = len(self.scan())
        valid = self._valid_bytes or 0
        return {
            "records": records,
            "valid_bytes": valid,
            "torn_bytes": max(0, self.size_bytes() - valid),
        }

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def append(self, payload: dict) -> int:
        """Append one framed record; returns its end offset.

        The first append after opening (or after a crash) truncates any
        torn tail back to the last valid record, so the new record lands
        on the commit horizon.  The frame is written with a single
        ``write`` call and fsynced before returning -- the record is
        either wholly in the file or wholly absent, and it survives a
        power loss once this method returns (the durability barrier the
        remote-ingest reply is documented to be).
        """
        if self._valid_bytes is None:
            self.scan()
        frame = encode_log_record(payload)
        valid = self._valid_bytes or 0
        size = self.size_bytes()
        if size < valid:
            raise StoreError(
                f"segment log {self.path} shrank below its commit horizon "
                f"({size} < {valid} bytes); refusing to append"
            )
        # A torn tail (or stale garbage) past the commit horizon is cut
        # before the frame lands.
        files.append(self.path, frame, valid)
        self._valid_bytes = valid + len(frame)
        self._records += 1
        return self._valid_bytes

    def reset(self) -> None:
        """Truncate the log to empty (after a checkpoint committed).

        Written as a fresh empty file through :func:`files.replace`; a
        crash before it leaves stale records behind, which replay skips
        by sequence number -- the reset only reclaims space.
        """
        files.replace(self.path, b"")
        self._valid_bytes = 0
        self._records = 0
