"""Format 8's clock block: pinned by hand, sized by a count, and refused when malformed.

A segment stores its vector clocks as one base clock (the component-wise
minimum over the threads every node carries) plus, per node, a reference
byte and the components where the node differs from that reference: the
base (0) or the previous node of its own thread in the segment (1).

The frames here are built column by column from the documented payload
layout, so the tests pin the bytes the encoder writes and can hand the
decoder CRC-valid frames that no encoder would produce.
"""

import base64
import struct
import zlib

import pytest

from repro.core.cpg import EdgeKind
from repro.core.thunk import SubComputation
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore, StoreServer
from repro.store.codecs import decode_payload, encode_payload
from repro.store.format import SEGMENT_FRAME_BYTE, SEGMENT_MAGIC_PREFIX
from repro.store.segment import decode_segment

PAYLOAD_VERSION = 2


def q(values):
    """A little-endian 8-byte signed column."""
    values = list(values)
    return struct.pack(f"<{len(values)}q", *values)


def payload_bytes(
    tids,
    indexes,
    base_tids=(),
    base_values=(),
    references=None,
    diff_counts=None,
    diff_tids=(),
    diff_values=(),
    read_sizes=None,
    read_pages=(),
    write_sizes=None,
    write_pages=(),
    thunk_counts=None,
    data_edges=(),
    data_sizes=None,
    data_pages=(),
    base_count=None,
):
    """A payload with no strings, faults or thunks, written column by column.

    Count columns default to all zeros; ``data_edges`` are ``(source,
    target)`` pairs of DATA edges whose pages are ``data_sizes`` /
    ``data_pages``.
    """
    count = len(tids)
    zeros = [0] * count
    out = bytearray((PAYLOAD_VERSION, 0))  # version, empty string table
    out += struct.pack("<I", count)
    out += q(tids) + q(indexes) + q(zeros) + q(zeros) + q(zeros)
    out += struct.pack("<I", len(base_tids) if base_count is None else base_count)
    out += q(base_tids) + q(base_values)
    out += bytes(zeros if references is None else references)
    out += q(zeros if diff_counts is None else diff_counts) + q(diff_tids) + q(diff_values)
    out += q(zeros if read_sizes is None else read_sizes) + q(read_pages)
    out += q(zeros if write_sizes is None else write_sizes) + q(write_pages)
    out += q(zeros if thunk_counts is None else thunk_counts)  # no thunk columns follow
    out += struct.pack("<I", len(data_edges))
    out += q(value for source, _ in data_edges for value in source)
    out += q(value for _, target in data_edges for value in target)
    out += bytes([2] * len(data_edges))  # kind codes: DATA
    out += q([0] * len(data_edges) if data_sizes is None else data_sizes) + q(data_pages)
    return bytes(out)


def frame(raw):
    """Wrap a payload in a CRC-valid segment frame."""
    body = zlib.compress(raw, 6)
    return (
        SEGMENT_MAGIC_PREFIX
        + bytes((SEGMENT_FRAME_BYTE,))
        + len(raw).to_bytes(8, "little")
        + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
        + body
    )


def one_node(**overrides):
    """Node (1, 0) with clock {1: 1}, writing page 7, fed by a data edge."""
    columns = dict(
        tids=[1],
        indexes=[0],
        diff_counts=[1],
        diff_tids=[1],
        diff_values=[1],
        write_sizes=[1],
        write_pages=[7],
        data_edges=[((-1, 0), (1, 0))],
        data_sizes=[1],
        data_pages=[7],
    )
    columns.update(overrides)
    return frame(payload_bytes(**columns))


#: One CRC-valid frame per malformed column or clock field, with the
#: refusal it must produce.
MALFORMED = {
    "base-count": (one_node(base_count=2**32 - 1), "truncated int column"),
    "difference-count": (
        one_node(diff_counts=[-1], diff_tids=[], diff_values=[]),
        "negative length",
    ),
    "read-count": (one_node(read_sizes=[-1]), "negative length"),
    "write-count": (one_node(write_sizes=[-1], write_pages=[]), "negative length"),
    "thunk-count": (one_node(thunk_counts=[-1]), "negative length"),
    "data-edge-page-count": (one_node(data_sizes=[-1], data_pages=[]), "negative length"),
    "zero-base-component": (
        one_node(base_tids=[1], base_values=[0], diff_counts=[0], diff_tids=[], diff_values=[]),
        "not positive",
    ),
    "negative-difference-component": (one_node(diff_values=[-1]), "not positive"),
    "unknown-reference": (one_node(references=[2]), "unknown clock reference 2"),
    "reference-without-earlier-node": (one_node(references=[1]), "segment has none"),
}


def node(tid, index, clock):
    return SubComputation(tid=tid, index=index, clock=VectorClock(clock))


class TestClockBlockLayout:
    def test_hand_built_segment_matches_the_written_answer(self):
        # Thread 9 appears three times, thread 2 once.  Node (2, 5) lacks
        # thread 7, so the base holds only threads 2 and 9.  Node (9, 4)
        # extends (9, 3) and refers to it; node (9, 5) drops threads 1 and
        # 7, so it falls back to the base.  Thread ids and components are
        # given out of order: both are written sorted by thread id.
        nodes = [
            node(9, 3, {7: 2, 2: 5, 9: 3}),
            node(2, 5, {2: 5, 9: 2}),
            node(9, 4, {1: 1, 9: 4, 7: 2, 2: 6}),
            node(9, 5, {2: 6, 9: 5}),
        ]
        expected = payload_bytes(
            tids=[9, 2, 9, 9],
            indexes=[3, 5, 4, 5],
            base_tids=[2, 9],
            base_values=[5, 2],
            references=[0, 0, 1, 0],
            diff_counts=[2, 0, 3, 2],
            diff_tids=[7, 9, 1, 2, 9, 2, 9],
            diff_values=[2, 3, 1, 6, 4, 6, 5],
        )
        assert encode_payload(nodes, []) == expected
        decoded, edges = decode_payload(expected)
        assert edges == []
        assert [(n.node_id, n.clock) for n in decoded] == [(n.node_id, n.clock) for n in nodes]

    def test_format_7_payloads_are_refused(self):
        format_7 = bytes((1,)) + payload_bytes(tids=[1], indexes=[0])[1:]
        with pytest.raises(StoreError, match="unsupported binary segment payload version 1"):
            decode_payload(format_7)

    def test_builder_frame_decodes_to_the_intended_node(self):
        payload = decode_segment(one_node())
        (decoded,) = payload.nodes.values()
        assert decoded.node_id == (1, 0)
        assert decoded.clock == VectorClock({1: 1})
        assert decoded.write_set == {7} and not decoded.read_set
        assert payload.edges == [((-1, 0), (1, 0), EdgeKind.DATA, {"pages": frozenset({7})})]


class TestClockBlockSize:
    def test_stored_bytes_are_a_fraction_of_the_clock_pairs(self, tmp_path):
        # Format 7 spent 16 bytes on every clock component (a tid, value
        # pair); kmeans-16 starts 417 threads, so its clocks dominate.
        store_dir = str(tmp_path / "store")
        cpg = run_with_provenance("kmeans", num_threads=16, size="small", store_path=store_dir).cpg
        clock_pair_bytes = 16 * sum(len(n.clock.as_dict()) for n in cpg.subcomputations())
        segments = ProvenanceStore.open(store_dir).manifest.segments
        raw_bytes = sum(info.raw_bytes for info in segments)
        assert raw_bytes < clock_pair_bytes / 4, (raw_bytes, clock_pair_bytes)


class TestMalformedFrames:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_decode_refuses(self, name):
        framed, message = MALFORMED[name]
        with pytest.raises(StoreError, match=message):
            decode_segment(framed)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_writable_server_refuses_and_the_run_gains_no_segment(self, tmp_path, name):
        store_dir = str(tmp_path / "store")
        ProvenanceStore.create(store_dir)
        server = StoreServer(store_dir, writable=True)
        try:
            run = server.handle_request({"op": "begin_run", "workload": "x"})["result"]["run"]

            def append(framed):
                segment = base64.b64encode(framed).decode("ascii")
                return server.handle_request({"op": "append_epoch", "run": run, "segment": segment})

            framed, message = MALFORMED[name]
            reply = append(framed)
            assert reply["ok"] is False and message in reply["error"], reply
            assert ProvenanceStore.open(store_dir).manifest.segments_of_run(run) == []
            # The server still takes the well-formed epoch.
            assert append(one_node())["ok"] is True
        finally:
            server.close()
        store = ProvenanceStore.open(store_dir)
        assert len(store.manifest.segments_of_run(run)) == 1
        assert store.indexes_for(run).writers_of_page(7) == [(1, 0)]
