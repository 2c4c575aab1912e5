"""Property tests: the segment frame round-trips any graph exactly.

Random segments -- arbitrary sub-computations (clocks, page sets, thunks,
branch records, sync metadata) plus arbitrary edges of every kind -- must
survive an encode/decode round trip with identical content, in a frame
whose bytes are fixed by the format (columnar payload, zlib level 6,
CRC32 of the body).  Corrupt frame bodies are rejected.
"""

import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cpg import EdgeKind
from repro.core.thunk import BranchRecord, SubComputation, Thunk
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.store.codecs import encode_payload
from repro.store.format import SEGMENT_MAGIC_PREFIX
from repro.store.segment import SegmentPayload, decode_segment, encode_segment

_pages = st.integers(min_value=0, max_value=2**40)
_small = st.integers(min_value=0, max_value=12)
_names = st.one_of(
    st.none(), st.sampled_from(["mutex_lock", "mutex_unlock", "barrier_wait", "thread_exit", ""])
)


@st.composite
def subcomputations(draw):
    """A batch of distinct sub-computations with rich payloads."""
    count = draw(st.integers(min_value=1, max_value=8))
    nodes = []
    identities = draw(
        st.lists(
            st.tuples(st.integers(min_value=-1, max_value=5), _small),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    for tid, index in identities:
        node = SubComputation(
            tid=tid,
            index=index,
            clock=VectorClock(
                draw(
                    st.dictionaries(
                        st.integers(min_value=-1, max_value=5),
                        st.integers(min_value=0, max_value=2**33),
                        max_size=4,
                    )
                )
            ),
            started_by=draw(_names),
            ended_by=draw(_names),
            faults=draw(_small),
        )
        node.read_set.update(draw(st.sets(_pages, max_size=5)))
        node.write_set.update(draw(st.sets(_pages, max_size=5)))
        for position in range(draw(st.integers(min_value=0, max_value=3))):
            branch = None
            if draw(st.booleans()):
                branch = BranchRecord(
                    site=draw(st.integers(min_value=0, max_value=2**45)),
                    taken=draw(st.booleans()),
                    is_indirect=draw(st.booleans()),
                )
            node.thunks.append(
                Thunk(
                    index=position,
                    start_branch=branch,
                    instructions=draw(st.integers(min_value=0, max_value=10**6)),
                )
            )
        nodes.append(node)
    return nodes


@st.composite
def edges_over(draw, nodes):
    """Edges whose endpoints mix in-segment and out-of-segment node ids."""
    ids = [node.node_id for node in nodes] + [(9, 999)]
    count = draw(st.integers(min_value=0, max_value=10))
    edges = []
    for _ in range(count):
        source = draw(st.sampled_from(ids))
        target = draw(st.sampled_from(ids))
        kind = draw(st.sampled_from([EdgeKind.CONTROL, EdgeKind.SYNC, EdgeKind.DATA]))
        if kind is EdgeKind.SYNC:
            attrs = {
                "object_id": draw(
                    st.one_of(st.none(), st.integers(min_value=-8, max_value=2**34))
                ),
                "operation": draw(_names) or "",
            }
        elif kind is EdgeKind.DATA:
            attrs = {"pages": frozenset(draw(st.sets(_pages, max_size=5)))}
        else:
            attrs = {}
        edges.append((source, target, kind, attrs))
    return edges


def canonical_nodes(payload):
    out = {}
    for node_id, node in payload.nodes.items():
        out[node_id] = (
            node.tid,
            node.index,
            tuple(sorted(node.clock.as_dict().items())),
            tuple(sorted(node.read_set)),
            tuple(sorted(node.write_set)),
            node.started_by,
            node.ended_by,
            node.faults,
            tuple(
                (
                    thunk.index,
                    thunk.instructions,
                    (
                        (thunk.start_branch.site, thunk.start_branch.taken, thunk.start_branch.is_indirect)
                        if thunk.start_branch is not None
                        else None
                    ),
                )
                for thunk in node.thunks
            ),
        )
    return out


def canonical_edges(payload):
    entries = []
    for source, target, kind, attrs in payload.edges:
        if kind is EdgeKind.SYNC:
            extra = (attrs.get("object_id"), attrs.get("operation", ""))
        elif kind is EdgeKind.DATA:
            extra = (tuple(sorted(attrs.get("pages", ()))),)
        else:
            extra = ()
        entries.append((source, target, kind.value, extra))
    return sorted(entries, key=repr)  # object_id may be None (unorderable)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_codecs_round_trip_identically(data):
    nodes = data.draw(subcomputations())
    edges = data.draw(edges_over(nodes))
    framed, raw_bytes = encode_segment(nodes, edges)
    # The frame bytes are fixed: magic, frame byte, raw length, CRC32 of
    # the body, and the columnar payload compressed at zlib level 6.
    raw = encode_payload(list(nodes), list(edges))
    body = zlib.compress(raw, 6)
    assert raw_bytes == len(raw) > 0
    assert framed == (
        SEGMENT_MAGIC_PREFIX
        + b"\x84"
        + len(raw).to_bytes(8, "little")
        + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
        + body
    )
    payload = decode_segment(framed)
    original = SegmentPayload.build(nodes, edges)
    assert canonical_nodes(payload) == canonical_nodes(original)
    assert canonical_edges(payload) == canonical_edges(original)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), cut=st.integers(min_value=1, max_value=64))
def test_compressed_codec_rejects_corrupt_bodies(data, cut):
    """A truncated or garbled frame fails loudly, never silently."""
    nodes = data.draw(subcomputations())
    framed, _ = encode_segment(nodes, [])
    truncated = framed[: max(13, len(framed) - cut)]
    with pytest.raises(StoreError):
        decode_segment(truncated)
    garbled = framed[:13] + bytes(reversed(framed[13:]))
    with pytest.raises(StoreError):
        decode_segment(garbled)
