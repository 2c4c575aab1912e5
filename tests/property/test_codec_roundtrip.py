"""Property tests: the segment frame round-trips any graph exactly.

Random segments -- arbitrary sub-computations (clocks, page sets, thunks,
branch records, sync metadata) plus arbitrary edges of every kind -- must
survive an encode/decode round trip with identical content, in a frame
whose bytes are fixed by the format (columnar payload, zlib level 6,
CRC32 of the body) and equal each time the same batch is encoded.  The
clocks exercise every shape the clock block stores: a shared base with
per-node overrides, threads whose successive nodes extend the previous
clock, and threads that drop a component.  Corrupt frame bodies are
rejected, and registry runs decode with every clock equal through the
sink, ``ingest`` and a whole-run ``compact``.
"""

import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cpg import EdgeKind
from repro.core.thunk import BranchRecord, SubComputation, Thunk
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore
from repro.store.codecs import encode_payload
from repro.store.format import SEGMENT_MAGIC_PREFIX
from repro.store.segment import SegmentPayload, decode_segment, encode_segment

_pages = st.integers(min_value=0, max_value=2**40)
_small = st.integers(min_value=0, max_value=12)
_names = st.one_of(
    st.none(), st.sampled_from(["mutex_lock", "mutex_unlock", "barrier_wait", "thread_exit", ""])
)
_clock_tids = st.integers(min_value=-1, max_value=600)
_clock_values = st.integers(min_value=1, max_value=2**40)
_overrides = st.dictionaries(_clock_tids, _clock_values, max_size=4)


@st.composite
def clocks_for(draw, tids):
    """One clock per node of thread ``tids[i]``, in segment order.

    Each clock starts from a shared base, from the previous clock of its
    thread grown component-wise (an extension), or from that clock with
    one component dropped, and then takes a few overrides.
    """
    base = draw(st.dictionaries(_clock_tids, _clock_values, max_size=8))
    previous = {}
    clocks = []
    for tid in tids:
        shape = draw(st.sampled_from(("base", "extend", "drop")))
        clock = dict(base if shape == "base" else previous.get(tid, base))
        if shape == "extend":
            clock = {key: value + draw(st.integers(0, 3)) for key, value in clock.items()}
        elif shape == "drop" and clock:
            del clock[draw(st.sampled_from(sorted(clock)))]
        clock.update(draw(_overrides))
        previous[tid] = clock
        clocks.append(VectorClock(clock))
    return clocks


@st.composite
def subcomputations(draw):
    """A batch of distinct sub-computations with rich payloads."""
    count = draw(st.integers(min_value=1, max_value=12))
    nodes = []
    identities = draw(
        st.lists(
            st.tuples(st.integers(min_value=-1, max_value=5), _small),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    clocks = draw(clocks_for([tid for tid, _ in identities]))
    for (tid, index), clock in zip(identities, clocks):
        node = SubComputation(
            tid=tid,
            index=index,
            clock=clock,
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
    assert encode_segment(nodes, edges)[0] == framed
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


def assert_clocks_equal(store, cpg):
    loaded = store.load_cpg()
    assert sorted(loaded.nodes()) == sorted(cpg.nodes())
    for node_id in cpg.nodes():
        assert loaded.subcomputation(node_id).clock == cpg.subcomputation(node_id).clock, node_id


@pytest.mark.parametrize(
    "workload, threads", [("kmeans", 16), ("reverse_index", 16), ("canneal", 4)]
)
def test_registry_clocks_round_trip_through_every_write_path(tmp_path, workload, threads):
    """Sink epochs, ``ingest`` and a whole-run ``compact`` keep every clock."""
    sunk = str(tmp_path / "sink")
    cpg = run_with_provenance(workload, num_threads=threads, size="small", store_path=sunk).cpg
    store = ProvenanceStore.open(sunk)
    assert_clocks_equal(store, cpg)
    ingested = ProvenanceStore.create(str(tmp_path / "ingest"))
    ingested.ingest(cpg)
    assert_clocks_equal(ingested, cpg)
    store.compact(segment_nodes=len(cpg.nodes()))
    assert len(store.manifest.segments) == 1
    assert_clocks_equal(ProvenanceStore.open(sunk), cpg)
