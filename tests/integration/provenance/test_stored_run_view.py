"""The queries on a stored run: racy pairs out of core, the gate, the case studies.

:mod:`repro.core.queries` runs on a run view, the in-memory CPG or a
stored run (``StoreQueryEngine.run_view``).  Racy pairs on a stored run
read only the segments that hold candidate nodes, so the gate's ``bless``
and ``check`` never load a whole run: on a sink-streamed kmeans-16 run the
candidates live in the 20 node segments of its 40 (the rest are the
edge-only segments ``finish`` appends), on word_count-16 in 2 of 4.
Without a candidate's record a race can be neither confirmed nor ruled
out, so a quarantined candidate segment makes ``check`` raise.  So does
any other segment the gate's lineage and taint answers would skip (the
store's queries degrade there): a gate must not bless or judge a partial
answer.  On all 24 registry configurations (12 workloads, 4 and 16
threads) the stored answer equals the in-memory one, and the two case
studies give the same report on either view.
"""

import pytest

from repro.analysis.debugging import explain_memory_state
from repro.analysis.dift import PolicyChecker, make_input_policy
from repro.core.queries import find_racy_pairs
from repro.errors import CorruptSegmentError
from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore, StoreQueryEngine, bless_baseline, check_against_baseline
from repro.workloads.registry import list_workloads

#: Racy pairs of the two out-of-core runs (small size, default seed).
RACY_PAIRS = {"kmeans": 3120, "word_count": 240}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """``traced(workload, threads)``: a small run sink-streamed into one shared store."""
    path = str(tmp_path_factory.mktemp("views") / "store")
    runs = {}

    def get(workload, threads):
        if (workload, threads) not in runs:
            runs[workload, threads] = run_with_provenance(
                workload, threads, size="small", store_path=path
            )
        return runs[workload, threads]

    get.path = path
    return get


def cold_handle(path):
    store = ProvenanceStore.open(path)
    store.clear_cache()
    store.reset_read_stats()
    return store


@pytest.mark.parametrize("threads", [4, 16])
@pytest.mark.parametrize("workload", list_workloads())
def test_stored_racy_pairs_equal_memory(traced, workload, threads):
    result = traced(workload, threads)
    engine = StoreQueryEngine(ProvenanceStore.open(traced.path))
    stored = find_racy_pairs(engine.run_view(result.store_run_id))
    assert stored == find_racy_pairs(result.cpg)


@pytest.mark.parametrize("workload", sorted(RACY_PAIRS))
def test_racy_pairs_read_only_the_candidates_segments(traced, workload):
    run = traced(workload, 16).store_run_id
    store = cold_handle(traced.path)
    pairs = find_racy_pairs(StoreQueryEngine(store).run_view(run))
    assert len(pairs) == RACY_PAIRS[workload]
    assert 0 < store.read_stats.segments_read < len(store.manifest.segments_of_run(run))


@pytest.mark.parametrize("workload", sorted(RACY_PAIRS))
def test_gate_never_loads_the_whole_run(traced, workload, monkeypatch):
    run = traced(workload, 16).store_run_id
    store = cold_handle(traced.path)

    def refuse(*args, **kwargs):
        raise AssertionError("the gate materialized a whole run")

    monkeypatch.setattr(ProvenanceStore, "load_cpg", refuse)
    page = min(store.indexes_for(run).page_writers)
    baseline = bless_baseline(store, run=run, pages=[[page]], include_racy=True)
    assert baseline.racy_pair_count == RACY_PAIRS[workload]
    report = check_against_baseline(store, baseline, run=run)
    assert report.racy_checked and report.ok


def test_check_raises_when_a_candidate_segment_is_quarantined(traced):
    run = traced("word_count", 16).store_run_id
    store = ProvenanceStore.open(traced.path)
    baseline = bless_baseline(store, run=run, pages=[[min(store.indexes_for(run).page_writers)]])
    candidate = find_racy_pairs(StoreQueryEngine(store).run_view(run))[0][0]
    store.quarantine_segment(store.indexes_for(run).segment_of(candidate), "damaged for the test")
    with pytest.raises(CorruptSegmentError):
        check_against_baseline(store, baseline, run=run)


def test_gate_refuses_answers_that_skip_an_edge_segment(traced):
    # The edge-only segments hold no candidate node, but lineage walks
    # the data edges they hold.
    run = traced("word_count", 16).store_run_id
    store = ProvenanceStore.open(traced.path)
    baseline = bless_baseline(store, run=run)
    indexes = store.indexes_for(run)
    edge_only = {info.segment_id for info in store.manifest.segments_of_run(run)}
    edge_only -= set(indexes.node_segments.values())
    assert edge_only
    for segment_id in edge_only:
        store.quarantine_segment(segment_id, "damaged for the test")
    with pytest.raises(CorruptSegmentError):
        bless_baseline(store, run=run)
    with pytest.raises(CorruptSegmentError):
        check_against_baseline(store, baseline, run=run, include_racy=False)


def test_case_studies_on_a_stored_run_equal_memory(traced):
    result = traced("kmeans", 4)
    view = StoreQueryEngine(ProvenanceStore.open(traced.path)).run_view(result.store_run_id)
    cpg = result.cpg
    page_size = result.backend.config.page_size
    for page in sorted(cpg.page_writers):
        addresses = [page * page_size]
        in_memory = explain_memory_state(cpg, addresses, page_size=page_size)
        stored = explain_memory_state(view, addresses, page_size=page_size)
        assert stored == in_memory
        assert stored.summary_lines(view) == in_memory.summary_lines(cpg)
    checker = PolicyChecker(make_input_policy(cpg, result.backend.tracker.input_pages))
    report = checker.check(view, result.outputs)
    assert report == checker.check(cpg, result.outputs)
    assert report.violations
