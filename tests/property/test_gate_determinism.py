"""Property tests for the provenance gate: deterministic, order-blind.

A CI gate that flickers is worse than no gate, so these pin the three
properties ``check_against_baseline`` must hold for arbitrary recorded
executions: the verdict is a pure function of (baseline, candidate), it
does not depend on the order page sets were blessed in, and a run gated
against its own baseline always passes.  ``drift_report`` gets the same
treatment at the population level: run-group order must not matter.
"""

import os
import random
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.store import ProvenanceStore, bless_baseline, check_against_baseline, drift_report

from helpers.executions import random_cpg


def store_with_runs(seeds, segment_nodes=3):
    """A throwaway store holding one run per recorded-execution seed."""
    tmp = tempfile.mkdtemp(prefix="inspector-gate-")
    path = os.path.join(tmp, "store")
    store = ProvenanceStore.create(path)
    for seed in seeds:
        store.ingest(random_cpg(seed), segment_nodes=segment_nodes, workload=f"w{seed}")
    return store


class TestGateDeterminism:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=12)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_check_is_a_pure_function_of_its_inputs(self, seed, segment_nodes):
        # Runs 1 and 2 record the same execution; run 3 a different one.
        store = store_with_runs([seed, seed, seed + 1], segment_nodes=segment_nodes)
        with store:
            baseline = bless_baseline(store, run=1)
            clean = [check_against_baseline(store, baseline, run=2) for _ in range(2)]
            assert clean[0].to_dict() == clean[1].to_dict()
            drifty = [check_against_baseline(store, baseline, run=3) for _ in range(2)]
            assert drifty[0].to_dict() == drifty[1].to_dict()

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=12)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_page_set_order_never_changes_the_verdict(self, seed, shuffle_seed):
        store = store_with_runs([seed, seed + 1])
        with store:
            pages = sorted(store.indexes_for(1).pages_touched())
            page_sets = [[page] for page in pages]
            shuffled = list(page_sets)
            random.Random(shuffle_seed).shuffle(shuffled)
            ordered = bless_baseline(store, run=1, pages=page_sets, name="a")
            permuted = bless_baseline(store, run=1, pages=shuffled, name="a")
            # Canonicalization makes the blessed snapshot order-blind...
            assert ordered.to_dict() == permuted.to_dict()
            # ...and so the verdict is too.
            report_a = check_against_baseline(store, ordered, run=2)
            report_b = check_against_baseline(store, permuted, run=2)
            assert report_a.to_dict() == report_b.to_dict()

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=12)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_a_run_always_passes_its_own_baseline(self, seed, segment_nodes):
        store = store_with_runs([seed], segment_nodes=segment_nodes)
        with store:
            baseline = bless_baseline(store, run=1)
            report = check_against_baseline(store, baseline, run=1)
            assert report.ok, report.explain()
            assert report.drifted_pages == []

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=8)
    @given(st.integers(0, 10_000))
    def test_identical_reingest_passes_the_gate(self, seed):
        store = store_with_runs([seed, seed])
        with store:
            report = check_against_baseline(store, bless_baseline(store, run=1), run=2)
            assert report.ok, report.explain()


class TestDriftReportDeterminism:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=8)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_group_order_never_changes_the_report(self, seed_a, seed_b):
        store = store_with_runs([seed_a, seed_a, seed_b, seed_b])
        with store:
            forward = drift_report(store, [1, 2], [3, 4])
            scrambled = drift_report(store, [2, 1], [4, 3])
            assert forward == scrambled
            # And it is symmetric up to relabeling of the two sides.
            mirrored = drift_report(store, [3, 4], [1, 2])
            assert mirrored["ok"] == forward["ok"]
            assert mirrored["diverged_pages"] == forward["diverged_pages"]
