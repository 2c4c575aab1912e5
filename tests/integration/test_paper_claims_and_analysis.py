"""Integration tests for the paper's qualitative claims and the case studies."""

import pytest

from repro.analysis.debugging import blame_threads, explain_memory_state
from repro.analysis.dift import PolicyAction, PolicyChecker, make_input_policy
from repro.analysis.numa import NUMATopology, placement_improvement
from repro.baselines.process_prov import collapse_to_process_granularity, precision_comparison
from repro.core.queries import lineage_of_pages
from repro.errors import PolicyViolationError
from repro.inspector.api import run_native, run_with_provenance
from repro.inspector.config import InspectorConfig
from repro.workloads.registry import get_workload

FAST = InspectorConfig(page_size=1024)


def paired_run(name, threads=4, size="small", config=FAST):
    workload = get_workload(name)
    dataset = workload.generate_dataset(size)
    native = run_native(workload, threads, dataset=dataset, config=config)
    traced = run_with_provenance(workload, threads, dataset=dataset, config=config)
    return native, traced


class TestPaperShapeClaims:
    """Scaled-down versions of the §VII headline claims (the full sweeps
    live in the benchmark harness)."""

    def test_linear_regression_runs_faster_than_pthreads(self):
        native, traced = paired_run("linear_regression", threads=8, size="medium",
                                    config=InspectorConfig())
        assert traced.stats.overhead_against(native.stats) < 1.0

    def test_blackscholes_overhead_is_reasonable(self):
        native, traced = paired_run("blackscholes", threads=8, size="medium",
                                    config=InspectorConfig())
        assert traced.stats.overhead_against(native.stats) < 3.0

    def test_canneal_is_an_outlier(self):
        native, traced = paired_run("canneal", threads=8, size="medium",
                                    config=InspectorConfig())
        assert traced.stats.overhead_against(native.stats) > 3.5

    def test_outlier_overhead_comes_from_threading_library(self):
        _, traced = paired_run("canneal", threads=8, size="medium", config=InspectorConfig())
        assert traced.stats.threading_seconds > traced.stats.pt_seconds

    def test_wellbehaved_overhead_dominated_by_pt(self):
        _, traced = paired_run("string_match", threads=8, size="medium",
                               config=InspectorConfig())
        # For well-behaved applications the hardware tracing is a large
        # fraction of the added cost (Figure 6's pattern).
        added = traced.stats.threading_seconds + traced.stats.pt_seconds
        assert traced.stats.pt_seconds > 0.25 * added

    def test_overhead_grows_with_thread_count(self):
        workload = get_workload("histogram")
        dataset = workload.generate_dataset("medium")
        config = InspectorConfig()
        overheads = []
        for threads in (2, 16):
            native = run_native(workload, threads, dataset=dataset, config=config)
            traced = run_with_provenance(workload, threads, dataset=dataset, config=config)
            overheads.append(traced.stats.overhead_against(native.stats))
        assert overheads[1] > overheads[0]

    def test_overhead_shrinks_with_larger_inputs(self):
        workload = get_workload("string_match")
        config = InspectorConfig()
        overheads = []
        for size in ("small", "large"):
            dataset = workload.generate_dataset(size)
            native = run_native(workload, 16, dataset=dataset, config=config)
            traced = run_with_provenance(workload, 16, dataset=dataset, config=config)
            overheads.append(traced.stats.overhead_against(native.stats))
        assert overheads[1] < overheads[0]

    def test_trace_is_compressible(self):
        from repro.compression.lz import compression_ratio

        _, traced = paired_run("histogram", threads=4, size="small")
        raw = traced.perf_data.raw_trace()
        assert len(raw) > 0
        result = compression_ratio(raw, sample_limit=64 * 1024)
        assert result.ratio > 2.0

    def test_log_size_correlates_with_branch_count(self):
        sizes = []
        branches = []
        for name in ("histogram", "matrix_multiply", "streamcluster"):
            _, traced = paired_run(name, threads=2, size="small")
            sizes.append(traced.stats.perf_log_bytes)
            branches.append(traced.stats.branch_instructions)
        # More branches -> more trace bytes, in the same order.
        order_by_branches = sorted(range(3), key=lambda i: branches[i])
        order_by_size = sorted(range(3), key=lambda i: sizes[i])
        assert order_by_branches == order_by_size


class TestDebuggingCaseStudy:
    def test_explanation_finds_writers_across_threads(self):
        _, traced = paired_run("histogram", threads=4)
        histogram_addr = None
        # The output shim recorded the histogram buckets as sources.
        histogram_addr = traced.outputs[0].source_pages[0] * FAST.page_size
        explanation = explain_memory_state(traced.cpg, [histogram_addr], page_size=FAST.page_size)
        assert explanation.direct_writers
        assert len(explanation.threads_involved) >= 4
        assert explanation.explanation >= explanation.direct_writers
        assert explanation.explanation == lineage_of_pages(traced.cpg, explanation.pages)

    def test_blame_threads_counts_every_worker(self):
        _, traced = paired_run("word_count", threads=4)
        pages = set(traced.outputs[0].source_pages)
        blame = blame_threads(traced.cpg, pages)
        assert len(blame) >= 4

    def test_summary_lines_render(self):
        _, traced = paired_run("histogram", threads=2)
        page = traced.outputs[0].source_pages[0]
        explanation = explain_memory_state(
            traced.cpg, [page * FAST.page_size], page_size=FAST.page_size
        )
        lines = explanation.summary_lines(traced.cpg)
        assert any("direct writers" in line for line in lines)


class TestDIFTCaseStudy:
    def test_outputs_derived_from_input_are_flagged(self):
        _, traced = paired_run("histogram", threads=4)
        policy = make_input_policy(traced.cpg, traced.backend.tracker.input_pages)
        report = PolicyChecker(policy).check(traced.cpg, traced.outputs)
        # The histogram is derived from the input, so the output must be tainted.
        assert not report.clean
        assert report.violations

    def test_enforcing_policy_raises(self):
        _, traced = paired_run("histogram", threads=2)
        policy = make_input_policy(traced.cpg, traced.backend.tracker.input_pages)
        with pytest.raises(PolicyViolationError):
            PolicyChecker(policy).check(traced.cpg, traced.outputs, enforce=True)

    def test_unrelated_taint_source_is_clean(self):
        _, traced = paired_run("histogram", threads=2)
        policy = make_input_policy(traced.cpg, [10**9], name="unused-page")
        report = PolicyChecker(policy).check(traced.cpg, traced.outputs)
        assert report.clean

    def test_warn_policy_does_not_raise(self):
        _, traced = paired_run("histogram", threads=2)
        policy = make_input_policy(
            traced.cpg, traced.backend.tracker.input_pages, action=PolicyAction.WARN
        )
        report = PolicyChecker(policy).check(traced.cpg, traced.outputs, enforce=True)
        assert report.violations


class TestNUMACaseStudy:
    def test_cpg_guided_placement_never_worse_than_first_touch(self):
        _, traced = paired_run("word_count", threads=4)
        topology = NUMATopology(nodes=2, hop_cost=2.0)
        report = placement_improvement(traced.cpg, topology)
        assert report["optimised_cost"] <= report["first_touch_cost"]
        assert 0.0 <= report["relative_saving"] <= 1.0

    def test_remote_fraction_decreases(self):
        _, traced = paired_run("histogram", threads=4)
        topology = NUMATopology(nodes=4, hop_cost=3.0)
        report = placement_improvement(traced.cpg, topology)
        assert report["optimised_remote_fraction"] <= report["first_touch_remote_fraction"]

    def test_single_node_topology_has_no_remote_traffic(self):
        _, traced = paired_run("histogram", threads=2)
        topology = NUMATopology(nodes=1)
        report = placement_improvement(traced.cpg, topology)
        assert report["first_touch_remote_fraction"] == 0.0
        assert report["relative_saving"] == 0.0


class TestProcessGranularityBaseline:
    def test_collapse_produces_one_node_per_thread(self):
        _, traced = paired_run("histogram", threads=4)
        coarse = collapse_to_process_granularity(traced.cpg)
        fine_threads = len([t for t in traced.cpg.threads() if t >= 0])
        assert len(coarse) == fine_threads + 1  # plus the input node

    def test_fine_grained_graph_is_more_precise(self):
        _, traced = paired_run("reverse_index", threads=4)
        comparison = precision_comparison(traced.cpg)
        assert comparison["fine_nodes"] > comparison["coarse_nodes"]
        assert comparison["precision_ratio"] >= 1.0
