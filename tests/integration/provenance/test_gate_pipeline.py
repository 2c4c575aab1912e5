"""The baseline gate, end to end: bless a run, gate later runs against it.

The CI shape the gate exists for: a blessed ("known good") run's
provenance fingerprints persist inside the store, a provenance-identical
rerun passes ``check`` with exit 0, and an injected configuration change
(a different traced thread count) fails it with a nonzero exit and a
page-level diff naming exactly the pages whose lineage moved.
"""

import json
import os

import pytest

from repro.errors import StoreError
from repro.inspector.api import run_with_provenance
from repro.store import (
    ProvenanceBaseline,
    ProvenanceStore,
    StoreQueryEngine,
    bless_baseline,
    check_against_baseline,
    list_baselines,
)
from repro.store.__main__ import main as store_cli
from repro.store.gate import baselines_dir, resolve_baseline
from repro.store.query import diff_lineage

from tests.unit.test_store import build_example_cpg


@pytest.fixture(scope="module")
def gated_store(tmp_path_factory):
    """A store with a blessed run, an identical rerun, and a divergent run.

    Runs 1 and 2 are the same workload/threads/seed (provenance-identical
    by the determinism the pipeline guarantees); run 3 traces the same
    workload with a different thread count -- the injected config change
    the gate must catch.
    """
    path = str(tmp_path_factory.mktemp("gate") / "store")
    blessed = run_with_provenance(
        "histogram", num_threads=2, size="small", seed=7, store_path=path
    )
    rerun = run_with_provenance(
        "histogram", num_threads=2, size="small", seed=7, store_path=path
    )
    diverged = run_with_provenance(
        "histogram", num_threads=4, size="small", seed=7, store_path=path
    )
    return {
        "path": path,
        "blessed": blessed.store_run_id,
        "rerun": rerun.store_run_id,
        "diverged": diverged.store_run_id,
    }


class TestBless:
    def test_bless_persists_under_index_baselines(self, gated_store):
        with ProvenanceStore.open(gated_store["path"]) as store:
            baseline = bless_baseline(store, run=gated_store["blessed"], name="good")
            saved = baseline.save(store)
            assert saved == os.path.join(baselines_dir(store), "good.json")
            assert os.path.isfile(saved)
            assert "good" in list_baselines(store)
            # Every page the run touched got a fingerprint.
            touched = store.indexes_for(gated_store["blessed"]).pages_touched()
            assert {pages[0] for pages in baseline.page_sets} == set(touched)

    def test_baseline_roundtrips_through_disk(self, gated_store):
        with ProvenanceStore.open(gated_store["path"]) as store:
            blessed = bless_baseline(store, run=gated_store["blessed"], name="rt")
            blessed.save(store)
            loaded = ProvenanceBaseline.load(store, "rt")
            assert loaded.to_dict() == blessed.to_dict()

    def test_fsck_stays_clean_with_baselines_on_disk(self, gated_store):
        # The baselines directory must not read as orphan files to the
        # integrity machinery.
        from repro.store import verify_store

        report = verify_store(gated_store["path"])
        assert report["ok"], report["problems"]


class TestCheck:
    def test_identical_rerun_passes(self, gated_store):
        with ProvenanceStore.open(gated_store["path"]) as store:
            report = check_against_baseline(
                store, gated_store["blessed"], run=gated_store["rerun"]
            )
            assert report.ok
            assert report.drifted_pages == []

    def test_run_against_its_own_baseline_passes(self, gated_store):
        with ProvenanceStore.open(gated_store["path"]) as store:
            report = check_against_baseline(
                store, gated_store["blessed"], run=gated_store["blessed"]
            )
            assert report.ok

    def test_divergent_run_fails_with_page_level_diff(self, gated_store):
        with ProvenanceStore.open(gated_store["path"]) as store:
            report = check_against_baseline(
                store, gated_store["blessed"], run=gated_store["diverged"]
            )
            assert not report.ok
            assert report.drifted_pages
            # The reported pages are exactly those whose lineage differs
            # between the blessed and candidate runs.
            engine = StoreQueryEngine(store)
            expected = []
            touched = sorted(store.indexes_for(gated_store["blessed"]).pages_touched())
            for page in touched:
                diff = diff_lineage(
                    gated_store["blessed"],
                    gated_store["diverged"],
                    (page,),
                    engine.lineage_of_pages((page,), run=gated_store["blessed"]),
                    engine.lineage_of_pages((page,), run=gated_store["diverged"]),
                )
                if not diff.identical:
                    expected.append(page)
            lineage_drifted = [
                entry.pages[0]
                for entry in report.drifted_entries
                if entry.only_baseline or entry.only_candidate
            ]
            assert lineage_drifted == expected
            # And the human explanation names the drift.
            text = "\n".join(report.explain())
            assert "DRIFTED" in text

    def test_check_by_run_id_without_prior_bless(self, gated_store):
        # `check --baseline <run>` with nothing persisted blesses the run
        # on the fly.
        with ProvenanceStore.open(gated_store["path"]) as store:
            resolved = resolve_baseline(store, str(gated_store["blessed"]))
            assert resolved.run_id == gated_store["blessed"]
            report = check_against_baseline(
                store, str(gated_store["blessed"]), run=gated_store["rerun"]
            )
            assert report.ok

    def test_missing_baseline_is_an_error(self, gated_store):
        with ProvenanceStore.open(gated_store["path"]) as store:
            with pytest.raises(StoreError):
                check_against_baseline(store, "no-such-baseline")


class TestCheckCli:
    def test_cli_bless_then_clean_check_exits_zero(self, gated_store, capsys):
        path = gated_store["path"]
        assert (
            store_cli(
                ["bless", path, "--run", str(gated_store["blessed"]), "--name", "ci"]
            )
            == 0
        )
        assert "blessed run" in capsys.readouterr().out
        code = store_cli(
            ["check", path, "--baseline", "ci", "--run", str(gated_store["rerun"])]
        )
        assert code == 0
        assert "provenance matches" in capsys.readouterr().out

    def test_cli_check_divergence_exits_nonzero_with_diff(self, gated_store, capsys):
        path = gated_store["path"]
        store_cli(["bless", path, "--run", str(gated_store["blessed"]), "--name", "ci2"])
        capsys.readouterr()
        code = store_cli(
            ["check", path, "--baseline", "ci2", "--run", str(gated_store["diverged"])]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DRIFTED" in out
        assert "pages" in out

    def test_cli_check_json_reports_drift_machine_readably(self, gated_store, capsys):
        path = gated_store["path"]
        code = store_cli(
            [
                "check",
                path,
                "--baseline",
                str(gated_store["blessed"]),
                "--run",
                str(gated_store["diverged"]),
                "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["baseline_run"] == gated_store["blessed"]
        assert payload["candidate_run"] == gated_store["diverged"]
        assert payload["drifted_pages"]
        assert payload["entries"]

    def test_cli_check_unknown_baseline_exits_one(self, gated_store, capsys):
        code = store_cli(["check", gated_store["path"], "--baseline", "nope"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def racy_store(tmp_path_factory):
    """A store holding one word_count-4 run, which has racy pairs."""
    path = str(tmp_path_factory.mktemp("racy") / "store")
    run_with_provenance("word_count", num_threads=4, size="small", seed=3, store_path=path)
    return path


class TestRacyPairGate:
    def test_racy_baseline_roundtrips_through_disk(self, racy_store):
        with ProvenanceStore.open(racy_store) as store:
            blessed = bless_baseline(store, run=1, name="racy-rt")
            assert blessed.racy_pairs
            blessed.save(store)
            loaded = ProvenanceBaseline.load(store, "racy-rt")
            assert loaded.to_dict() == blessed.to_dict()

    def test_cli_checks_a_racy_run_against_its_own_persisted_baseline(self, racy_store, capsys):
        assert store_cli(["bless", racy_store, "--run", "1", "--name", "golden"]) == 0
        capsys.readouterr()
        assert store_cli(["check", racy_store, "--baseline", "golden", "--run", "1"]) == 0
        assert "provenance matches" in capsys.readouterr().out

    def test_racy_pair_appearing_fails_the_gate(self, tmp_path):
        path = str(tmp_path / "racy-store")
        with ProvenanceStore.create(path) as store:
            store.ingest(build_example_cpg(), segment_nodes=3, workload="plain")
            store.ingest(build_example_cpg(racy=True), segment_nodes=3, workload="racy")
            baseline = bless_baseline(store, run=1, name="no-races")
            assert baseline.racy_pairs == []  # the blessed run has none
            baseline.save(store)
            report = check_against_baseline(store, "no-races", run=2)
            assert not report.ok
            assert report.racy_added  # new racy pair(s) surfaced
            text = "\n".join(report.explain())
            assert "racy" in text
