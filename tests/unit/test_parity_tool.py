"""``tools/parity.py``: records are stable, mask only ``created_at``, answer digests
follow the answers, and differences show."""

import importlib.util
import json
import pathlib
import tempfile

from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("parity", REPO_ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def stream(root, created_at):
    for seed in (3, 4):
        result = run_with_provenance(
            "histogram", 4, size="small", seed=seed, store_path=root, run_meta={"created_at": created_at}
        )
        result.store.close()


def test_a_configuration_records_the_same_digest_and_stats_twice():
    first, second = (parity.graphs(["histogram"], threads=(4,)) for _ in range(2))
    assert first == second
    assert set(first) == {"histogram-4"}
    assert len(first["histogram-4"]["cpg"]) == 64
    assert first["histogram-4"]["stats"]["context_switches"] > 0


def test_store_files_mask_only_created_at():
    with tempfile.TemporaryDirectory() as early, tempfile.TemporaryDirectory() as late:
        stream(early, "2020-01-01T00:00:00")
        stream(late, "2030-01-01T00:00:00")
        manifests = [json.loads(pathlib.Path(root, "MANIFEST.json").read_text()) for root in (early, late)]
        assert manifests[0] != manifests[1]
        files = parity.store_files(early)
        assert "MANIFEST.json" in files and len(files) > 1
        assert files == parity.store_files(late)
        manifest = pathlib.Path(late, "MANIFEST.json")
        manifest.write_text(manifest.read_text().replace('"workload": "histogram"', '"workload": "other"'))
        assert parity.differences(files, parity.store_files(late)) == [
            f"MANIFEST.json: {files['MANIFEST.json']!r} != {parity.store_files(late)['MANIFEST.json']!r}"
        ]


def test_answer_digest_is_stable_and_changes_with_one_answer():
    with tempfile.TemporaryDirectory() as root:
        stream(root, "2020-01-01T00:00:00")
        with ProvenanceStore.open(root) as store:
            answers = parity.stored_answers(store)
            assert parity.stored_answers(store) == answers  # warm repeat
        with ProvenanceStore.open(root) as store:
            assert parity.stored_answers(store) == answers  # cold reopen
    assert sorted(answers) == [1, 2]
    for kind in ("lineage", "taint", "taint_thread_state", "backward", "forward"):
        assert answers[1][kind], kind
    assert answers[1]["taint_input"][2] == "sweep"  # the input pages flood the run
    first = parity.digest(answers)
    assert len(first) == 64 and parity.digest(answers) == first
    page, lineage = next(iter(answers[2]["lineage"].items()))
    answers[2]["lineage"][page] = lineage[1:]
    assert parity.digest(answers) != first


def test_answer_digest_changes_with_one_thread_state_taint_answer():
    with tempfile.TemporaryDirectory() as root:
        stream(root, "2020-01-01T00:00:00")
        with ProvenanceStore.open(root) as store:
            answers = parity.stored_answers(store)
    first = parity.digest(answers)
    page, (nodes, pages) = next(iter(answers[1]["taint_thread_state"].items()))
    assert nodes
    answers[1]["taint_thread_state"][page] = [nodes[:-1], pages]
    assert parity.digest(answers) != first


def test_record_holds_a_server_fed_store_with_the_sink_fed_answers(monkeypatch):
    served = parity.served_store("histogram", threads=4)
    assert "MANIFEST.json" in served["files"] and len(served["files"]) > 1
    assert served["answers"] == parity.streamed_store("histogram", threads=4)["answers"]["cold"]
    monkeypatch.setattr(parity, "graphs", lambda workloads: {})
    monkeypatch.setattr(parity, "streamed_store", lambda: "streamed")
    monkeypatch.setattr(parity, "served_store", lambda: "served")
    assert parity.record() == {"graphs": {}, "store": "streamed", "served_store": "served"}


def test_differences_name_nested_and_one_sided_entries():
    first = {"graphs": {"a-4": {"cpg": "x", "stats": {"switches": 1}}}, "store": {"f": "1"}}
    second = {"graphs": {"a-4": {"cpg": "x", "stats": {"switches": 2}}}, "store": {"g": "1"}}
    assert parity.differences(first, second) == [
        "graphs.a-4.stats.switches: 1 != 2",
        "store.f: only in first",
        "store.g: only in second",
    ]
    assert parity.differences(first, first) == []
