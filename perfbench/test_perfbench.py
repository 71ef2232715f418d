"""Tests of the benchmark itself: generators, names, output checks, tiny runs.

They never change platknot; wrong answers are fed to the checkers directly.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402

worker.import_platknot()

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads(worker.GOLDEN.read_text())

# Layers each workload must reach (the span names it is meant to move).
EXPECTED_SPANS = {
    "canon_catalogue": ["plat.parse", "plat.validate", "canonical.canonical_form",
                        "canonical.apply", "canonical.equivalent", "canonical.symmetry_group",
                        "twobridge.schubert_pair"],
    "cli_session": ["cli.main", "plat.parse", "plat.to_braid_word", "plat.braid_closure",
                    "braid.compose", "braid.free_reduce", "braid.inverse",
                    "hilden.random_hilden_element", "hilden.coset_consistency",
                    "invariants.determinant", "canonical.equivalent"],
}


@pytest.fixture
def workdir():
    worker.WORK.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=worker.WORK)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(GOLDEN) == list(workloads.WORKLOADS)


def test_metric_names_and_units_match_benchmark_json():
    metrics, _ = worker.timed_metrics([0.001, 0.002, 0.003, 0.004], 2)
    end_to_end = {name: unit for name, (_, unit) in metrics.items()}
    end_to_end["setup_s"] = "s"
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == end_to_end
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.metric_units()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_in_the_seed(name, workdir):
    workload = workloads.WORKLOADS[name]
    first = workload.inputs(3, workdir)
    files = {p.name: p.read_text() for p in Path(workdir).iterdir()}
    again = workload.inputs(3, workdir)
    assert again == first
    assert {p.name: p.read_text() for p in Path(workdir).iterdir()} == files
    assert workload.inputs(4, workdir)[1] != first[1]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_checks_and_reaches_its_layers(name, workdir):
    workload = workloads.WORKLOADS[name]
    warm, pool = workload.inputs(workloads.DEFAULT_SEED, workdir)
    assert len(pool) == len(GOLDEN[name])
    assert worker.drive(workload, [warm], None, items=1)[1] == []
    recorder = tracer.Recorder()
    with recorder.installed():
        latencies, failures = worker.drive(workload, pool, GOLDEN[name], items=2,
                                           recorder=recorder)
    assert failures == []
    assert [span for span in EXPECTED_SPANS[name] if not recorder.calls[span]] == []
    assert recorder.nested / recorder.calls["canonical.canonical_form"] == 6
    if name == "canon_catalogue":
        assert not any(n.startswith("invariants.") and c for n, c in recorder.calls.items())
        assert recorder.calls["cli.main"] == 0
    values = recorder.metrics(len(latencies), sum(latencies), 1.0)
    assert set(values) == set(tracer.metric_units())


def test_recorder_restores_every_binding():
    import platknot
    from platknot import canonical, plat
    before = (plat.validate, canonical.validate, platknot.validate, plat.TwistMatrix.from_text)
    with tracer.Recorder().installed():
        assert canonical.validate is plat.validate is not before[0]
    assert (plat.validate, canonical.validate, platknot.validate,
            plat.TwistMatrix.from_text) == before


def _wrong(name, answer):
    """A deliberately wrong copy of a right answer."""
    if name == "canon_catalogue":
        return answer[:4] + (not answer[4],)
    (status, out), *rest = answer
    return [(1 - status, out)] + rest


def test_best_of_repeats_takes_each_items_least_latency():
    assert worker.best_of_repeats([5, 7, 3, 4, 9, 1, 8], 3) == [4, 7, 1]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checker_flags_a_wrong_answer(name, workdir):
    workload = workloads.WORKLOADS[name]
    warm, _ = workload.inputs(workloads.DEFAULT_SEED, workdir)
    answer = workload.run(warm)
    assert worker.verify(workload, warm, answer, None, 0) == []
    assert worker.verify(workload, warm, _wrong(name, answer), None, 0) != []
    assert worker.verify(workload, warm, answer, ["0" * 16], 0) == [
        "answer differs from the golden answer"]


def test_an_item_that_raises_counts_as_failed():
    workload = workloads.WORKLOADS["canon_catalogue"]
    latencies, failures = worker.drive(workload, [None], None, items=3)
    assert len(latencies) == 3
    assert [k for k, _ in failures] == [0, 1, 2]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_result_line(trace, section):
    proc = subprocess.run(
        [sys.executable, str(worker.HERE / "run.py"), "--workload", "canon_catalogue",
         "--seed", "0", "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
