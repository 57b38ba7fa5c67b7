"""Tests of the benchmark itself: generators, oracles, tracing and the
result contract.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import generate
import oracles
import run
import worker
from tracing import SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "src"))  # the passes below run in this process


def tiny(workload: str, out: Path, seed: int = 1):
    if workload == "label":
        return generate.make_label(FIXTURES, out, seed, copies=2)
    if workload == "localize":
        return generate.make_localize(out, seed, images=4)
    return generate.make_evaluate(FIXTURES, out, seed, rows=300)


def contents(inputs) -> dict[str, bytes]:
    return {key: path.read_bytes() for key, path in inputs.files.items()}


@pytest.mark.parametrize("workload", sorted(worker.OUTPUTS))
def test_same_seed_gives_identical_files(workload, tmp_path):
    first = contents(tiny(workload, tmp_path / "a", seed=5))
    second = contents(tiny(workload, tmp_path / "b", seed=5))
    assert first == second


@pytest.mark.parametrize("workload", sorted(worker.OUTPUTS))
def test_another_seed_changes_the_inputs(workload, tmp_path):
    first = contents(tiny(workload, tmp_path / "a", seed=5))
    second = contents(tiny(workload, tmp_path / "b", seed=6))
    assert first != second


def test_label_copies_keep_fixture_work(tmp_path):
    inputs = tiny("label", tmp_path)
    assert inputs.props == {"reports": 40, "sentences": 58, "distinct_sentence_share": 0.5}
    assert sorted(inputs.truth["source"].values()) == sorted(list(oracles.FIXTURE_LABELS) * 2)


def _pass(workload: str, tmp_path: Path):
    inputs = tiny(workload, tmp_path / "in")
    seconds, steps = worker.run_pass(workload, tmp_path / "in", tmp_path / "out")
    return inputs, seconds, steps


@pytest.mark.parametrize("workload", sorted(worker.OUTPUTS))
def test_tiny_pass_is_correct(workload, tmp_path):
    inputs, seconds, steps = _pass(workload, tmp_path)
    assert seconds > 0
    assert [s["step"] for s in steps] == list(worker.OUTPUTS[workload])
    assert all(s["rc"] == 0 for s in steps), steps
    problems = oracles.CHECKS[workload](inputs, tmp_path / "out")
    attempted, failed, messages = run.tally(
        workload, [{"steps": steps}], problems, tmp_path / "out")
    assert (attempted, failed, messages) == (len(steps), 0, [])


def _flip_status(out: Path):
    path = out / "labels.csv"
    text = path.read_text()
    path.write_text(text.replace("NORMAL", "OTHER_FINDINGS_ONLY", 1))


def _drop_detection(out: Path):
    path = out / "dets.tsv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))


def _nudge_auc(out: Path):
    path = out / "auc.csv"
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    cells[1] = f"{float(cells[1]) + 0.001:.6f}"
    path.write_text(f"{header}\n{','.join(cells)}\n")


@pytest.mark.parametrize("workload, corrupt, step", [
    ("label", _flip_status, "label"),
    ("localize", _drop_detection, "localize"),
    ("evaluate", _nudge_auc, "auc"),
])
def test_oracle_fails_on_corrupted_output(workload, corrupt, step, tmp_path):
    inputs, _, steps = _pass(workload, tmp_path)
    corrupt(tmp_path / "out")
    problems = oracles.CHECKS[workload](inputs, tmp_path / "out")
    assert problems[step]
    _, failed, _ = run.tally(workload, [{"steps": steps}], problems, tmp_path / "out")
    assert failed >= 1


def test_tracer_times_every_layer_and_restores_the_package(tmp_path):
    import cxrlabel.cli
    import cxrlabel.metrics

    originals = (cxrlabel.cli.load_corpus, cxrlabel.metrics.OVERLAP_MEASURES["iou"])
    inputs = tiny("label", tmp_path / "in")
    tracer = Tracer(hot_counters=True)
    tracer.install()
    try:
        assert cxrlabel.cli.load_corpus is not originals[0]
        worker.run_pass("label", tmp_path / "in", tmp_path / "out")
    finally:
        tracer.uninstall()
    assert (cxrlabel.cli.load_corpus, cxrlabel.metrics.OVERLAP_MEASURES["iou"]) == originals
    times = tracer.self_times()
    assert {"cli.label", "labeling.aggregate", "reports.load_corpus"} <= set(times)
    assert all(name in SPANS for name in times)
    # Sentences are split when the corpus loads, when graphs attach and
    # when matching walks them.
    assert tracer.counts["reports.split_sentences_calls"] == 3 * inputs.size
    assert tracer.counts["negation.lemma_calls"] > 0


def test_reference_loop_does_fixed_work_without_the_program():
    assert worker.reference() == worker.reference()
    assert "cxrlabel" not in worker.reference.__code__.co_names


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_prints_every_declared_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.per_layer_units()
    proc = _run_bench("--workload", "label", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["reports.split_sentences_calls"] == 3.0
    assert metrics["labeling.scan_useful_ratio"] == pytest.approx(1 / 2000)


def test_untraced_run_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_bench("--workload", "localize", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "label", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
