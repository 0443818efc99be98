"""Tiny-size checks of the benchmark itself.

Run from the repository root: ``python -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = run.Profile(
    num_train=24, num_eval=16, setup_repeats=2, setup_selector_epochs=1,
    setup_xent_epochs=1, setup_val_scenes=2, eval_per_count=((2, 1), (3, 1)),
    xent_selector_epochs=2, xent_captioner_epochs=1,
    scst_train_per_count=((1, 1), (2, 1)), scst_val_per_count=((1, 1),))


def _check_metrics(metrics: dict, wanted: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result, record = run.run(workload, seed=3, seconds=0.0, trace=False,
                             profile=TINY)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    _check_metrics(result["metrics"], SPEC["end_to_end"])
    assert record["named"]["attempted"] == result["attempted"]
    assert record["env"]["seed"] == 3


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, record = run.run(workload, seed=3, seconds=0.0, trace=True,
                             profile=TINY)
    _check_metrics(result["metrics"], SPEC["per_layer"])
    assert record["trace"]["spans"] > 0


def test_repeat_runs_give_identical_digests():
    _, first = run.run("eval_selector", seed=5, seconds=0.0, trace=False,
                       profile=TINY)
    _, second = run.run("eval_selector", seed=5, seconds=0.0, trace=False,
                        profile=TINY)
    assert first["digests"] == second["digests"]
    assert first["setup"]["hashes"] == second["setup"]["hashes"]


@pytest.mark.parametrize("workload", ["eval_selector", "finetune_scst"])
def test_self_time_never_exceeds_span(workload):
    prog = run.import_program()
    inputs, _ = run.setup(prog, TINY, train=True)
    work = run.WORKLOAD_CLASSES[workload](prog, inputs, TINY, 4)
    rec = tracer.SpanRecorder()
    training = prog["training"]
    original = training.run_grid_search
    with tracer.patched(tracer.tracing_targets(
            rec, training, prog["numerics"], prog["captioner"])):
        work.run(0.0, rec)
    assert training.run_grid_search is original
    names = {s[tracer.NAME] for s in rec.spans}
    assert {"decoder.grid_search", "captioner.step"} <= names
    for span, own in zip(rec.spans, tracer.self_times(rec.spans)):
        assert 0.0 <= own <= span[tracer.END] - span[tracer.START]


def test_self_time_subtracts_direct_children():
    rec = tracer.SpanRecorder()
    with rec.span("outer"):
        with rec.span("child"):
            with rec.span("grandchild"):
                pass
        with rec.span("child"):
            pass
    spans = rec.spans
    dur = [s[tracer.END] - s[tracer.START] for s in spans]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[3])
    assert own[1] == pytest.approx(dur[1] - dur[2])
    assert [s[tracer.PARENT] for s in spans] == [-1, 0, 1, 0]


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(40)))[1] == 75.0
    assert run.tail(list(range(1000)))[1] == 99.0
    assert run.tail(list(range(5)))[1] is None


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_xent",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode not in (0, None)
    assert "correct" not in proc.stdout
