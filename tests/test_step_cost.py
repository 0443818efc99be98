import importlib.util
import json
import os
from pathlib import Path

import pytest

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_script(name: str, monkeypatch):
    """The module ``scripts/<name>.py``; the thread settings it pins are
    restored after the test."""
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "4")
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["step_cost", "stage_times", "train_cost"])
def test_pins_one_blas_thread(monkeypatch, name):
    load_script(name, monkeypatch)
    assert all(os.environ[var] == "1" for var in BLAS_THREAD_VARS)


def test_prints_its_table_and_one_json_line(monkeypatch, capsys):
    # the script end to end, on two small row counts and two constraint counts
    step_cost = load_script("step_cost", monkeypatch)
    monkeypatch.setattr(step_cost, "ROWS", (1, 2))
    monkeypatch.setattr(step_cost, "COUNTS", (0, 2))
    monkeypatch.setattr(step_cost, "REPEATS", 2)
    step_cost.main()
    *table, last = capsys.readouterr().out.splitlines()
    assert table[0] == "| rows | build | 1 | 2 |"
    assert table[4] == "| constraints | 0 | 2 |"
    assert [line.split(" | ")[0] for line in table[6:]] == [
        "| search ms", "| step_calls", "| step_rows", "| offered", "| kept"]
    report = json.loads(last)
    assert report["prefix_len"] == step_cost.PREFIX_LEN and report["repeats"] == 2
    assert report["beam"] == step_cost.BEAM == 5
    assert report["build_ms_p50"] > 0
    assert set(report["step_ms_p50"]) == {"1", "2"}
    assert all(ms > 0 for ms in report["step_ms_p50"].values())
    assert set(report["search"]) == {"0", "2"}
    for search in report["search"].values():
        assert set(search) == {"ms_p50", "step_calls", "step_rows", "offered", "kept"}
        assert search["ms_p50"] > 0
        assert 1 <= search["step_calls"] <= search["step_rows"]
        assert search["kept"] <= search["offered"]
    # two constraint words widen every column past the unconstrained search's
    assert report["search"]["2"]["offered"] > report["search"]["0"]["offered"]
