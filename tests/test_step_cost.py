import importlib.util
import json
from pathlib import Path


def test_prints_its_table_and_one_json_line(monkeypatch, capsys):
    # the script end to end, on two small row counts
    spec = importlib.util.spec_from_file_location(
        "step_cost", Path(__file__).resolve().parent.parent / "scripts" / "step_cost.py")
    step_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_cost)
    monkeypatch.setattr(step_cost, "ROWS", (1, 2))
    monkeypatch.setattr(step_cost, "REPEATS", 2)
    step_cost.main()
    *table, last = capsys.readouterr().out.splitlines()
    assert table[0] == "| rows | build | 1 | 2 |"
    report = json.loads(last)
    assert report["prefix_len"] == step_cost.PREFIX_LEN and report["repeats"] == 2
    assert report["build_ms_p50"] > 0
    assert set(report["step_ms_p50"]) == {"1", "2"}
    assert all(ms > 0 for ms in report["step_ms_p50"].values())
