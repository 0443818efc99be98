import json

import numpy as np

from gridcap import numerics as nm

from test_step_cost import load_script


def test_prints_its_table_and_one_json_line(monkeypatch, capsys):
    # the script end to end, on two small caption counts
    train_cost = load_script("train_cost", monkeypatch)
    monkeypatch.setattr(train_cost, "CAPTIONS", (1, 3))
    monkeypatch.setattr(train_cost, "REPEATS", 2)
    train_cost.main()
    *table, last = capsys.readouterr().out.splitlines()
    assert table[0] == "| captions | tape nodes | forward ms | backward ms | adam_step ms |"
    assert len(table) == 4
    report = json.loads(last)
    assert report["repeats"] == 2
    # one node per sub-block: the node count does not grow with the captions
    assert report["nodes"]["1"] == report["nodes"]["3"] > 0
    for phase in ("forward", "backward", "adam"):
        assert set(report[f"{phase}_ms_p50"]) == {"1", "3"}
        assert all(ms > 0 for ms in report[f"{phase}_ms_p50"].values())


def test_counts_each_recorded_tensor_once(monkeypatch):
    train_cost = load_script("train_cost", monkeypatch)
    x = nm.Tensor(np.arange(3.0), requires_grad=True)
    y = nm.mul(x, x)
    loss = nm.tsum(nm.add(y, y))  # y read twice, x a leaf
    assert train_cost.tape_nodes(loss) == 3
