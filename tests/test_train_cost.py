import json

import numpy as np

from gridcap import numerics as nm
from gridcap.captioner import CaptionerConfig
from gridcap.data import DatasetConfig, build_vocabulary

from test_step_cost import load_script


def test_prints_its_table_and_one_json_line(monkeypatch, capsys):
    # the script end to end, on two small caption counts and a small
    # selector minibatch
    train_cost = load_script("train_cost", monkeypatch)
    monkeypatch.setattr(train_cost, "CAPTIONS", (1, 3))
    monkeypatch.setattr(train_cost, "SELECTOR_SCENES", 2)
    monkeypatch.setattr(train_cost, "REPEATS", 2)
    train_cost.main()
    *table, last = capsys.readouterr().out.splitlines()
    assert table[0] == ("| minibatch | tape nodes | forward ms | backward ms "
                        "| adam_step ms | Adam state MiB | step peak MiB |")
    rows = ["1 captions", "3 captions", "2 selector scenes"]
    assert [line.split(" | ")[0] for line in table[2:]] == [f"| {r}" for r in rows]
    report = json.loads(last)
    assert report["repeats"] == 2
    # one node per sub-block: the node count does not grow with the captions
    assert report["nodes"]["1 captions"] == report["nodes"]["3 captions"] > 0
    assert report["nodes"]["2 selector scenes"] > 0
    for key in ("forward_ms_p50", "backward_ms_p50", "adam_ms_p50", "state_mib",
                "step_peak_mib"):
        assert list(report[key]) == rows
        assert all(value > 0 for value in report[key].values())
    # the state holds each parameter's value and two moments
    captioner = CaptionerConfig(vocab=build_vocabulary(DatasetConfig()))
    assert report["state_mib"]["3 captions"] >= 3 * 8 * captioner.param_count / 2 ** 20


def test_counts_each_recorded_tensor_once(monkeypatch):
    train_cost = load_script("train_cost", monkeypatch)
    x = nm.Tensor(np.arange(3.0), requires_grad=True)
    y = nm.mul(x, x)
    loss = nm.tsum(nm.add(y, y))  # y read twice, x a leaf
    assert train_cost.tape_nodes(loss) == 3
