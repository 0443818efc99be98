import copy
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "fingerprint_diff",
    Path(__file__).resolve().parent.parent / "scripts" / "fingerprint_diff.py")
fingerprint_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint_diff)


def document():
    hyp = {"finished": False, "logprob": -0.5, "tokens": ["a"]}
    decode = {"caption": ["a", "dog"], "finished": True, "logprob": -3.0,
              "satisfied": True, "step_calls": 4,
              "trace": [{"c": 0, "hyps": [hyp], "t": 0}]}
    return {"phases": {"pretrain_captioner": {
                "checkpoint_hash": "ab",
                "epochs": [{"epoch": 0, "loss": 2.0, "val_perplexity": 9.0}]}},
            "decodes": {"none@1": [decode, copy.deepcopy(decode)]},
            "selections": {"val": [["dog"], []], "test": [["cat", "dog"]]}}


def test_rounding_is_measured_and_passes():
    old, new = document(), document()
    new["phases"]["pretrain_captioner"]["checkpoint_hash"] = "cd"
    new["phases"]["pretrain_captioner"]["epochs"][0]["loss"] = 2.0 * (1 + 1e-12)
    new["phases"]["pretrain_captioner"]["epochs"][0]["updates"] = 3
    new["decodes"]["none@1"][1]["trace"][0]["hyps"][0]["logprob"] = -0.5 + 1e-13
    report, mismatch = fingerprint_diff.compare(old, new)
    assert not mismatch
    assert report["phase_hashes_equal"] == {"pretrain_captioner": False}
    assert report["epoch_max_rel_diff"]["pretrain_captioner"] == pytest.approx(
        1e-12, rel=1e-3)
    assert report["logprob_max_abs_diff"] == pytest.approx(1e-13, rel=1e-2)
    assert report["best_logprob_max_abs_diff"] == 0.0
    assert report["decodes"] == 2 and report["decodes_differing"] == 0
    assert report["fields_differing"] == {}
    assert report["only_in_new"] == ["phases.pretrain_captioner.epochs[].updates"]


@pytest.mark.parametrize("field, value", [("caption", ["a", "cat"]),
                                          ("finished", False), ("step_calls", 5)])
def test_a_shared_non_float_difference_fails(field, value):
    old, new = document(), document()
    new["decodes"]["none@1"][0][field] = value
    report, mismatch = fingerprint_diff.compare(old, new)
    assert mismatch and report["decodes_differing"] == 1
    assert report["fields_differing"] == {field: 1}


def test_trace_tokens_count_as_non_float():
    old, new = document(), document()
    new["decodes"]["none@1"][1]["trace"][0]["hyps"][0]["tokens"] = ["the"]
    report, mismatch = fingerprint_diff.compare(old, new)
    assert mismatch and report["decodes_differing"] == 1
    assert report["fields_differing"] == {"trace": 1}


def test_best_logprob_is_told_from_trace_logprobs():
    old, new = document(), document()
    new["decodes"]["none@1"][0]["trace"][0]["hyps"][0]["logprob"] = -7.0
    new["decodes"]["none@1"][1]["trace"].append({"c": 0, "hyps": [], "t": 1})
    report, mismatch = fingerprint_diff.compare(old, new)
    assert mismatch and report["logprob_max_abs_diff"] == 6.5
    assert report["best_logprob_max_abs_diff"] == 0.0
    assert report["fields_differing"] == {"trace": 1}
    new["decodes"]["none@1"][0]["logprob"] = -3.0 + 1e-13
    report, _ = fingerprint_diff.compare(old, new)
    assert report["best_logprob_max_abs_diff"] == pytest.approx(1e-13, rel=1e-2)


def test_a_changed_selection_fails():
    old, new = document(), document()
    new["selections"]["test"][0] = ["cat"]
    report, mismatch = fingerprint_diff.compare(old, new)
    assert mismatch and report["decodes_differing"] == 0
