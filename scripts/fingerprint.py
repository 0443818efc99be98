"""Print one JSON document that pins the pipeline's results on a small config.

Usage: ``python scripts/fingerprint.py > fp.json`` (no options). The document
holds the checkpoint hash and epoch records of selector training, captioner
pre-training and constrained self-critical fine-tuning, and every
``decode_split`` output field (captions, log-probs, traces and search
counters) of the test split in all six modes at beam sizes 1, 3 and 5,
and the selector-mode constraint words of every validation and test scene. A
change meant to keep behaviour prints the same bytes as its parent: run the
script in both checkouts and ``cmp`` the outputs. A change that may move
results by rounding is compared with ``scripts/fingerprint_diff.py``. It
imports ``gridcap`` from the ``src`` directory next to it.
"""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridcap.captioner import CaptionerConfig  # noqa: E402
from gridcap.data import (DatasetConfig, apply_heldout, build_vocabulary,  # noqa: E402
                          default_synonyms, gen_dataset)
from gridcap.numerics import checkpoint_hash  # noqa: E402
from gridcap.selector import SelectorConfig  # noqa: E402
from gridcap.training import (EVAL_MODES, TrainConfig,  # noqa: E402
                              constraints_for_mode, decode_split,
                              finetune_scst_dgbs, pretrain_captioner,
                              train_selector)

BEAM_SIZES = (1, 3, 5)
SEARCH_FIELDS = ("trace", "step_calls", "step_rows", "offered", "kept")


def decode_fields(output) -> dict:
    """A ``decode_split`` output's fields, with its search's trace and
    counters in place of the search itself."""
    fields = {f.name: getattr(output, f.name) for f in dataclasses.fields(output)}
    search = fields.pop("search")
    return fields | {name: getattr(search, name) for name in SEARCH_FIELDS}


def main() -> None:
    data_cfg = DatasetConfig(num_train=40, num_eval=24, seed=13)
    synonyms = default_synonyms(data_cfg.classes)
    splits = apply_heldout(gen_dataset(data_cfg), data_cfg, synonyms)
    sel_cfg = SelectorConfig()
    cap_cfg = CaptionerConfig(vocab=build_vocabulary(data_cfg), num_enc_layers=2,
                              num_dec_layers=2, visual_dim=data_cfg.visual_dim)
    train_cfg = TrainConfig(selector_epochs=4, xent_epochs=6, rl_epochs=2,
                            warmup=50, batch_size=8, seed=13)

    def phase(params, epochs):
        return {"checkpoint_hash": checkpoint_hash(params), "epochs": epochs}

    sel_params, epochs = train_selector(splits, synonyms, sel_cfg, train_cfg)
    phases = {"train_selector": phase(sel_params, epochs)}
    selections = {
        split: [constraints_for_mode(scene, "selector", cap_cfg.vocab, synonyms,
                                     sel_cfg, sel_params)
                for scene in getattr(splits, split)]
        for split in ("val", "test")}
    cap_params, epochs = pretrain_captioner(splits, cap_cfg, train_cfg)
    phases["pretrain_captioner"] = phase(cap_params, epochs)
    rl_params, epochs = finetune_scst_dgbs(splits, cap_cfg, cap_params, train_cfg,
                                           synonyms)
    phases["finetune_scst_dgbs"] = phase(rl_params, epochs)
    decodes = {}
    for beam in BEAM_SIZES:
        cfg = dataclasses.replace(train_cfg, beam_size=beam)
        for mode in EVAL_MODES:
            outputs = decode_split(splits.test, mode, cap_cfg, rl_params, cfg,
                                   synonyms, sel_cfg, sel_params, trace=True)
            decodes[f"{mode}@{beam}"] = [decode_fields(o) for o in outputs]
    json.dump({"phases": phases, "decodes": decodes, "selections": selections},
              sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
