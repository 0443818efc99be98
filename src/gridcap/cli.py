"""Command-line surface: one subcommand per pipeline stage.

Every stage reads a single JSON config (sections: seed, out_dir, data,
selector, captioner, train) plus a few overrides, and leaves its artifacts
in the output directory, so a full experiment is a short sequence of
commands. Exit codes: 0 success, 1 configuration problem, 2 training
divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .captioner import CaptionerConfig, Vocabulary
from .data import (DatasetConfig, apply_heldout, build_vocabulary,
                   default_synonyms, gen_dataset, read_jsonl, write_jsonl)
from .metrics import IdfTable
from .numerics import (NumericsError, checkpoint_hash, load_checkpoint,
                       save_checkpoint)
from .selector import SelectorConfig, load_synonyms, save_synonyms
from .training import (EVAL_MODES, RunReport, TrainConfig, TrainingDiverged,
                       decode_eval, decode_split, finetune_scst_dgbs,
                       pretrain_captioner, train_selector)

log = logging.getLogger(__name__)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep that for divergence
        raise ConfigError(message)


def _build(cls, section: dict, **extra):
    names = set(cls.__dataclass_fields__)
    unknown = set(section) - names
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        return cls(**{**section, **extra})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from exc


class Experiment:
    """Config file plus the artifact paths of one output directory."""

    def __init__(self, config_path: str, seed: int | None, out: str | None):
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.raw = raw
        self.seed = int(seed if seed is not None else raw.get("seed", 0))
        self.out_dir = out or raw.get("out_dir") or "runs/default"
        data_section = dict(raw.get("data", {}))
        data_section["seed"] = self.seed
        self.data_cfg = _build(DatasetConfig, data_section)
        self.data_cfg.held_out = tuple(self.data_cfg.held_out)
        self.data_cfg.classes = tuple(self.data_cfg.classes)
        self.sel_cfg = _build(SelectorConfig, dict(raw.get("selector", {})))
        self._cap_section = dict(raw.get("captioner", {}))
        train_section = dict(raw.get("train", {}))
        train_section["seed"] = self.seed
        self.train_cfg = _build(TrainConfig, train_section)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def cap_cfg(self, vocab: Vocabulary) -> CaptionerConfig:
        section = dict(self._cap_section)
        section["visual_dim"] = self.data_cfg.visual_dim
        return _build(CaptionerConfig, section, vocab=vocab)

    def config_echo(self) -> dict:
        return {
            "seed": self.seed,
            "data": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in self.data_cfg.__dict__.items()},
            "selector": {k: list(v) if isinstance(v, tuple) else v
                         for k, v in self.sel_cfg.__dict__.items()},
            "captioner": self._cap_section,
            "train": self.train_cfg.__dict__,
        }

    # -- artifacts ----------------------------------------------------------

    def load_scenes(self):
        path = self.path("scenes.jsonl")
        if not os.path.exists(path):
            raise ConfigError(f"{path} missing; run gen-data first")
        return read_jsonl(path)

    def load_vocab(self) -> Vocabulary:
        path = self.path("vocab.json")
        if not os.path.exists(path):
            raise ConfigError(f"{path} missing; run gen-data first")
        return Vocabulary.load(path)

    def load_syn(self):
        path = self.path("synonyms.json")
        if not os.path.exists(path):
            raise ConfigError(f"{path} missing; run gen-data first")
        return load_synonyms(path)

    def load_ckpt(self, name: str):
        path = self.path(name)
        if not os.path.exists(path):
            raise ConfigError(f"{path} missing; run the earlier stage first")
        try:
            return load_checkpoint(path)
        except (ValueError, KeyError, TypeError, NumericsError) as exc:
            raise ConfigError(f"corrupt checkpoint {path}: {exc!r}") from exc

    def splits(self, scenes, synonyms):
        return apply_heldout(scenes, self.data_cfg, synonyms)

    def write_report(self, name: str, report: RunReport | dict) -> None:
        text = report.to_json() if isinstance(report, RunReport) else json.dumps(
            report, sort_keys=True, indent=1)
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def cmd_gen_data(exp: Experiment, args) -> int:
    os.makedirs(exp.out_dir, exist_ok=True)
    scenes = gen_dataset(exp.data_cfg)
    synonyms = default_synonyms(exp.data_cfg.classes)
    vocab = build_vocabulary(exp.data_cfg)
    write_jsonl(exp.path("scenes.jsonl"), scenes)
    save_synonyms(exp.path("synonyms.json"), synonyms)
    vocab.save(exp.path("vocab.json"))
    exp.write_report("dataset_meta.json", {
        "config": exp.config_echo(),
        "num_scenes": len(scenes),
        "splits": {s: sum(1 for x in scenes if x.split == s)
                   for s in ("train", "val", "test")},
        "vocab_size": len(vocab),
    })
    print(f"wrote {len(scenes)} scenes to {exp.path('scenes.jsonl')}")
    return 0


def cmd_train_selector(exp: Experiment, args) -> int:
    scenes = exp.load_scenes()
    synonyms = exp.load_syn()
    splits = exp.splits(scenes, synonyms)
    params, epochs = train_selector(splits, synonyms, exp.sel_cfg, exp.train_cfg)
    ckpt_hash = save_checkpoint(exp.path("selector.ckpt"), params)
    report = RunReport(config=exp.config_echo())
    report.add_phase("selector_bce", epochs)
    report.checkpoint_hashes["selector"] = ckpt_hash
    exp.write_report("selector_report.json", report)
    print(f"selector checkpoint {ckpt_hash[:12]} "
          f"val-F1 {epochs[-1]['val_selection_f1']:.3f}")
    return 0


def cmd_train_captioner(exp: Experiment, args) -> int:
    scenes = exp.load_scenes()
    synonyms = exp.load_syn()
    vocab = exp.load_vocab()
    splits = exp.splits(scenes, synonyms)
    cfg = exp.cap_cfg(vocab)
    params, epochs = pretrain_captioner(splits, cfg, exp.train_cfg)
    ckpt_hash = save_checkpoint(exp.path("captioner.ckpt"), params)
    report = RunReport(config=exp.config_echo())
    report.add_phase("captioner_xent", epochs)
    report.checkpoint_hashes["captioner"] = ckpt_hash
    exp.write_report("captioner_report.json", report)
    print(f"captioner checkpoint {ckpt_hash[:12]} "
          f"val-ppl {epochs[-1]['val_perplexity']:.2f}")
    return 0


def cmd_finetune(exp: Experiment, args) -> int:
    scenes = exp.load_scenes()
    synonyms = exp.load_syn()
    vocab = exp.load_vocab()
    splits = exp.splits(scenes, synonyms)
    cfg = exp.cap_cfg(vocab)
    params = exp.load_ckpt("captioner.ckpt")
    params, epochs = finetune_scst_dgbs(splits, cfg, params, exp.train_cfg,
                                        synonyms)
    ckpt_hash = save_checkpoint(exp.path("captioner_rl.ckpt"), params)
    report = RunReport(config=exp.config_echo())
    report.add_phase("scst_constrained", epochs)
    report.checkpoint_hashes["captioner_rl"] = ckpt_hash
    exp.write_report("finetune_report.json", report)
    print(f"fine-tuned checkpoint {ckpt_hash[:12]} "
          f"val-CIDEr {epochs[-1]['val_cider_d']:.3f}")
    return 0


def _eval_inputs(exp: Experiment, mode: str):
    scenes = exp.load_scenes()
    synonyms = exp.load_syn()
    vocab = exp.load_vocab()
    splits = exp.splits(scenes, synonyms)
    cfg = exp.cap_cfg(vocab)
    ckpt = ("captioner_rl.ckpt"
            if os.path.exists(exp.path("captioner_rl.ckpt")) else "captioner.ckpt")
    cap_params = exp.load_ckpt(ckpt)
    sel_params = None
    if mode == "selector":
        sel_params = exp.load_ckpt("selector.ckpt")
    return splits, synonyms, cfg, cap_params, sel_params


def cmd_decode(exp: Experiment, args) -> int:
    mode = args.mode
    if mode not in EVAL_MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {EVAL_MODES}")
    splits, synonyms, cfg, cap_params, sel_params = _eval_inputs(exp, mode)
    outputs = decode_split(splits.test, mode, cfg, cap_params, exp.train_cfg,
                           synonyms, exp.sel_cfg, sel_params,
                           trace=args.trace_grid)
    cap_path = exp.path(f"captions_{mode}.jsonl")
    with open(cap_path, "w", encoding="utf-8") as fh:
        for o in outputs:
            fh.write(json.dumps({
                "scene_id": o.scene_id, "mode": o.mode,
                "constraints": o.constraints, "caption": o.caption,
                "logprob": o.logprob, "finished": o.finished,
                "satisfied": o.satisfied,
            }, separators=(",", ":")))
            fh.write("\n")
    if args.trace_grid:
        with open(exp.path(f"grid_trace_{mode}.jsonl"), "w", encoding="utf-8") as fh:
            for o in outputs:
                for row in o.trace:
                    fh.write(json.dumps({"scene_id": o.scene_id, **row},
                                        separators=(",", ":")))
                    fh.write("\n")
    print(f"decoded {len(outputs)} test scenes under mode {mode} -> {cap_path}")
    return 0


def cmd_eval(exp: Experiment, args) -> int:
    mode = args.mode
    if mode not in EVAL_MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {EVAL_MODES}")
    splits, synonyms, cfg, cap_params, sel_params = _eval_inputs(exp, mode)
    report, _ = decode_eval(splits, mode, exp.data_cfg, cfg, cap_params,
                            exp.train_cfg, synonyms, exp.sel_cfg, sel_params)
    report["config"] = exp.config_echo()
    report["checkpoint_hashes"] = {
        name: checkpoint_hash(exp.load_ckpt(path))
        for name, path in (("captioner", "captioner.ckpt"),
                           ("captioner_rl", "captioner_rl.ckpt"),
                           ("selector", "selector.ckpt"))
        if os.path.exists(exp.path(path))
    }
    exp.write_report(f"eval_{mode}.json", report)
    out = report["out_domain"]
    print(f"mode {mode}: out-domain F1 {out['f1_average']:.3f} "
          f"CIDEr-D {out['cider_d']:.3f}, satisfaction "
          f"{report['constraint_satisfaction']:.3f}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-selector": cmd_train_selector,
    "train-captioner": cmd_train_captioner,
    "finetune": cmd_finetune,
    "decode": cmd_decode,
    "eval": cmd_eval,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridcap",
                     description="novel-object captioning pipeline at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory override")
        if name in ("decode", "eval"):
            p.add_argument("--mode", required=True,
                           help="|".join(EVAL_MODES))
        if name == "decode":
            p.add_argument("--trace-grid", action="store_true",
                           help="write the beam grid as JSONL")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("GRIDCAP_LOGLEVEL", "WARNING"))
    try:
        args = build_parser().parse_args(argv)
        exp = Experiment(args.config, args.seed, args.out)
        return COMMANDS[args.command](exp, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
