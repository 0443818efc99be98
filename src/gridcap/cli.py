"""Command-line surface: one subcommand per pipeline stage.

The five subcommands are ``gen-data``, ``train-selector``,
``train-captioner``, ``finetune`` and ``eval --mode M``. ``eval`` scores the
test split and writes ``eval_M.json`` plus the decoded captions as
``captions_M.jsonl``; with ``--trace-grid`` it also writes, as
``grid_trace_M.jsonl``, the grid cells of the columns each search ran. A
search asks only for its best decode: once it holds a finished one, a live
hypothesis scoring below it is dominated and leaves the grid, and the
search stops when none is left.

Every stage reads a single JSON config plus a few overrides, and leaves
its artifacts in the output directory, so a full experiment is a short
sequence of commands. ``seed`` (an integer) and ``out_dir`` (a string) are
top-level only; the sections are ``data``, ``selector``, ``captioner`` and
``train``. Each section accepts only its own config class's fields, less
those the program sets (the data and train seeds, the captioner's
vocabulary and visual width), each with a value of its default's type
inside the field's range. Any other key or value exits 1 when the config
is read, at every stage, and so does a negative seed. So does a
``data.classes`` word that is empty, not one lowercase token, a reserved token such
as ``<pad>``, a caption template word such as ``a``, or repeated (a class is its word),
or whose plural (the word plus ``s``) is a template or another class word. A non-finite
number (JSON's ``NaN`` or ``Infinity``) in the config exits 1 too, and so does a config
or artifact nested too deeply for the JSON reader. After gen-data, every
stage reads ``scenes.jsonl`` through ``data.read_jsonl``, which checks
each record against the ``data`` section; a record it rejects exits 1,
among them one whose ``split`` is not ``train``, ``val`` or ``test``. So
does an output directory that names a file, an artifact path that cannot
be written, and an empty captioner-training, validation or test split.
The environment variable ``GRIDCAP_LOGLEVEL`` sets the log level by name
(default WARNING; INFO shows one line per training epoch).
Exit codes: 0 success, 1 configuration problem (a bad config, a missing,
corrupt or unwritable artifact, an empty split, or an unknown
``GRIDCAP_LOGLEVEL``), 2 training divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .captioner import CaptionerConfig, Vocabulary, init_captioner_params
from .data import (SPLITS, DatasetConfig, apply_heldout, build_vocabulary,
                   default_synonyms, gen_dataset, read_jsonl, write_jsonl)
from .numerics import (NumericsError, checkpoint_hash, load_checkpoint,
                       save_checkpoint)
from .selector import SelectorConfig, init_selector_params, load_synonyms
from .training import (EVAL_MODES, TrainConfig, TrainingDiverged, decode_eval,
                       finetune_scst_dgbs, pretrain_captioner, train_selector)

log = logging.getLogger(__name__)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep that for divergence
        raise ConfigError(message)


SECTIONS = ("data", "selector", "captioner", "train")


def _fits(value, default) -> bool:
    """Whether a JSON value may fill a field with this default: bool is not
    int, an int may fill a float, and a list may fill a tuple."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return type(value) is type(default) or (type(default), type(value)) == (float, int)


def _build(cls, section: dict, **extra):
    """``cls`` from a config section; ``extra`` holds the fields the program
    sets itself, which the section may not name."""
    fields = cls.__dataclass_fields__
    unknown = set(section) - (set(fields) - set(extra))
    if unknown:
        raise ConfigError(f"{cls.__name__} does not take keys {sorted(unknown)}")
    for key, value in section.items():
        if not _fits(value, fields[key].default):
            raise ConfigError(f"{cls.__name__}.{key} must be of type "
                              f"{type(fields[key].default).__name__}, got {value!r}")
    section = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}
    try:
        return cls(**section, **extra)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from exc


def _write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")


class Experiment:
    """Config file plus the artifact paths of one output directory."""

    def __init__(self, config_path: str, seed: int | None, out: str | None):
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - {"seed", "out_dir", *SECTIONS}
        if unknown:
            raise ConfigError(f"config does not take top-level keys {sorted(unknown)}")
        sections = {name: raw.get(name, {}) for name in SECTIONS}
        for name, section in sections.items():
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be a JSON object")
        seed = seed if seed is not None else raw.get("seed", 0)
        if type(seed) is not int:
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if not isinstance(raw.get("out_dir", ""), str):
            raise ConfigError(f"out_dir must be a string, got {raw['out_dir']!r}")
        self.seed = seed
        self.out_dir = out or raw.get("out_dir") or "runs/default"
        self.data_cfg = _build(DatasetConfig, sections["data"], seed=seed)
        self.sel_cfg = _build(SelectorConfig, sections["selector"])
        # checked now; the vocabulary comes from gen-data's vocab.json
        self._cap_cfg = _build(CaptionerConfig, sections["captioner"], vocab=None,
                               visual_dim=self.data_cfg.visual_dim)
        self._cap_section = sections["captioner"]
        self.train_cfg = _build(TrainConfig, sections["train"], seed=seed)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def config_echo(self) -> dict:
        return {
            "seed": self.seed,
            "data": self.data_cfg.__dict__,  # tuples dump as JSON lists
            "selector": self.sel_cfg.__dict__,
            "captioner": self._cap_section,
            "train": self.train_cfg.__dict__,
        }

    # -- artifacts ----------------------------------------------------------

    def read(self, name: str, reader, *args):
        """``reader(path, *args)`` on one artifact; a missing, unreadable or
        malformed file raises ConfigError."""
        path = self.path(name)
        if not os.path.exists(path):
            raise ConfigError(f"{path} missing; run the stage that writes it first")
        try:
            return reader(path, *args)
        except (OSError, ValueError, KeyError, TypeError, OverflowError,
                RecursionError, NumericsError) as exc:
            raise ConfigError(f"corrupt {path}: {exc!r}") from exc

    def write(self, name: str, writer, *args):
        """``writer(path, *args)`` on one artifact; an unwritable path raises
        ConfigError."""
        try:
            return writer(self.path(name), *args)
        except OSError as exc:
            raise ConfigError(f"cannot write {self.path(name)}: {exc}") from exc

    def inputs(self):
        """(held-out splits, synonym table) from gen-data's artifacts; a
        corrupt scene or an empty split raises ConfigError."""
        scenes = self.read("scenes.jsonl", read_jsonl, self.data_cfg)
        synonyms = self.read("synonyms.json", load_synonyms)
        splits = apply_heldout(scenes, self.data_cfg, synonyms)
        for split, keys in (("captioner_train", "data.num_train and data.held_out"),
                            ("val", "data.num_eval"), ("test", "data.num_eval")):
            if not getattr(splits, split):
                raise ConfigError(f"the {split} split is empty (sized by {keys})")
        return splits, synonyms

    def cap_cfg(self) -> CaptionerConfig:
        """The captioner config with gen-data's vocabulary, which must hold
        every ``data.classes`` word."""
        vocab = self.read("vocab.json", Vocabulary.load)
        missing = [w for w in self.data_cfg.classes if w not in vocab.token_to_id]
        if missing:
            raise ConfigError(f"{self.path('vocab.json')} lacks the data.classes "
                              f"words {missing}")
        return replace(self._cap_cfg, vocab=vocab)

    def load_ckpt(self, name: str, init, cfg):
        """Load a checkpoint whose parameter names and shapes match those
        ``init(cfg, rng)`` gives under the current config."""
        params = self.read(name, load_checkpoint)
        want = {k: v.shape for k, v in init(cfg, np.random.default_rng(0)).items()}
        got = {k: v.shape for k, v in params.items()}
        bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        if bad:
            raise ConfigError(
                f"checkpoint {self.path(name)} does not fit the config: {len(bad)} "
                f"parameters differ, e.g. {bad[0]} is {got.get(bad[0])}, config "
                f"wants {want.get(bad[0])}")
        return params

    def write_phase(self, report: str, key: str, phase: str, params,
                    epochs: list[dict], wall_s: float) -> str:
        """Save ``<key>.ckpt`` and a report of the phase that trained it, with
        its epochs and wall time; returns the checkpoint hash."""
        ckpt_hash = self.write(f"{key}.ckpt", save_checkpoint, params)
        self.write(report, _write_report, {
            "config": self.config_echo(),
            "phases": [{"name": phase, "epochs": epochs, "wall_s": wall_s}],
            "checkpoint_hashes": {key: ckpt_hash},
        })
        return ckpt_hash


def cmd_gen_data(exp: Experiment, args) -> int:
    try:
        os.makedirs(exp.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {exp.out_dir}: {exc}") from exc
    scenes = gen_dataset(exp.data_cfg)
    synonyms = default_synonyms(exp.data_cfg.classes)
    vocab = build_vocabulary(exp.data_cfg)
    exp.write("scenes.jsonl", write_jsonl, (s.to_dict() for s in scenes))
    exp.write("synonyms.json", _write_report, synonyms)
    exp.write("vocab.json", vocab.save)
    exp.write("dataset_meta.json", _write_report, {
        "config": exp.config_echo(),
        "num_scenes": len(scenes),
        "splits": {s: sum(1 for x in scenes if x.split == s) for s in SPLITS},
        "vocab_size": len(vocab),
    })
    print(f"wrote {len(scenes)} scenes to {exp.path('scenes.jsonl')}")
    return 0


def cmd_train_selector(exp: Experiment, args) -> int:
    splits, synonyms = exp.inputs()
    start = time.perf_counter()
    params, epochs = train_selector(splits, synonyms, exp.sel_cfg, exp.train_cfg)
    ckpt_hash = exp.write_phase("selector_report.json", "selector",
                                "selector_bce", params, epochs,
                                time.perf_counter() - start)
    print(f"selector checkpoint {ckpt_hash[:12]} "
          f"val-F1 {epochs[-1]['val_selection_f1']:.3f}")
    return 0


def cmd_train_captioner(exp: Experiment, args) -> int:
    splits, _ = exp.inputs()
    cfg = exp.cap_cfg()
    longest = max((len(ref) + 2 for s in splits.captioner_train + splits.val
                   for ref in s.references), default=0)
    if longest > cfg.max_len:
        raise ConfigError(f"a caption is {longest} tokens with BOS and EOS, over "
                          f"captioner.max_len {cfg.max_len}")
    start = time.perf_counter()
    params, epochs = pretrain_captioner(splits, cfg, exp.train_cfg)
    ckpt_hash = exp.write_phase("captioner_report.json", "captioner",
                                "captioner_xent", params, epochs,
                                time.perf_counter() - start)
    print(f"captioner checkpoint {ckpt_hash[:12]} "
          f"val-ppl {epochs[-1]['val_perplexity']:.2f}")
    return 0


def cmd_finetune(exp: Experiment, args) -> int:
    splits, synonyms = exp.inputs()
    cfg = exp.cap_cfg()
    params = exp.load_ckpt("captioner.ckpt", init_captioner_params, cfg)
    start = time.perf_counter()
    params, epochs = finetune_scst_dgbs(splits, cfg, params, exp.train_cfg,
                                        synonyms)
    ckpt_hash = exp.write_phase("finetune_report.json", "captioner_rl",
                                "scst_constrained", params, epochs,
                                time.perf_counter() - start)
    kept = next(e for e in epochs if e["kept"])
    print(f"fine-tuned checkpoint {ckpt_hash[:12]} from epoch {kept['epoch']} "
          f"val-CIDEr {kept['val_cider_d']:.3f}")
    return 0


def cmd_eval(exp: Experiment, args) -> int:
    mode = args.mode
    splits, synonyms = exp.inputs()
    cfg = exp.cap_cfg()
    cap_file = ("captioner_rl.ckpt"
                if os.path.exists(exp.path("captioner_rl.ckpt")) else "captioner.ckpt")
    cap_params = exp.load_ckpt(cap_file, init_captioner_params, cfg)
    sel_params = (exp.load_ckpt("selector.ckpt", init_selector_params, exp.sel_cfg)
                  if mode == "selector" else None)
    report, outputs = decode_eval(splits, mode, exp.data_cfg, cfg, cap_params,
                                  exp.train_cfg, synonyms, exp.sel_cfg,
                                  sel_params, trace=args.trace_grid)
    report["config"] = exp.config_echo()
    # the checkpoints this eval decoded with, hashed as loaded
    report["checkpoints"] = {
        "captioner": {"file": cap_file, "hash": checkpoint_hash(cap_params)}}
    if sel_params is not None:
        report["checkpoints"]["selector"] = {
            "file": "selector.ckpt", "hash": checkpoint_hash(sel_params)}
    exp.write(f"eval_{mode}.json", _write_report, report)
    exp.write(f"captions_{mode}.jsonl", write_jsonl, (
        {"scene_id": o.scene_id, "mode": o.mode, "constraints": o.constraints,
         "caption": o.caption, "logprob": o.logprob, "finished": o.finished,
         "satisfied": o.satisfied} for o in outputs))
    if args.trace_grid:
        exp.write(f"grid_trace_{mode}.jsonl", write_jsonl,
                  ({"scene_id": o.scene_id, **row}
                   for o in outputs for row in o.search.trace))
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
        if name == "eval":
            p.add_argument("--mode", required=True, choices=EVAL_MODES)
            p.add_argument("--trace-grid", action="store_true",
                           help="also write the grid cells each search ran as JSONL")
    return parser


def main(argv=None) -> int:
    try:
        level = os.environ.get("GRIDCAP_LOGLEVEL", "WARNING")
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError(f"GRIDCAP_LOGLEVEL must name a logging level such "
                              f"as INFO or DEBUG, got {level!r}")
        logging.basicConfig(level=level)
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
