"""Benchmark runner for the gridcap pipeline.

Usage, from the repository root:

    python3 bench/run.py --workload eval_selector --seed 0 --seconds 20 --trace 0

Set-up builds the inputs: ``gen_dataset`` output plus a selector and a
captioner trained briefly by the repository's own training functions. It
runs several times; its median time is ``setup_s`` and its outputs must
repeat exactly. The workload seed then picks the scenes, and the workload
runs as a closed loop with one caller. Its first pass is fixed work whose
outputs give the quality numbers and digests; further passes repeat it
until ``--seconds`` is used up and must reproduce it exactly. Times are
rescaled to a reference machine speed (see ``speed.py``), and throughput
is computed from medians over the repeats, so machine noise moves it
little.

With ``--trace 1`` the untraced measurement runs first, then one traced
pass (see ``tracer.py``) gives the per-layer metrics and the tracing
overhead. Before the final line the runner prints one ``record`` line with
the environment, set-up hashes, digests, and the per-workload metrics under
their descriptive names. The final line is the result object. Exit status:
0 on success, 1 when a correctness check fails (the check is named on
standard error), 2 when the program's sources are missing.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from speed import SpeedClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("eval_selector", "train_xent", "finetune_scst")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark configuration.

    The dataset and the set-up weights come from ``data_seed``, so every
    run uses the same model, as a released checkpoint would be. The
    workload seed picks which scenes are run, in which order, and seeds the
    training that ``train_xent`` measures. The ``*_per_count`` fields fix
    how many scenes of each constraint count are picked, so every seed gets
    the same mix of search sizes.
    """

    data_seed: int = 0
    num_train: int = 160
    num_eval: int = 140
    setup_repeats: int = 3
    setup_selector_epochs: int = 2
    setup_xent_epochs: int = 2
    setup_val_scenes: int = 4
    warmup: int = 60
    batch_size: int = 8
    eval_per_count: tuple = ((2, 3), (3, 3), (4, 3), (5, 3))
    xent_train_scenes: int = 40
    xent_val_scenes: int = 12
    xent_selector_epochs: int = 8
    xent_captioner_epochs: int = 8
    scst_train_per_count: tuple = ((1, 5), (2, 5), (3, 5))
    scst_val_per_count: tuple = ((1, 2), (2, 2), (3, 2))
    scst_batch_size: int = 4
    rl_lr: float = 1e-4


DEFAULT = Profile()


class ProgramMissing(Exception):
    pass


class GateFailure(Exception):
    """A correctness check failed; the message starts with its name."""

    def __init__(self, message: str, attempted: int = 1, failed: int = 1):
        super().__init__(message)
        self.attempted, self.failed = attempted, failed


def import_program() -> dict:
    """Import gridcap from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "gridcap" / "__init__.py").is_file():
        raise ProgramMissing(f"no gridcap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridcap
    if Path(gridcap.__file__).resolve().parent != SRC / "gridcap":
        raise ProgramMissing(f"gridcap imported from {gridcap.__file__}")
    from gridcap import captioner, data, metrics, numerics, selector, training
    return {"captioner": captioner, "data": data, "metrics": metrics,
            "numerics": numerics, "selector": selector, "training": training}


def environment(seed: int, profile: Profile) -> dict:
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "profile": profile.__dict__,
    }


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            return float(np.percentile(values, p)), p
    return None, None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise GateFailure(f"finite_losses: {what} is {value}")
    return value


def stratified(scenes, count_of, per_count, rng) -> list:
    """Scenes of each listed constraint count, drawn in a random order.

    A count with too few scenes is topped up with other scenes, so the
    total stays fixed; the record lists the counts actually used.
    """
    want = dict(per_count)
    chosen, rest = [], []
    for i in rng.permutation(len(scenes)):
        scene = scenes[i]
        c = count_of(scene)
        if want.get(c, 0) > 0:
            want[c] -= 1
            chosen.append(scene)
        else:
            rest.append(scene)
    chosen += rest[:sum(want.values())]
    if not chosen:
        raise ValueError("no scenes to run")
    return chosen


def robust_total(samples: list[list[float]]) -> float:
    """Sum over positions of the median of that position's repeats."""
    return sum(statistics.median(s) for s in samples if s)


def per_position(positions: list[list[tuple[float, float]]]) -> tuple[list, list]:
    """Split each position's (raw, rescaled) repeats into two lists."""
    return ([[iv[0] for iv in ivs] for ivs in positions],
            [[iv[1] for iv in ivs] for ivs in positions])


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    data_cfg: object
    splits: object
    synonyms: dict
    cap_cfg: object
    sel_cfg: object
    sel_params: dict | None = None
    cap_params: dict | None = None


def build_inputs(prog, profile: Profile, train: bool) -> tuple[Inputs, SpeedClock]:
    """The dataset, plus briefly trained weights when ``train``; the clock
    holds a mark at the start, after ``gen_dataset``, at every epoch and at
    the end."""
    data, training = prog["data"], prog["training"]
    clock = SpeedClock()
    clock.mark()
    data_cfg = data.DatasetConfig(num_train=profile.num_train,
                                  num_eval=profile.num_eval,
                                  seed=profile.data_seed)
    scenes = data.gen_dataset(data_cfg)
    clock.mark()
    synonyms = data.default_synonyms(data_cfg.classes)
    splits = data.apply_heldout(scenes, data_cfg, synonyms)
    cap_cfg = prog["captioner"].CaptionerConfig(
        vocab=data.build_vocabulary(data_cfg), visual_dim=data_cfg.visual_dim)
    inputs = Inputs(data_cfg, splits, synonyms, cap_cfg,
                    prog["selector"].SelectorConfig())
    if train:
        train_cfg = training.TrainConfig(
            seed=profile.data_seed, batch_size=profile.batch_size,
            warmup=profile.warmup, selector_epochs=profile.setup_selector_epochs,
            xent_epochs=profile.setup_xent_epochs)
        # validation curves are not used here; a few scenes keep them cheap
        short = replace(splits, val=splits.val[:profile.setup_val_scenes])
        try:
            with clock.listening(training.log):
                inputs.sel_params, sel_epochs = training.train_selector(
                    short, synonyms, inputs.sel_cfg, train_cfg)
                inputs.cap_params, cap_epochs = training.pretrain_captioner(
                    short, cap_cfg, train_cfg)
        except training.TrainingDiverged as exc:
            raise GateFailure(f"finite_losses: set-up {exc}") from exc
        for ep in sel_epochs + cap_epochs:
            finite(ep["loss"], "set-up training loss")
    clock.mark()
    return inputs, clock


def setup(prog, profile: Profile, train: bool) -> tuple[Inputs, dict]:
    """Set up ``setup_repeats`` times; every repeat must give the same inputs."""
    hash_of = prog["numerics"].checkpoint_hash
    runs = []
    for _ in range(profile.setup_repeats):
        inputs, clock = build_inputs(prog, profile, train)
        intervals = clock.intervals()
        times = {"raw_s": sum(iv[0] for iv in intervals),
                 "scaled_s": sum(iv[1] for iv in intervals),
                 "gen_dataset_s": intervals[0][0]}
        splits = inputs.splits
        hashes = {"scenes": digest([s.to_dict() for s in splits.captioner_train
                                    + splits.val + splits.test])}
        if train:
            hashes["selector"] = hash_of(inputs.sel_params)
            hashes["captioner"] = hash_of(inputs.cap_params)
        runs.append((inputs, times, hashes))
    if any(h != runs[0][2] for _, _, h in runs):
        raise GateFailure("setup_repeat: set-up outputs differ between repeats")
    info = {
        "setup_s": statistics.median(t["scaled_s"] for _, t, _ in runs),
        "setup_raw_s": [t["raw_s"] for _, t, _ in runs],
        "gen_dataset_ms": 1e3 * statistics.median(
            t["gen_dataset_s"] for _, t, _ in runs),
        "hashes": runs[0][2],
    }
    return runs[-1][0], info


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class EvalSelector:
    """Selector-mode decoding of test scenes, one scene per call."""

    unit = "scene"

    def __init__(self, prog, inputs: Inputs, profile: Profile, seed: int):
        self.prog, self.inputs = prog, inputs
        training = prog["training"]
        sel = {k: v.detach() for k, v in inputs.sel_params.items()}

        def count_of(scene):
            return len(training.constraints_for_mode(
                scene, "selector", inputs.cap_cfg.vocab, inputs.synonyms,
                inputs.sel_cfg, sel))

        self.scenes = stratified(inputs.splits.test, count_of,
                                 profile.eval_per_count, np.random.default_rng(seed))
        self.train_cfg = training.TrainConfig(seed=seed)

    def decode(self, scene):
        inp = self.inputs
        return self.prog["training"].decode_split(
            [scene], "selector", inp.cap_cfg, inp.cap_params, self.train_cfg,
            inp.synonyms, inp.sel_cfg, inp.sel_params)[0]

    def run(self, seconds: float, rec=None) -> dict:
        """One pass over the scenes, then more until ``seconds`` is used up."""
        n = len(self.scenes)
        outputs = []
        clock = SpeedClock(rec)
        clock.mark()
        start = perf_counter()
        while len(outputs) < n or (rec is None and perf_counter() - start < seconds):
            with rec.span("training.decode_split") if rec else nullcontext():
                outputs.append(self.decode(self.scenes[len(outputs) % n]))
            clock.mark()
        first = outputs[:n]
        captions = [[o.scene_id, o.caption] for o in first]
        for i, o in enumerate(outputs):
            if o.caption != first[i % n].caption:
                raise GateFailure(f"repeat_identical: scene {o.scene_id} decoded "
                                  f"differently on a repeat pass")
            if o.finished and not o.satisfied:
                raise GateFailure(f"constraints_met: scene {o.scene_id} finished "
                                  f"without all of {o.constraints}")
        report = self.score(first, rec)
        intervals = clock.intervals()
        raw, scaled = per_position([intervals[j::n] for j in range(n)])
        latencies = [iv[0] for iv in intervals]
        tail_s, tail_pct = tail(latencies)
        n_constrained = sum(1 for o in first if o.constraints)
        rate = n / robust_total(scaled)
        return {
            "attempted": len(outputs),
            "failed": sum(1 for o in outputs if not (o.finished and o.satisfied)),
            "work_per_s": rate,
            "first_pass_s": sum(iv[1] for iv in intervals[:n]),
            "named": {
                "decode_scenes_per_s": rate,
                "decode_scenes_per_s_raw": n / robust_total(raw),
                "decode_scene_ms_p50": 1e3 * statistics.median(latencies),
                "decode_scene_ms_tail": tail_pct and 1e3 * tail_s,
                "decode_scene_tail_percentile": tail_pct,
                "decode_scene_samples": len(latencies),
                "passes": len(outputs) / n,
                "eval_cider_d_out": report["out_domain"]["cider_d"],
                "eval_f1_out": report["out_domain"]["f1_average"],
                "eval_cider_d_in": report["in_domain"]["cider_d"],
                "constraint_satisfaction": (
                    sum(1 for o in first if o.constraints and o.satisfied)
                    / n_constrained if n_constrained else 1.0),
                "constraint_counts": [len(o.constraints) for o in first],
            },
            "digests": {"captions": digest(captions)},
        }

    def score(self, outputs, rec) -> dict:
        metrics = self.prog["metrics"]
        records = [metrics.EvalRecord(scene_id=s.scene_id, generated=o.caption,
                                      references=s.references)
                   for s, o in zip(self.scenes, outputs)]
        with rec.span("metrics.eval_report") if rec else nullcontext():
            return metrics.eval_report(records, list(self.inputs.data_cfg.held_out),
                                       self.inputs.synonyms)


def repeat(once, seconds: float, traced: bool) -> list[dict]:
    """Call ``once`` at least once, then again while another call still fits
    in ``seconds``; every call must produce the same digests."""
    results, walls = [], []
    start = perf_counter()
    while not results or (not traced and perf_counter() - start
                          + statistics.mean(walls) <= seconds):
        t0 = perf_counter()
        results.append(once())
        walls.append(perf_counter() - t0)
    for r in results[1:]:
        if r["digests"] != results[0]["digests"]:
            raise GateFailure("repeat_identical: a repeat produced different outputs")
    return results


class TrainXent:
    """Selector BCE training, then captioner teacher-forced pre-training,
    both from initialisation and with their validation passes."""

    unit = "training sample"

    def __init__(self, prog, inputs: Inputs, profile: Profile, seed: int):
        self.prog, self.inputs = prog, inputs
        self.train_cfg = prog["training"].TrainConfig(
            seed=seed, batch_size=profile.batch_size, warmup=profile.warmup,
            selector_epochs=profile.xent_selector_epochs,
            xent_epochs=profile.xent_captioner_epochs)
        # short epochs, so that each is timed against the speed around it
        rng = np.random.default_rng(seed)
        splits = inputs.splits

        def pick(scenes, n):
            return [scenes[i] for i in sorted(rng.permutation(len(scenes))[:n])]

        self.splits = replace(
            splits,
            captioner_train=pick(splits.captioner_train, profile.xent_train_scenes),
            selector_train=pick(splits.selector_train, profile.xent_train_scenes),
            val=pick(splits.val, profile.xent_val_scenes))
        self.n_sel = len(self.splits.selector_train)
        self.n_cap = sum(len(s.references) for s in self.splits.captioner_train)

    def once(self, rec=None) -> dict:
        """Both phases; the clock marks each phase start and each epoch."""
        training = self.prog["training"]
        inp, cfg = self.inputs, self.train_cfg
        clock = SpeedClock(rec)
        phases = []
        try:
            with clock.listening(training.log):
                clock.mark()
                with rec.span("training.train_selector") if rec else nullcontext():
                    phases.append(training.train_selector(
                        self.splits, inp.synonyms, inp.sel_cfg, cfg))
                clock.mark()
                with rec.span("training.pretrain_captioner") if rec else nullcontext():
                    phases.append(training.pretrain_captioner(
                        self.splits, inp.cap_cfg, cfg))
        except training.TrainingDiverged as exc:
            # the diverged phase and every phase after it count as failed
            total = self.n_sel * cfg.selector_epochs + self.n_cap * cfg.xent_epochs
            done = self.n_sel * cfg.selector_epochs if phases else 0
            raise GateFailure(f"finite_losses: {exc}", total, total - done) from exc
        (sel_params, sel_epochs), (cap_params, cap_epochs) = phases
        for ep in sel_epochs + cap_epochs:
            finite(ep["loss"], f"epoch {ep['epoch']} training loss")
        n_sel_marks = cfg.selector_epochs + 1
        if len(clock.marks) != n_sel_marks + cfg.xent_epochs + 1:
            raise GateFailure("epoch_log: expected one log line per epoch")
        hash_of = self.prog["numerics"].checkpoint_hash
        return {
            "sel_epochs": clock.intervals(0, n_sel_marks),
            "cap_epochs": clock.intervals(n_sel_marks),
            "val_selection_f1": sel_epochs[-1]["val_selection_f1"],
            "val_ppl": finite(cap_epochs[-1]["val_perplexity"], "validation perplexity"),
            "digests": {"selector": hash_of(sel_params),
                        "captioner": hash_of(cap_params)},
        }

    def run(self, seconds: float, rec=None) -> dict:
        results = repeat(lambda: self.once(rec), seconds, rec is not None)
        cfg = self.train_cfg

        def median_epoch(key, which):
            return statistics.median(iv[which] for r in results for iv in r[key])

        sel_s, cap_s = median_epoch("sel_epochs", 1), median_epoch("cap_epochs", 1)
        per_rep = self.n_sel * cfg.selector_epochs + self.n_cap * cfg.xent_epochs
        first = results[0]
        return {
            "attempted": per_rep * len(results),
            "failed": 0,
            "work_per_s": (self.n_sel + self.n_cap) / (sel_s + cap_s),
            "first_pass_s": sum(iv[1] for iv in first["sel_epochs"] + first["cap_epochs"]),
            "named": {
                "selector_scenes_per_s": self.n_sel / sel_s,
                "xent_samples_per_s": self.n_cap / cap_s,
                "selector_scenes_per_s_raw": self.n_sel / median_epoch("sel_epochs", 0),
                "xent_samples_per_s_raw": self.n_cap / median_epoch("cap_epochs", 0),
                "val_selection_f1": first["val_selection_f1"],
                "val_ppl": first["val_ppl"],
                "repeats": len(results),
            },
            "digests": first["digests"],
        }


class FinetuneScst:
    """One self-critical epoch over constrained decodes from the set-up
    captioner, followed by its validation CIDEr-D decode."""

    unit = "fine-tuning scene"

    def __init__(self, prog, inputs: Inputs, profile: Profile, seed: int):
        self.prog, self.inputs = prog, inputs
        training = prog["training"]

        def count_of(scene):
            return len(training.build_training_constraints(
                scene, inputs.synonyms, inputs.cap_cfg.vocab))

        splits = inputs.splits
        rng = np.random.default_rng(seed)
        self.splits = replace(
            splits,
            captioner_train=stratified(splits.captioner_train, count_of,
                                       profile.scst_train_per_count, rng),
            val=stratified(splits.val, count_of, profile.scst_val_per_count, rng))
        self.train_cfg = training.TrainConfig(
            seed=seed, rl_epochs=1, batch_size=profile.scst_batch_size,
            rl_lr=profile.rl_lr)

    def once(self, rec=None) -> dict:
        """One call; the clock marks its start, every search and its end."""
        training, numerics = self.prog["training"], self.prog["numerics"]
        inp = self.inputs
        n_train = len(self.splits.captioner_train)
        attempted = n_train + len(self.splits.val)
        params = {k: numerics.Tensor(v.data.copy(), requires_grad=True)
                  for k, v in inp.cap_params.items()}
        clock = SpeedClock(rec)
        probe = tracer.SearchProbe(on_done=clock.mark)
        clock.mark()
        try:
            with tracer.patched([(training, "run_grid_search",
                                  probe.wrap(training.run_grid_search))]), \
                    rec.span("training.finetune_scst_dgbs") if rec else nullcontext():
                params, epochs = training.finetune_scst_dgbs(
                    self.splits, inp.cap_cfg, params, self.train_cfg, inp.synonyms)
        except training.TrainingDiverged as exc:
            raise GateFailure(f"finite_losses: {exc}", attempted, attempted) from exc
        clock.mark()
        outcomes = probe.outcomes
        if len(outcomes) != attempted:
            raise GateFailure(f"search_count: expected {attempted} searches, "
                              f"saw {len(outcomes)}")
        for o in outcomes:
            if o["best_finished"] and not o["best_satisfied"]:
                raise GateFailure("constraints_met: a finished fine-tuning "
                                  "decode misses a constraint")
        train, val = outcomes[:n_train], outcomes[n_train:]
        skipped = sum(1 for o in train if o["finished"] < 2)
        return {
            "attempted": attempted,
            "failed": skipped + sum(
                1 for o in val if not (o["best_finished"] and o["best_satisfied"])),
            "skipped": skipped,
            "intervals": clock.intervals(),
            "val_cider_d": finite(epochs[-1]["val_cider_d"], "validation CIDEr-D"),
            "mean_beam_reward": finite(float(epochs[-1]["mean_beam_reward"]),
                                       "mean beam reward"),
            "digests": {"captioner": numerics.checkpoint_hash(params),
                        "decodes": digest([o["tokens"] for o in outcomes])},
        }

    def run(self, seconds: float, rec=None) -> dict:
        results = repeat(lambda: self.once(rec), seconds, rec is not None)
        # interval i ends when search i returns; the last one is the rest
        # of the call after the final search
        raw, scaled = per_position(list(zip(*(r["intervals"] for r in results))))
        n_train = len(self.splits.captioner_train)
        rate = n_train / robust_total(scaled)
        first = results[0]
        return {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "work_per_s": rate,
            "first_pass_s": sum(iv[1] for iv in first["intervals"]),
            "named": {
                "scst_scenes_per_s": rate,
                "scst_scenes_per_s_raw": n_train / robust_total(raw),
                "scst_skipped_scenes": first["skipped"],
                "val_cider_d": first["val_cider_d"],
                "mean_beam_reward": first["mean_beam_reward"],
                "repeats": len(results),
            },
            "digests": first["digests"],
        }


WORKLOAD_CLASSES = {"eval_selector": EvalSelector, "train_xent": TrainXent,
                    "finetune_scst": FinetuneScst}


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        profile: Profile = DEFAULT) -> tuple[dict, dict]:
    """Returns (result object, record). Raises GateFailure or ProgramMissing."""
    prog = import_program()
    inputs, setup_info = setup(prog, profile, train=workload != "train_xent")
    work = WORKLOAD_CLASSES[workload](prog, inputs, profile, seed)
    res = work.run(seconds)
    attempted, failed = res["attempted"], res["failed"]
    metrics = {
        "setup_s": {"value": setup_info["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "share"},
        "work_per_s": {"value": res["work_per_s"], "unit": "1/s"},
    }
    record = {
        "workload": workload,
        "unit": work.unit,
        "env": environment(seed, profile),
        "setup": setup_info,
        "digests": res["digests"],
        "named": res["named"] | {"attempted": attempted, "failed": failed,
                                 "failed_frac": failed / attempted},
        "end_to_end": {k: v["value"] for k, v in metrics.items()},
    }
    if trace:
        metrics = traced(prog, work, res, setup_info, record)
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def traced(prog, work, res: dict, setup_info: dict, record: dict) -> dict:
    """One traced pass of the fixed work: per-layer metrics and overhead."""
    rec = tracer.SpanRecorder()
    targets = tracer.tracing_targets(rec, prog["training"], prog["numerics"],
                                     prog["captioner"])
    with tracer.patched(targets):
        t0 = perf_counter()
        traced_res = work.run(0.0, rec)
        wall = perf_counter() - t0
    wall -= sum(s[tracer.END] - s[tracer.START] for s in rec.spans
                if s[tracer.NAME] == "bench.calibration")
    if traced_res["digests"] != res["digests"]:
        raise GateFailure("trace_identical: the traced pass changed the outputs")
    scst_train = (len(work.splits.captioner_train)
                  if isinstance(work, FinetuneScst) else 0)
    layers = tracer.layer_metrics(rec.spans, wall, scst_train)
    layers["data.gen_dataset.ms"] = setup_info["gen_dataset_ms"]
    layers["trace.overhead_share"] = (traced_res["first_pass_s"]
                                      / res["first_pass_s"] - 1.0)
    record["trace"] = {"spans": len(rec.spans), "wall_s": wall,
                       "untraced_first_pass_s": res["first_pass_s"],
                       "traced_first_pass_s": traced_res["first_pass_s"],
                       "traced_named": traced_res["named"]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except ProgramMissing as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    except GateFailure as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted,
                          "failed": exc.failed, "metrics": {}}))
        return 1
    print("record " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
