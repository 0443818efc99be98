"""Training phases and evaluation decoding.

Three phases, strictly ordered and parameter-isolated: selector training
(weighted binary cross-entropy on mention targets), captioner pre-training
(teacher-forced cross-entropy on the filtered split), and reward
fine-tuning (self-critical policy gradient where each beam candidate from
the constrained search is scored by the consensus metric against the
mean-of-beam baseline, with gradients flowing through every token of the
candidate, constraint words included).

Every decode, whether a fine-tuning beam, a validation pass or an
evaluation, is one ``run_grid_search`` call made by ``_decode_for_scene``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .captioner import (CaptionerConfig, SceneStepModel, encode, frozen,
                        init_captioner_params, xent_loss)
from .data import DatasetConfig, HeldoutSplits, SceneRecord
from .decoder import ConstraintSet, run_grid_search, sequence_logprob
from .metrics import EvalRecord, IdfTable, cider_d, eval_report
from .numerics import (AdamState, Tensor, adam_step, check_at_least, noam_lr,
                       zero_grads)
from .selector import (BCE_LAMBDA0, BCE_LAMBDA1, SelectorConfig,
                       build_ground_truth, extract_features,
                       init_selector_params, mentions_any, rank_class_words,
                       select_constraints, selector_forward, weighted_bce)

log = logging.getLogger(__name__)

EVAL_MODES = ("none", "top1", "top2", "top3", "selector", "oracle")


class TrainingDiverged(Exception):
    """Loss went non-finite; the run cannot continue."""


@dataclass
class TrainConfig:
    batch_size: int = 16
    warmup: int = 400
    rl_lr: float = 1e-5
    selector_epochs: int = 25
    xent_epochs: int = 18
    rl_epochs: int = 3
    beam_size: int = 5
    seed: int = 0

    def __post_init__(self):
        check_at_least(self, batch_size=1, warmup=1, selector_epochs=1,
                       xent_epochs=1, rl_epochs=1, beam_size=1, seed=0)
        if self.rl_lr <= 0:
            raise ValueError("rl_lr must be positive")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _batches(order: np.ndarray, size: int):
    for i in range(0, len(order), size):
        yield order[i:i + size]


def _check_finite(value: float, what: str) -> float:
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite {what}")
    return value


# ---------------------------------------------------------------------------
# selector phase
# ---------------------------------------------------------------------------


def scene_selector_inputs(scene: SceneRecord, cfg: SelectorConfig,
                          synonyms: dict[str, list[str]]):
    """Features, class ids, kept detections, mention targets for one scene.

    Proposals are truncated to the top max_proposals by confidence, keeping
    the original ordering of the survivors.
    """
    order = sorted(range(len(scene.detections)),
                   key=lambda i: (-scene.detections[i].score, i))
    kept = sorted(order[: cfg.max_proposals])
    dets = [scene.detections[i] for i in kept]
    feats = np.stack([extract_features(d, scene.W, scene.H) for d in dets])
    classes = np.array([d.class_id for d in dets], dtype=np.intp)
    targets = build_ground_truth(replace(scene, detections=dets), synonyms)
    return feats, classes, dets, targets


def selection_f1(selected, target_words) -> float:
    sel, gt = set(selected), set(target_words)
    if not sel and not gt:
        return 1.0
    hits = len(sel & gt)
    if hits == 0:
        return 0.0
    p = hits / len(sel)
    r = hits / len(gt)
    return 2 * p * r / (p + r)


def _selection_val_f1(scenes, cfg, params, synonyms) -> float:
    scores_f1 = []
    froz = frozen(params)
    for scene in scenes:
        feats, classes, dets, targets = scene_selector_inputs(scene, cfg, synonyms)
        scores = selector_forward(feats, classes, cfg, froz)
        selected = select_constraints(scores, dets)
        gt_words = {d.class_word for d, t in zip(dets, targets) if t > 0.5}
        scores_f1.append(selection_f1(selected, gt_words))
    return float(np.mean(scores_f1)) if scores_f1 else 0.0


def train_selector(splits: HeldoutSplits, synonyms: dict[str, list[str]],
                   cfg: SelectorConfig, train_cfg: TrainConfig):
    """Adam plus warmup schedule on weighted BCE; returns (params, epoch log)."""
    rng = _rng(train_cfg.seed, 1)
    params = init_selector_params(cfg, rng)
    state = AdamState()
    prepared = [scene_selector_inputs(s, cfg, synonyms) for s in splits.selector_train]
    epochs = []
    step = 0
    for epoch in range(train_cfg.selector_epochs):
        order = rng.permutation(len(prepared))
        total = 0.0
        for batch in _batches(order, train_cfg.batch_size):
            zero_grads(params)
            for idx in batch:
                feats, classes, _, targets = prepared[idx]
                scores = selector_forward(feats, classes, cfg, params)
                loss = weighted_bce(scores, targets, BCE_LAMBDA0, BCE_LAMBDA1)
                total += _check_finite(loss.item(), "selector loss")
                nm.backward(nm.mul(loss, 1.0 / len(batch)))
            step += 1
            adam_step(params, state, noam_lr(step, cfg.embed_dim, train_cfg.warmup))
        epochs.append({
            "epoch": epoch,
            "loss": total / max(1, len(prepared)),
            "val_selection_f1": _selection_val_f1(splits.val, cfg, params, synonyms),
        })
        log.info("selector epoch %d loss %.4f val-F1 %.3f", epoch,
                 epochs[-1]["loss"], epochs[-1]["val_selection_f1"])
    return params, epochs


# ---------------------------------------------------------------------------
# captioner pre-training
# ---------------------------------------------------------------------------


def _caption_ids(ref: list[str], vocab) -> list[int]:
    return [vocab.bos_id] + vocab.encode(ref) + [vocab.eos_id]


def _val_perplexity(scenes, cfg: CaptionerConfig, params) -> float:
    froz = frozen(params)
    losses = []
    for scene in scenes:
        enc = encode(np.array(scene.region_visual), cfg, froz)
        for ref in scene.references:
            ids = _caption_ids(ref, cfg.vocab)
            losses.append(xent_loss(ids, enc, cfg, froz).item())
    return float(np.exp(np.mean(losses))) if losses else float("inf")


def pretrain_captioner(splits: HeldoutSplits, cfg: CaptionerConfig,
                       train_cfg: TrainConfig):
    """Teacher-forced cross-entropy on the held-out-filtered training split."""
    rng = _rng(train_cfg.seed, 2)
    params = init_captioner_params(cfg, rng)
    state = AdamState()
    samples = [(scene, ref) for scene in splits.captioner_train
               for ref in scene.references]
    epochs = []
    step = 0
    for epoch in range(train_cfg.xent_epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for batch in _batches(order, train_cfg.batch_size):
            zero_grads(params)
            for idx in batch:
                scene, ref = samples[idx]
                enc = encode(np.array(scene.region_visual), cfg, params)
                loss = xent_loss(_caption_ids(ref, cfg.vocab), enc, cfg, params)
                total += _check_finite(loss.item(), "captioner loss")
                nm.backward(nm.mul(loss, 1.0 / len(batch)))
            step += 1
            adam_step(params, state, noam_lr(step, cfg.d_model, train_cfg.warmup))
        epochs.append({
            "epoch": epoch,
            "loss": total / max(1, len(samples)),
            "val_perplexity": _val_perplexity(splits.val, cfg, params),
        })
        log.info("captioner epoch %d loss %.4f val-ppl %.2f", epoch,
                 epochs[-1]["loss"], epochs[-1]["val_perplexity"])
    return params, epochs


# ---------------------------------------------------------------------------
# reward fine-tuning through constrained decoding
# ---------------------------------------------------------------------------


def build_training_constraints(scene: SceneRecord, synonyms, vocab) -> list[str]:
    """Ranked class words of the detections that the references mention,
    by detection confidence, kept when in the vocabulary.

    This is the fine-tuning constraint source; evaluation may use the
    selector instead.
    """
    tokens = [t for ref in scene.references for t in ref]
    dets = [d for d in scene.detections if mentions_any(tokens, [d.class_word], synonyms)]
    return [w for w in rank_class_words(dets, [d.score for d in dets])
            if w in vocab.token_to_id]


def _strip_eos(tokens, vocab) -> list[int]:
    ids = list(tokens)
    if ids and ids[-1] == vocab.eos_id:
        ids.pop()
    return ids


def _decode_for_scene(scene, words, vocab, cfg, froz_params, k, trace=False):
    enc = encode(np.array(scene.region_visual), cfg, froz_params)
    model = SceneStepModel(enc, cfg, froz_params)
    constraints = ConstraintSet.from_words(words, vocab)
    return run_grid_search(model, constraints, k=k, T=cfg.max_len - 1,
                           trace=trace, token_names=vocab.decode)


def finetune_scst_dgbs(splits: HeldoutSplits, cfg: CaptionerConfig,
                       params: dict[str, Tensor], train_cfg: TrainConfig,
                       synonyms: dict[str, list[str]]):
    """Self-critical fine-tuning; the beam comes from constrained search.

    Every finished beam candidate is rewarded, advantages are centered on
    the beam mean, and the policy term is the differentiable sequence
    log-probability, so constraint words receive gradient like any other
    token. Scenes with an empty constraint set fall back to unconstrained
    search. After each epoch the validation split is decoded in oracle mode
    and scored by CIDEr-D; the first best-scoring epoch's parameters are
    returned, and only that epoch's record has ``kept`` true.

    A scene whose search finishes fewer than two candidates has nothing to
    compare and is skipped. Each epoch record counts ``scored_scenes`` and
    ``skipped_scenes``; ``mean_beam_reward`` averages over scored scenes
    only and is 0.0 when none was scored, which is logged as a warning.
    """
    vocab = cfg.vocab
    reward_idf = IdfTable.from_references([s.references for s in splits.captioner_train])
    rng = _rng(train_cfg.seed, 3)
    state = AdamState()
    scenes = list(splits.captioner_train)
    epochs = []
    best_val, best_epoch = -1.0, 0
    best_snapshot = {k: v.data.copy() for k, v in params.items()}
    for epoch in range(train_cfg.rl_epochs):
        order = rng.permutation(len(scenes))
        reward_sum, reward_n, skipped = 0.0, 0, 0
        for batch in _batches(order, train_cfg.batch_size):
            zero_grads(params)
            touched = False
            for idx in batch:
                scene = scenes[idx]
                words = build_training_constraints(scene, synonyms, vocab)
                froz = frozen(params)
                result = _decode_for_scene(scene, words, vocab, cfg, froz,
                                           train_cfg.beam_size)
                cands = result.finished[: train_cfg.beam_size]
                if len(cands) < 2:
                    skipped += 1
                    continue
                rewards = np.array([
                    cider_d(vocab.decode(_strip_eos(h.tokens, vocab)),
                            scene.references, reward_idf)
                    for h in cands])
                baseline = rewards.mean()
                reward_sum += baseline
                reward_n += 1
                adv = rewards - baseline
                if not adv.any():
                    continue
                enc_live = encode(np.array(scene.region_visual), cfg, params)
                live = SceneStepModel(enc_live, cfg, params)
                loss = None
                for h, a in zip(cands, adv):
                    if a == 0.0:
                        continue
                    term = nm.mul(sequence_logprob(h.tokens, live),
                                  -float(a) / len(cands))
                    loss = term if loss is None else nm.add(loss, term)
                _check_finite(loss.item(), "policy loss")
                nm.backward(nm.mul(loss, 1.0 / len(batch)))
                touched = True
            if touched:
                adam_step(params, state, train_cfg.rl_lr)
        val = decode_split(splits.val, "oracle", cfg, params, train_cfg, synonyms)
        val_cider = float(np.mean([cider_d(o.caption, s.references, reward_idf)
                                   for s, o in zip(splits.val, val)])) if val else 0.0
        if val_cider > best_val:
            best_val, best_epoch = val_cider, epoch
            best_snapshot = {k: v.data.copy() for k, v in params.items()}
        epochs.append({
            "epoch": epoch,
            "mean_beam_reward": reward_sum / max(1, reward_n),
            "val_cider_d": val_cider,
            "scored_scenes": reward_n,
            "skipped_scenes": skipped,
        })
        if reward_n == 0:
            log.warning("finetune epoch %d scored no scene: all %d finished "
                        "fewer than two candidates", epoch, skipped)
        log.info("finetune epoch %d reward %.3f val-CIDEr %.3f", epoch,
                 epochs[-1]["mean_beam_reward"], val_cider)
    for record in epochs:
        record["kept"] = record["epoch"] == best_epoch
    for k, v in params.items():
        v.data[...] = best_snapshot[k]
    return params, epochs


# ---------------------------------------------------------------------------
# evaluation decoding
# ---------------------------------------------------------------------------


def constraints_for_mode(scene: SceneRecord, mode: str, vocab, synonyms,
                         sel_cfg: SelectorConfig | None = None,
                         sel_params: dict | None = None) -> list[str]:
    if mode == "none":
        return []
    if mode in ("top1", "top2", "top3"):
        k = int(mode[-1])
        order = sorted(scene.detections, key=lambda d: (-d.score, d.class_word))
        words = []
        for d in order[:k]:
            if d.class_word not in words:
                words.append(d.class_word)
        return words
    if mode == "oracle":
        return build_training_constraints(scene, synonyms, vocab)
    if mode == "selector":
        if sel_cfg is None or sel_params is None:
            raise ValueError("selector mode needs a trained selector")
        feats, classes, dets, _ = scene_selector_inputs(scene, sel_cfg, synonyms)
        scores = selector_forward(feats, classes, sel_cfg, sel_params)
        return select_constraints(scores, dets)
    raise ValueError(f"unknown decode mode {mode!r}")


@dataclass
class DecodeOutput:
    scene_id: str
    mode: str
    constraints: list[str]
    caption: list[str]
    logprob: float
    finished: bool
    satisfied: bool
    trace: list[dict] = field(default_factory=list)
    step_calls: int = 0
    offered: int = 0
    kept: int = 0


def decode_split(scenes: list[SceneRecord], mode: str, cfg: CaptionerConfig,
                 cap_params: dict, train_cfg: TrainConfig, synonyms,
                 sel_cfg: SelectorConfig | None = None,
                 sel_params: dict | None = None,
                 trace: bool = False) -> list[DecodeOutput]:
    vocab = cfg.vocab
    froz = frozen(cap_params)
    sel_froz = frozen(sel_params) if sel_params else None
    outputs = []
    for scene in scenes:
        words = constraints_for_mode(scene, mode, vocab, synonyms,
                                     sel_cfg, sel_froz)
        result = _decode_for_scene(scene, words, vocab, cfg, froz,
                                   train_cfg.beam_size, trace=trace)
        caption = vocab.decode(_strip_eos(result.best.tokens, vocab))
        satisfied = all(w in caption for w in words)
        outputs.append(DecodeOutput(
            scene_id=scene.scene_id, mode=mode, constraints=words,
            caption=caption, logprob=result.best.logprob,
            finished=result.best.finished, satisfied=satisfied,
            trace=result.trace, step_calls=result.step_calls,
            offered=result.offered, kept=result.kept))
    return outputs


def decode_eval(splits: HeldoutSplits, mode: str, data_cfg: DatasetConfig,
                cfg: CaptionerConfig, cap_params: dict,
                train_cfg: TrainConfig, synonyms,
                sel_cfg: SelectorConfig | None = None,
                sel_params: dict | None = None,
                trace: bool = False):
    """Decode the test split under one constraint mode and score it.

    Returns (report dict, decode outputs). The report mirrors the metric
    module's in/out-domain layout and adds constraint bookkeeping and a
    ``decoder`` entry summing the searches' work counters.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown decode mode {mode!r}")
    outputs = decode_split(splits.test, mode, cfg, cap_params, train_cfg,
                           synonyms, sel_cfg, sel_params, trace=trace)
    records = [EvalRecord(scene_id=s.scene_id, generated=o.caption,
                          references=s.references)
               for s, o in zip(splits.test, outputs)]
    report = eval_report(records, list(data_cfg.held_out), synonyms)
    n_constrained = sum(1 for o in outputs if o.constraints)
    report["mode"] = mode
    report["decodes"] = len(outputs)
    report["constrained_decodes"] = n_constrained
    report["constraint_satisfaction"] = (
        sum(1 for o in outputs if o.constraints and o.satisfied)
        / n_constrained if n_constrained else 1.0)
    report["mean_constraints"] = (
        float(np.mean([len(o.constraints) for o in outputs])) if outputs else 0.0)
    report["decoder"] = {
        "step_calls": sum(o.step_calls for o in outputs),
        "offered": sum(o.offered for o in outputs),
        "kept": sum(o.kept for o in outputs),
        "unfinished_fallbacks": sum(1 for o in outputs if not o.finished),
    }
    return report, outputs
