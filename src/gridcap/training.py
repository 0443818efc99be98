"""Training phases and evaluation decoding.

Three phases, strictly ordered and parameter-isolated: selector training
(weighted binary cross-entropy on mention targets), captioner pre-training
(teacher-forced cross-entropy on the filtered split), and reward fine-tuning
(self-critical policy gradient where each beam candidate from the constrained
search is scored by the consensus metric against the mean-of-beam baseline,
with gradients flowing through every token, constraint words included). All
three pack under block masks, one pass per minibatch or, in fine-tuning, per
``SCST_PASS_ROWS`` decoder rows. Both captioner phases score with the one
weighted scorer, ``captioner.weighted_logprob``: one teacher-forced pass
over the trie of each scene's distinct proper prefixes, a pre-training
minibatch's references or a fine-tuning scene's candidates.

The parameters choose the op set (``numerics.op_set``). Only a pass that a
backward follows, the minibatch loss of each of the three phases, is given
the parameter tensors and runs on the taped ops. Every other pass is given
the parameters' arrays (``numerics.arrays_of``), so it runs on
``numerics.ARRAY_OPS`` and builds no tensor: the validation passes
(selection F1, perplexity), the encodes and selections of every decode, and
the searches.

Gradients are released after each update: every minibatch loop drops the
parameters' ``grad`` buffers as soon as the Adam step that reads them is
done, so no validation pass, hash or caller sees them, and no phase returns
parameters that hold one.

Every decode, whether a fine-tuning beam, a validation pass or an
evaluation, is one ``run_grid_search`` call made by ``_search_scene`` on the
scene's ``SceneStepModel``, which it builds with an encode on arrays.
Fine-tuning scores a minibatch's candidates afterwards, in packed passes,
each with one taped encode of its scenes. A search returns the ``n_best``
best finished decodes as ``finished`` and drops every live hypothesis that
can no longer change them. Fine-tuning asks for the beam size: those are a
scene's candidates, all rewarded against one build of the scene's reference
vectors. ``decode_split`` (evaluation and fine-tuning's validation) reads
only ``best``, so it asks for 1.
Every epoch record counts its Adam steps as ``updates``. Evaluation reports
its searches' work, and each fine-tuning epoch that of its training
searches and of its validation pass, as one ``decoder_counts`` dict.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .captioner import (CaptionerConfig, SceneStepModel, encode,
                        init_captioner_params, weighted_logprob, xent_loss)
from .data import DatasetConfig, HeldoutSplits, SceneRecord
# sequence_logprob is not called here: bench/tracer.py wraps this binding
from .decoder import (ConstraintSet, GridResult, decoder_counts,  # noqa: F401
                      run_grid_search, sequence_logprob)
from .metrics import EvalRecord, IdfTable, ReferenceVectors, cider_d, eval_report
from .numerics import (AdamState, Tensor, adam_step, arrays_of, check_at_least,
                       noam_lr, zero_grads)
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
        if not (np.isfinite(self.rl_lr) and self.rl_lr > 0):
            raise ValueError("rl_lr must be finite and positive")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _batches(order: np.ndarray, size: int):
    for i in range(0, len(order), size):
        yield order[i:i + size]


def _check_finite(value: float, what: str) -> float:
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite {what}")
    return value


def _train_epochs(phase: str, params, items, minibatch_loss, val_key: str,
                  validate, model_dim: int, num_epochs: int,
                  train_cfg: TrainConfig, rng: np.random.Generator) -> list[dict]:
    """Pre-training: Adam under the Noam schedule over shuffled minibatches
    of ``items``, one forward and backward each, the gradients dropped after
    each update; returns the epoch records.

    ``minibatch_loss(batch)`` gives the mean loss of a list of items, and
    ``validate()`` each epoch record's ``val_key`` value. Each epoch logs
    one INFO line containing " epoch ".
    """
    state = AdamState()
    records = []
    for epoch in range(num_epochs):
        order = rng.permutation(len(items))
        total, steps_before = 0.0, state.step
        for batch in _batches(order, train_cfg.batch_size):
            loss = minibatch_loss([items[i] for i in batch])
            total += _check_finite(loss.item(), f"{phase} loss") * len(batch)
            nm.backward(loss)
            adam_step(params, state, noam_lr(state.step + 1, model_dim,
                                             train_cfg.warmup))
            zero_grads(params)
        records.append({
            "epoch": epoch,
            "loss": total / max(1, len(items)),
            val_key: validate(),
            "updates": state.step - steps_before,
        })
        log.info("%s epoch %d loss %.4f %s %.4f", phase, epoch,
                 records[-1]["loss"], val_key, records[-1][val_key])
    return records


# ---------------------------------------------------------------------------
# selector phase
# ---------------------------------------------------------------------------


def selector_proposals(scene: SceneRecord, cfg: SelectorConfig):
    """Features, class words and kept detections of one scene; it reads no
    reference.

    Proposals are truncated to the top max_proposals by confidence, keeping
    the original ordering of the survivors.
    """
    order = sorted(range(len(scene.detections)),
                   key=lambda i: (-scene.detections[i].score, i))
    kept = sorted(order[: cfg.max_proposals])
    dets = [scene.detections[i] for i in kept]
    feats = np.stack([extract_features(d, scene.W, scene.H) for d in dets])
    return feats, np.array([d.class_word for d in dets]), dets


def scene_selector_inputs(scene: SceneRecord, cfg: SelectorConfig,
                          synonyms: dict[str, list[str]]):
    """``selector_proposals`` of one scene, then its mention targets."""
    feats, classes, dets = selector_proposals(scene, cfg)
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


def _packed_scenes(prepared):
    """Packed ``scene_selector_inputs``: features, classes, targets, segments."""
    feats, classes, _, targets = zip(*prepared)
    segments = np.repeat(np.arange(len(prepared)), [len(c) for c in classes])
    return (np.concatenate(feats), np.concatenate(classes),
            np.concatenate(targets), segments)


def _selection_val_f1(prepared, cfg, params, batch_size: int) -> float:
    """Mean selection F1 of prepared scenes, ``batch_size`` per forward on
    the parameters' arrays."""
    scores_f1, arrays = [], arrays_of(params)
    for chunk in _batches(prepared, batch_size):
        feats, classes, _, segments = _packed_scenes(chunk)
        scores = selector_forward(feats, classes, cfg, arrays, segments)
        for b, (_, _, dets, targets) in enumerate(chunk):
            selected = select_constraints(scores[segments == b], dets)
            gt_words = {d.class_word for d, t in zip(dets, targets) if t > 0.5}
            scores_f1.append(selection_f1(selected, gt_words))
    return float(np.mean(scores_f1)) if scores_f1 else 0.0


def train_selector(splits: HeldoutSplits, synonyms: dict[str, list[str]],
                   cfg: SelectorConfig, train_cfg: TrainConfig):
    """Adam with warmup on packed weighted-BCE minibatches; returns (params, epoch log)."""
    rng = _rng(train_cfg.seed, 1)
    params = init_selector_params(cfg, rng)
    prepared = [scene_selector_inputs(s, cfg, synonyms) for s in splits.selector_train]
    val = [scene_selector_inputs(s, cfg, synonyms) for s in splits.val]

    def minibatch_bce(batch):
        feats, classes, targets, segments = _packed_scenes(batch)
        scores = selector_forward(feats, classes, cfg, params, segments)
        return weighted_bce(scores, targets, BCE_LAMBDA0, BCE_LAMBDA1, segments)

    epochs = _train_epochs(
        "selector", params, prepared, minibatch_bce, "val_selection_f1",
        lambda: _selection_val_f1(val, cfg, params, train_cfg.batch_size),
        cfg.embed_dim, train_cfg.selector_epochs, train_cfg, rng)
    return params, epochs


# ---------------------------------------------------------------------------
# captioner pre-training
# ---------------------------------------------------------------------------


def _caption_ids(ref: list[str], vocab) -> list[int]:
    return [vocab.bos_id] + vocab.encode(ref) + [vocab.eos_id]


def _packed_samples(samples, vocab):
    """(scene, reference) samples as one packed minibatch: the region rows of
    their distinct scenes, each row's scene number, the caption ids and each
    caption's scene number, scenes numbered by first appearance."""
    numbers: dict[int, int] = {}
    regions, segments, scene_of = [], [], []
    for scene, _ in samples:
        if id(scene) not in numbers:
            numbers[id(scene)] = len(numbers)
            regions.append(np.array(scene.region_visual))
            segments.append(np.full(len(scene.region_visual), numbers[id(scene)]))
        scene_of.append(numbers[id(scene)])
    captions = [_caption_ids(ref, vocab) for _, ref in samples]
    return np.concatenate(regions), np.concatenate(segments), captions, scene_of


def _minibatch_xent(samples, cfg: CaptionerConfig, params) -> Tensor:
    """Mean per-sample cross-entropy of one packed minibatch: one encoder and
    one decoder pass on the parameters' op set."""
    regions, segments, captions, scene_of = _packed_samples(samples, cfg.vocab)
    enc = encode(regions, cfg, params, segments)
    return xent_loss(captions, enc, cfg, params, scene_of, segments)


def _val_perplexity(scenes, cfg: CaptionerConfig, params, batch_size: int) -> float:
    """exp of the mean per-sample cross-entropy on the parameters' arrays,
    packed ``batch_size`` samples at a time (dense masks grow with the
    packed rows squared)."""
    samples = [(scene, ref) for scene in scenes for ref in scene.references]
    arrays = arrays_of(params)
    total = sum(_minibatch_xent(chunk, cfg, arrays).item() * len(chunk)
                for chunk in _batches(samples, batch_size))
    return float(np.exp(total / len(samples))) if samples else float("inf")


def pretrain_captioner(splits: HeldoutSplits, cfg: CaptionerConfig,
                       train_cfg: TrainConfig):
    """Teacher-forced cross-entropy on the held-out-filtered training split,
    one packed forward and backward per minibatch."""
    rng = _rng(train_cfg.seed, 2)
    params = init_captioner_params(cfg, rng)
    samples = [(scene, ref) for scene in splits.captioner_train
               for ref in scene.references]
    epochs = _train_epochs(
        "captioner", params, samples,
        lambda batch: _minibatch_xent(batch, cfg, params), "val_perplexity",
        lambda: _val_perplexity(splits.val, cfg, params, train_cfg.batch_size),
        cfg.d_model, train_cfg.xent_epochs, train_cfg, rng)
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


def _search_scene(scene: SceneRecord, words, cfg: CaptionerConfig, params, k, *,
                  n_best, trace=False) -> GridResult:
    """The grid search of ``scene`` under the constraint ``words``, beam
    ``k``, over the whole budget. Its model is built on the arrays of
    ``params`` (tensors or arrays), so its encode builds no tensor."""
    arrays = arrays_of(params)
    model = SceneStepModel(encode(np.array(scene.region_visual), cfg, arrays), cfg,
                           arrays)
    return run_grid_search(model, ConstraintSet.from_words(words, cfg.vocab), k=k,
                           T=cfg.max_len - 1, trace=trace, n_best=n_best)


# Decoder rows per SCST scoring pass: the packed scenes' distinct proper
# prefixes (``captioner.prefix_tree`` rows). Dense self-attention masks grow
# with the rows squared, so one pass over a whole minibatch costs more than
# a few passes of about this size; a scene over the cap is a pass alone.
SCST_PASS_ROWS = 128


@dataclass(eq=False)  # arrays have no value equality
class ScoredScene:
    """A fine-tuning scene to score: its region vectors, its BOS-led
    candidates and their advantages (not all zero). Its scoring pass
    encodes it on the tape."""

    regions: np.ndarray
    seqs: list[tuple[int, ...]]
    adv: np.ndarray
    rows: int = field(init=False)  # prefix-tree rows: distinct proper prefixes

    def __post_init__(self):
        self.rows = len({s[:t] for s in self.seqs for t in range(1, len(s))})


def _scoring_passes(scored: list[ScoredScene]) -> list[list[ScoredScene]]:
    """Whole scenes in order, in passes of at most ``SCST_PASS_ROWS`` trie
    rows; a scene over the cap is a pass of its own."""
    passes, rows = [], 0
    for scene in scored:
        if passes and rows + scene.rows <= SCST_PASS_ROWS:
            passes[-1].append(scene)
            rows += scene.rows
        else:
            passes.append([scene])
            rows = scene.rows
    return passes


def _policy_loss(group: list[ScoredScene], cfg: CaptionerConfig, params,
                 batch_size: int) -> Tensor:
    """One taped ``encode`` of the scenes of ``group``, packed with
    segments, and one ``weighted_logprob`` pass over their candidates
    against it: every candidate weighs -advantage / (candidates ·
    batch_size)."""
    number = np.arange(len(group))
    segments = np.repeat(number, [len(g.regions) for g in group])
    enc = encode(np.concatenate([g.regions for g in group]), cfg, params, segments)
    return weighted_logprob(
        [s for g in group for s in g.seqs],
        np.concatenate([-g.adv / (len(g.seqs) * batch_size) for g in group]),
        enc, cfg, params, np.repeat(number, [len(g.seqs) for g in group]), segments)


def finetune_scst_dgbs(splits: HeldoutSplits, cfg: CaptionerConfig,
                       params: dict[str, Tensor], train_cfg: TrainConfig,
                       synonyms: dict[str, list[str]]):
    """Self-critical fine-tuning; the beam comes from constrained search.

    Each of the search's k best finished decodes (k is the beam size) is a
    candidate and is rewarded, advantages are centered on the beam mean,
    and the policy term is the differentiable sequence
    log-probability, so constraint words receive gradient like any other
    token. Scenes with an empty constraint set fall back to unconstrained
    search. Each scene of a minibatch is encoded and searched alone, on the
    parameters' arrays. The scenes with a non-zero advantage are then
    scored together, whole and in minibatch order, in packed passes of at
    most ``SCST_PASS_ROWS`` decoder rows, each with one taped encode of its
    scenes and one backward; a minibatch that scored any
    scene makes one Adam step. A scene's rows are the trie of its
    candidates' distinct proper prefixes, and each (row, next token) edge
    is picked once, weighted by the candidates through it (see
    ``captioner.weighted_logprob``). After each epoch the validation split is
    decoded in oracle mode and scored by CIDEr-D; the first best-scoring
    epoch's parameters are returned, and only that epoch's record has
    ``kept`` true. Training runs on a copy: the caller's ``params`` are left
    as they were.

    A scene whose search finishes fewer than two candidates has nothing to
    compare and is skipped. Each epoch record counts ``scored_scenes`` and
    ``skipped_scenes``, and ``zero_advantage_scenes``: scored scenes whose
    candidates all earned one reward, so no policy term was built. It also
    counts ``scoring_passes``, the backwards of the policy loss, and
    ``scored_rows``, the decoder rows those passes scored, and holds the
    ``decoder_counts`` of its training searches (``search_decoder``) and of
    its validation pass (``val_decoder``).
    ``mean_beam_reward`` averages over scored scenes only and is 0.0 when
    none was scored, which is logged as a warning.
    """
    vocab = cfg.vocab
    reward_idf = IdfTable.from_references([s.references for s in splits.captioner_train])
    rng = _rng(train_cfg.seed, 3)
    state = AdamState()
    scenes = list(splits.captioner_train)
    epochs = []
    best_val, best_epoch = -1.0, 0
    best_snapshot = {k: v.data for k, v in params.items()}  # never written
    params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}
    for epoch in range(train_cfg.rl_epochs):
        order = rng.permutation(len(scenes))
        reward_sum, reward_n, skipped, zero_adv = 0.0, 0, 0, 0
        passes, scored_rows, searches = 0, 0, []
        steps_before = state.step
        for batch in _batches(order, train_cfg.batch_size):
            scored = []
            for idx in batch:
                scene = scenes[idx]
                words = build_training_constraints(scene, synonyms, vocab)
                result = _search_scene(scene, words, cfg, params, train_cfg.beam_size,
                                       n_best=train_cfg.beam_size)
                searches.append(result)
                cands = result.finished
                if len(cands) < 2:
                    skipped += 1
                    continue
                refs = ReferenceVectors.build(scene.references, reward_idf)
                rewards = np.array([
                    cider_d(vocab.decode(_strip_eos(h.tokens, vocab)), refs,
                            reward_idf)
                    for h in cands])
                baseline = rewards.mean()
                reward_sum += baseline
                reward_n += 1
                adv = rewards - baseline
                if not adv.any():
                    zero_adv += 1
                    continue
                scored.append(ScoredScene(
                    np.array(scene.region_visual),
                    [(vocab.bos_id,) + h.tokens for h in cands], adv))
            for group in _scoring_passes(scored):
                loss = _policy_loss(group, cfg, params, len(batch))
                _check_finite(loss.item(), "policy loss")
                nm.backward(loss)
                passes += 1
                scored_rows += sum(g.rows for g in group)
            if scored:
                adam_step(params, state, train_cfg.rl_lr)
            zero_grads(params)
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
            "zero_advantage_scenes": zero_adv,
            "scoring_passes": passes,
            "scored_rows": scored_rows,
            "updates": state.step - steps_before,
            "search_decoder": decoder_counts(searches),
            "val_decoder": decoder_counts([o.search for o in val]),
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
        top = sorted(scene.detections,
                     key=lambda d: (-d.score, d.class_word))[:int(mode[-1])]
        return rank_class_words(top, [d.score for d in top])
    if mode == "oracle":
        return build_training_constraints(scene, synonyms, vocab)
    if mode == "selector":
        if sel_cfg is None or sel_params is None:
            raise ValueError("selector mode needs a trained selector")
        feats, classes, dets = selector_proposals(scene, sel_cfg)
        scores = selector_forward(feats, classes, sel_cfg, arrays_of(sel_params))
        return select_constraints(scores, dets)
    raise ValueError(f"unknown decode mode {mode!r}")


@dataclass
class DecodeOutput:
    """A scene's best decode under ``mode``, and the search that found it
    (its trace's token ids as words)."""

    scene_id: str
    mode: str
    constraints: list[str]
    caption: list[str]
    logprob: float
    finished: bool
    satisfied: bool
    search: GridResult


def decode_split(scenes: list[SceneRecord], mode: str, cfg: CaptionerConfig,
                 cap_params: dict, train_cfg: TrainConfig, synonyms,
                 sel_cfg: SelectorConfig | None = None,
                 sel_params: dict | None = None,
                 trace: bool = False) -> list[DecodeOutput]:
    """Each scene's best decode under ``mode``, its trace's token ids as words.

    Each search is asked for its best decode only (``n_best=1``), so the
    trace and counters describe that pruned search. Encodes and selections
    run on the parameters' arrays (tensors or arrays may be given), so no
    tensor is built."""
    vocab = cfg.vocab
    outputs = []
    for scene in scenes:
        words = constraints_for_mode(scene, mode, vocab, synonyms,
                                     sel_cfg, sel_params)
        result = _search_scene(scene, words, cfg, cap_params, train_cfg.beam_size,
                               n_best=1, trace=trace)
        caption = vocab.decode(_strip_eos(result.best.tokens, vocab))
        satisfied = all(w in caption for w in words)
        for hyp in (h for row in result.trace for h in row["hyps"]):
            hyp["tokens"] = vocab.decode(hyp["tokens"])
        outputs.append(DecodeOutput(
            scene_id=scene.scene_id, mode=mode, constraints=words,
            caption=caption, logprob=result.best.logprob,
            finished=result.best.finished, satisfied=satisfied, search=result))
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
    ``decoder`` entry, the searches' ``decoder_counts``.
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
    report["decoder"] = decoder_counts([o.search for o in outputs])
    return report, outputs
