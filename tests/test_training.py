import contextlib
import dataclasses
import io
import json
import logging
import math
import os
import shutil
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridcap import captioner, cli
from gridcap import numerics as nm
from gridcap import selector as selector_module
from gridcap import training as tr
from gridcap.captioner import (CaptionerConfig, Vocabulary, encode,
                               init_captioner_params, prefix_tree, tree_layout,
                               tree_logprobs, xent_loss)
from gridcap.data import (DatasetConfig, apply_heldout, build_vocabulary,
                          default_synonyms, gen_dataset)
from gridcap.decoder import sequence_logprob
from gridcap.metrics import ReferenceVectors
from gridcap.numerics import (Tensor, checkpoint_hash, load_checkpoint,
                              save_checkpoint)
from gridcap.selector import (SelectorConfig, init_selector_params,
                              selector_forward)
from gridcap.training import (TrainConfig, build_training_constraints,
                              constraints_for_mode, decode_eval,
                              finetune_scst_dgbs, pretrain_captioner,
                              selection_f1, train_selector)

from test_captioner import chain_logprobs
from test_numerics import chain_attention, chain_ffn


@pytest.fixture(scope="module")
def tiny_world():
    dcfg = DatasetConfig(num_train=24, num_eval=12, seed=13)
    scenes = gen_dataset(dcfg)
    synonyms = default_synonyms(dcfg.classes)
    splits = apply_heldout(scenes, dcfg, synonyms)
    vocab = build_vocabulary(dcfg)
    return dcfg, scenes, synonyms, splits, vocab


@pytest.fixture(scope="module")
def selector(tiny_world):
    """A selector trained for one epoch, which selects words on every
    validation and test scene."""
    _, _, synonyms, splits, _ = tiny_world
    cfg = SelectorConfig()
    params, _ = train_selector(splits, synonyms, cfg,
                               TrainConfig(selector_epochs=1, warmup=50, seed=11))
    return cfg, params


def tensors_made(monkeypatch) -> list:
    """A list that gets every ``Tensor`` built from now on."""
    made, init = [], Tensor.__init__

    def counted_init(tensor, *args, **kwargs):
        made.append(tensor)
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted_init)
    return made


def tiny_cap_cfg(vocab):
    return CaptionerConfig(vocab=vocab, d_model=16, num_enc_layers=1,
                           num_dec_layers=1, num_heads=2, num_memory=2,
                           embed_dim=8, ffn_dim=32, max_len=16, visual_dim=16)


class TestSelectorPhase:
    def test_loss_decreases_over_first_epochs(self, tiny_world):
        _, _, synonyms, splits, _ = tiny_world
        tcfg = TrainConfig(selector_epochs=5, warmup=100, seed=3)
        _, epochs = train_selector(splits, synonyms, SelectorConfig(), tcfg)
        losses = [e["loss"] for e in epochs]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_constant_half_predictor_loss_is_ln2(self, tiny_world):
        # zero parameters force every score to 0.5; with unit loss weights
        # the weighted loss collapses to plain BCE at 0.5, which is ln 2
        _, _, synonyms, splits, _ = tiny_world
        cfg = SelectorConfig()
        params = init_selector_params(cfg, np.random.default_rng(0))
        for p in params.values():
            p.data[...] = 0.0
        from gridcap.selector import selector_forward, weighted_bce
        from gridcap.training import scene_selector_inputs
        feats, classes, _, targets = scene_selector_inputs(
            splits.selector_train[0], cfg, synonyms)
        scores = selector_forward(feats, classes, cfg, params)
        loss = weighted_bce(scores, targets, 1.0, 1.0)
        assert loss.item() == pytest.approx(math.log(2), rel=1e-12)

    def test_class_words_group_regions_as_class_indices_do(self, tiny_world):
        # a class is its word: packed scenes group by word exactly as by the
        # word's index in data.classes, bit for bit
        dcfg, _, synonyms, splits, _ = tiny_world
        cfg = SelectorConfig()
        params = init_selector_params(cfg, np.random.default_rng(4))
        prepared = [tr.scene_selector_inputs(s, cfg, synonyms)
                    for s in splits.selector_train[:8]]
        feats, words, _, segments = tr._packed_scenes(prepared)
        assert any(len({d.class_word for d in dets}) < len(dets)
                   for _, _, dets, _ in prepared)  # a class repeats in a scene
        assert words.tolist() == [d.class_word for _, _, dets, _ in prepared
                                  for d in dets]
        from gridcap.selector import selector_forward
        ids = [dcfg.classes.index(w) for w in words]
        np.testing.assert_array_equal(
            selector_forward(feats, words, cfg, params, segments).data,
            selector_forward(feats, ids, cfg, params, segments).data)

    def test_selection_f1_edge_cases(self):
        assert selection_f1([], set()) == 1.0
        assert selection_f1(["a"], set()) == 0.0
        assert selection_f1(["a", "b"], {"a"}) == pytest.approx(2 / 3)


class TestCaptionerPhase:
    def test_overfits_small_subset(self, tiny_world):
        # The captioner sees only the regions, so it cannot tell apart the
        # references of one scene; with all 2-3 of them the lowest reachable
        # loss is 0.156. One reference per scene puts the floor at 0.
        dcfg, _, synonyms, splits, vocab = tiny_world
        train = [dataclasses.replace(s, references=s.references[:1])
                 for s in splits.captioner_train[:10]]
        sub = tr.HeldoutSplits(captioner_train=train, selector_train=[],
                               val=splits.val[:2], test=[])
        cfg = tiny_cap_cfg(vocab)
        tcfg = TrainConfig(xent_epochs=60, warmup=80, batch_size=2, seed=5)
        _, epochs = pretrain_captioner(sub, cfg, tcfg)
        assert epochs[-1]["loss"] < 0.1

    def test_beats_uniform_after_one_epoch(self, tiny_world):
        _, _, _, splits, vocab = tiny_world
        cfg = tiny_cap_cfg(vocab)
        # 31 samples at batch 4 make 8 updates; at the default batch of 16
        # an epoch is 2 warmup-sized steps and the random init decides.
        tcfg = TrainConfig(xent_epochs=1, warmup=50, batch_size=4, seed=6)
        _, epochs = pretrain_captioner(splits, cfg, tcfg)
        assert epochs[-1]["val_perplexity"] < len(vocab)

    def test_epoch_records_count_updates(self, tiny_world):
        _, _, synonyms, splits, vocab = tiny_world
        tcfg = TrainConfig(xent_epochs=1, selector_epochs=1, warmup=50,
                           batch_size=4, seed=6)
        _, epochs = pretrain_captioner(splits, tiny_cap_cfg(vocab), tcfg)
        samples = sum(len(s.references) for s in splits.captioner_train)
        assert epochs[0]["updates"] == math.ceil(samples / 4)
        tcfg = dataclasses.replace(tcfg, batch_size=5)
        _, epochs = train_selector(splits, synonyms, SelectorConfig(), tcfg)
        assert epochs[0]["updates"] == math.ceil(len(splits.selector_train) / 5)

    def test_scores_no_unread_row(self, tiny_world, monkeypatch):
        # two references of one scene share "BOS a", and one of another scene
        # starts the same way: each (scene, proper prefix) is scored once,
        # and no caption's last token is a row
        _, scenes, _, _, vocab = tiny_world
        cfg = tiny_cap_cfg(vocab)
        params = init_captioner_params(cfg, np.random.default_rng(0))
        a, b, c = vocab.tokens[4:7]
        samples = [(scenes[0], [a, b]), (scenes[0], [a, c]), (scenes[1], [a, b])]
        scorer, scored = captioner.tree_logprobs, []

        def spy(ids, parents, rows, targets, enc_out, cfg, params, scenes,
                enc_segments):
            scored.append((ids, parents, scenes))
            return scorer(ids, parents, rows, targets, enc_out, cfg, params, scenes,
                          enc_segments)

        monkeypatch.setattr(captioner, "tree_logprobs", spy)
        tr._minibatch_xent(samples, cfg, params)
        ((ids, parents, row_scenes),) = scored
        prefix = []
        for tok, parent in zip(ids.tolist(), parents.tolist()):
            prefix.append((prefix[parent] if parent >= 0 else ()) + (tok,))
        captions = [tr._caption_ids(ref, vocab) for _, ref in samples]
        distinct = {(scene, tuple(cap[:t]))
                    for scene, cap in zip([0, 0, 1], captions)
                    for t in range(1, len(cap))}
        assert len(ids) == len(distinct) == 7
        assert set(zip(row_scenes.tolist(), prefix)) == distinct

    def test_seeded_runs_produce_identical_checkpoints(self, tiny_world):
        _, _, _, splits, vocab = tiny_world
        cfg = tiny_cap_cfg(vocab)
        tcfg = TrainConfig(xent_epochs=2, warmup=50, seed=7)
        p1, _ = pretrain_captioner(splits, cfg, tcfg)
        p2, _ = pretrain_captioner(splits, cfg, tcfg)
        assert checkpoint_hash(p1) == checkpoint_hash(p2)


def pretrain(phase, tiny_world, tcfg):
    """Run one pre-training phase on the tiny world."""
    _, _, synonyms, splits, vocab = tiny_world
    if phase == "selector":
        return train_selector(splits, synonyms, SelectorConfig(), tcfg)
    return pretrain_captioner(splits, tiny_cap_cfg(vocab), tcfg)


@pytest.mark.parametrize("phase,loss_name", [("selector", "weighted_bce"),
                                             ("captioner", "xent_loss")])
class TestPretrainLoop:
    def test_non_finite_loss_names_the_phase(self, tiny_world, monkeypatch,
                                             phase, loss_name):
        monkeypatch.setattr(tr, loss_name, lambda *a, **kw: Tensor(np.nan))
        tcfg = TrainConfig(selector_epochs=1, xent_epochs=1, seed=3)
        with pytest.raises(tr.TrainingDiverged, match=f"non-finite {phase} loss"):
            pretrain(phase, tiny_world, tcfg)

    def test_one_epoch_line_per_epoch(self, tiny_world, caplog, phase, loss_name):
        tcfg = TrainConfig(selector_epochs=3, xent_epochs=3, warmup=50, seed=3)
        with caplog.at_level(logging.INFO, logger=tr.log.name):
            pretrain(phase, tiny_world, tcfg)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == tr.log.name and r.levelno == logging.INFO]
        assert len(lines) == 3
        assert all(line.startswith(f"{phase} epoch {i} ")
                   for i, line in enumerate(lines))


def chain_ffn_block(x, params, pre):
    """``captioner.ffn`` on the op chain that ``numerics.ffn_block`` replaced."""
    return chain_ffn(nm.op_set(params), x, *(params[f"{pre}.{name}"] for name in (
        "ln_gain", "ln_bias", "w1", "b1", "w2", "b2")))


def chain_attention_block(x, params, pre, num_heads, mask, kv=None, memory=None):
    """``captioner._attention`` on the op chain that
    ``numerics.attention_block`` replaced."""
    k, v = (params[f"{pre}.wk"], params[f"{pre}.wv"]) if kv is None else kv
    mem_k, mem_v = ((None, None) if memory is None
                    else (params[f"{memory}.k"], params[f"{memory}.v"]))
    return chain_attention(nm.op_set(params), x, params[f"{pre}.ln_gain"],
                           params[f"{pre}.ln_bias"], params[f"{pre}.wq"], k, v,
                           params.get(f"{pre}.wo"), mem_k, mem_v, num_heads, mask)


class TestFusedBlocksTrainAsTheChain:
    def test_checkpoints_and_epochs_equal_the_op_chains(self, tiny_world, monkeypatch):
        # 3 decoder layers read the encoder output, so its gradient sums
        # over 6 key and value products: a fused op that summed them in
        # another order would move the captioner's bits
        _, _, synonyms, splits, vocab = tiny_world
        cap_cfg = dataclasses.replace(tiny_cap_cfg(vocab), num_enc_layers=2,
                                      num_dec_layers=3)
        tcfg = TrainConfig(selector_epochs=2, xent_epochs=2, warmup=50, seed=5)

        def run():
            sel, sel_epochs = train_selector(splits, synonyms, SelectorConfig(), tcfg)
            cap, cap_epochs = pretrain_captioner(splits, cap_cfg, tcfg)
            return checkpoint_hash(sel), sel_epochs, checkpoint_hash(cap), cap_epochs

        fused = run()

        def unused(*args):
            raise AssertionError("a fused block ran on the op chains")

        for module in (captioner, selector_module):
            monkeypatch.setattr(module, "ffn", chain_ffn_block)
            monkeypatch.setattr(module, "_attention", chain_attention_block)
        monkeypatch.setattr(nm, "ffn_block_forward", unused)
        monkeypatch.setattr(nm, "attention_block_forward", unused)
        assert run() == fused


class TestConstraintSources:
    def test_training_constraints_are_detected_and_mentioned(self, tiny_world):
        _, scenes, synonyms, _, vocab = tiny_world
        for scene in scenes[:20]:
            words = build_training_constraints(scene, synonyms, vocab)
            detected = {d.class_word for d in scene.detections}
            mentioned = {t for ref in scene.references for t in ref}
            mentioned |= {t[:-1] for t in mentioned if t.endswith("s")}
            for w in words:
                assert w in detected
                assert w in mentioned
            assert len(words) <= 5

    def test_topk_modes(self, tiny_world):
        _, scenes, synonyms, _, vocab = tiny_world
        scene = scenes[0]
        by_conf = sorted(scene.detections, key=lambda d: (-d.score, d.class_word))
        top1 = constraints_for_mode(scene, "top1", vocab, synonyms)
        assert top1 == [by_conf[0].class_word]
        top3 = constraints_for_mode(scene, "top3", vocab, synonyms)
        assert len(top3) <= 3
        assert constraints_for_mode(scene, "none", vocab, synonyms) == []

    def test_oracle_matches_training_rule(self, tiny_world):
        _, scenes, synonyms, _, vocab = tiny_world
        scene = scenes[1]
        assert (constraints_for_mode(scene, "oracle", vocab, synonyms)
                == build_training_constraints(scene, synonyms, vocab))

    def test_unknown_mode_rejected(self, tiny_world):
        _, scenes, synonyms, _, vocab = tiny_world
        with pytest.raises(ValueError):
            constraints_for_mode(scenes[0], "best", vocab, synonyms)

    def test_selector_mode_reads_no_reference(self, tiny_world, selector):
        _, _, synonyms, splits, vocab = tiny_world
        sel_cfg, sel_params = selector

        def words(scene):
            return constraints_for_mode(scene, "selector", vocab, synonyms,
                                        sel_cfg, sel_params)

        scenes = splits.val + splits.test
        given = [words(s) for s in scenes]
        assert any(given)
        assert [words(dataclasses.replace(s, references=[])) for s in scenes] == given


class TestGradientFreePasses:
    """Decoding and validation run on parameter arrays: given tensors, they
    build none."""

    def test_selector_mode_decode_builds_no_tensor(self, tiny_world, pretrained,
                                                   selector, monkeypatch):
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        sel_cfg, sel_params = selector
        made = tensors_made(monkeypatch)
        outputs = tr.decode_split(splits.test[:4], "selector", cfg, pre,
                                  TrainConfig(beam_size=3), synonyms, sel_cfg,
                                  sel_params)
        assert made == [] and len(outputs) == 4
        assert any(o.constraints for o in outputs)

    def test_validation_passes_build_no_tensor(self, tiny_world, pretrained,
                                               selector, monkeypatch):
        _, _, synonyms, splits, vocab = tiny_world
        cfg, pre = pretrained
        sel_cfg, sel_params = selector
        prepared = [tr.scene_selector_inputs(s, sel_cfg, synonyms) for s in splits.val]
        samples = [(s, ref) for s in splits.val for ref in s.references]
        taped = sum(tr._minibatch_xent(chunk, cfg, pre).item() * len(chunk)
                    for chunk in tr._batches(samples, 5))
        made = tensors_made(monkeypatch)
        ppl = tr._val_perplexity(splits.val, cfg, pre, 5)
        f1 = tr._selection_val_f1(prepared, sel_cfg, sel_params, 5)
        assert made == []
        assert ppl == float(np.exp(taped / len(samples)))
        assert 0.0 <= f1 <= 1.0

    def test_sequence_logprob_scores_a_search_model(self, tiny_world, pretrained,
                                                     monkeypatch):
        # a search model holds parameter arrays, so its candidates are scored
        # on the array op set, to the log-probs the search summed
        _, _, synonyms, splits, vocab = tiny_world
        cfg, pre = pretrained
        scene = splits.captioner_train[0]
        search, models = tr.run_grid_search, []

        def spy(model, *args, **kwargs):
            models.append(model)
            return search(model, *args, **kwargs)

        monkeypatch.setattr(tr, "run_grid_search", spy)
        result = tr._search_scene(
            scene, build_training_constraints(scene, synonyms, vocab), cfg, pre, 5,
            n_best=5)
        model, = models
        assert len(result.finished) >= 2
        got = sequence_logprob([h.tokens for h in result.finished], model)
        np.testing.assert_allclose(got.data, [h.logprob for h in result.finished],
                                   rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def passes(tiny_world):
    """Each pass that runs on its parameters' op set, by name: its initial
    parameters and a function of them that runs the pass on one scene."""
    _, scenes, _, _, vocab = tiny_world
    cfg, sel_cfg = tiny_cap_cfg(vocab), SelectorConfig()
    cap = init_captioner_params(cfg, np.random.default_rng(21))
    regions = np.array(scenes[0].region_visual)
    feats, classes, _ = tr.selector_proposals(scenes[0], sel_cfg)
    seqs = [[vocab.bos_id, 5, 6, vocab.eos_id], [vocab.bos_id, 5, 7, vocab.eos_id]]
    tree = prefix_tree(seqs, cfg)[:4]
    return {
        "encode": (cap, lambda p: encode(regions, cfg, p)),
        "selector_forward": (init_selector_params(sel_cfg, np.random.default_rng(22)),
                             lambda p: selector_forward(feats, classes, sel_cfg, p)),
        "tree_logprobs": (cap, lambda p: tree_logprobs(
            *tree, encode(regions, cfg, p), cfg, p)),
        "xent_loss": (cap, lambda p: xent_loss(seqs, encode(regions, cfg, p), cfg, p)),
    }


@pytest.mark.parametrize("name", ["encode", "selector_forward", "tree_logprobs",
                                  "xent_loss"])
class TestParametersChooseOpSet:
    """A pass takes no op set: parameter arrays run it on ``ARRAY_OPS``,
    tensors on the tape."""

    def test_arrays_give_an_array_and_build_no_tensor(self, passes, name,
                                                      monkeypatch):
        params, run = passes[name]
        arrays = nm.arrays_of(params)
        made = tensors_made(monkeypatch)
        got = run(arrays)
        assert made == []
        assert isinstance(got, np.ndarray | np.float64)

    def test_tensors_give_a_taped_result_that_backpropagates(self, passes, name):
        params, run = passes[name]
        params = fresh_copy(params)
        taped = run(params)
        assert isinstance(taped, Tensor) and taped.requires_grad
        nm.backward(nm.tsum(taped))
        assert any(p.grad is not None and p.grad.any() for p in params.values())


@pytest.fixture(scope="module")
def pretrained(tiny_world):
    """A captioner whose constrained searches finish two or more candidates
    on every training scene, so fine-tuning has scenes to score; after
    1-2 epochs it finishes fewer on all of them and every scene is skipped."""
    _, _, _, splits, vocab = tiny_world
    cfg = tiny_cap_cfg(vocab)
    tcfg = TrainConfig(xent_epochs=20, warmup=50, batch_size=16, seed=8)
    params, _ = pretrain_captioner(splits, cfg, tcfg)
    return cfg, params


def fresh_copy(params):
    return {k: Tensor(v.data.copy(), requires_grad=True)
            for k, v in params.items()}


class TestFinetune:
    def test_equal_rewards_leave_parameters_untouched(self, tiny_world,
                                                      pretrained, monkeypatch):
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(xent_epochs=1, rl_epochs=1, warmup=50, seed=8)
        params = fresh_copy(pre)
        before = {k: v.data.copy() for k, v in params.items()}
        monkeypatch.setattr(tr, "cider_d", lambda *a, **kw: 1.0)
        params, epochs = finetune_scst_dgbs(splits, cfg, params, tcfg, synonyms)
        assert epochs[0]["scored_scenes"] >= 1
        assert epochs[0]["zero_advantage_scenes"] == epochs[0]["scored_scenes"]
        assert epochs[0]["updates"] == 0
        for k in params:
            assert (params[k].data == before[k]).all()
        assert epochs[0]["mean_beam_reward"] == pytest.approx(1.0)

    def test_finetune_updates_parameters_and_reports(self, tiny_world,
                                                     pretrained):
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(xent_epochs=2, rl_epochs=1, warmup=50, beam_size=3,
                           seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:6],
                               selector_train=[], val=splits.val[:3], test=[])
        params = fresh_copy(pre)
        before = checkpoint_hash(params)
        params, epochs = finetune_scst_dgbs(sub, cfg, params, tcfg, synonyms)
        assert len(epochs) == 1
        assert epochs[0]["scored_scenes"] >= 1
        assert epochs[0]["zero_advantage_scenes"] < epochs[0]["scored_scenes"]
        assert "val_cider_d" in epochs[0]
        assert checkpoint_hash(params) != before

    def test_leaves_its_input_alone(self, tiny_world, pretrained):
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(rl_epochs=1, beam_size=3, seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:6],
                               selector_train=[], val=splits.val[:2], test=[])
        given = fresh_copy(pre)
        before = checkpoint_hash(given)
        tuned, epochs = finetune_scst_dgbs(sub, cfg, given, tcfg, synonyms)
        assert epochs[0]["scored_scenes"] >= 1 and epochs[0]["updates"] >= 1
        assert checkpoint_hash(given) == before
        assert checkpoint_hash(tuned) != before

    def test_epoch_records_sum_their_searches(self, tiny_world, pretrained,
                                              monkeypatch):
        # an epoch's searches are its training scenes' and then its
        # validation pass's, one per scene; each dict sums its own
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(rl_epochs=2, beam_size=3, seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:6],
                               selector_train=[], val=splits.val[:3], test=[])
        search, results = tr.run_grid_search, []

        def spy(*args, **kwargs):
            results.append(search(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(tr, "run_grid_search", spy)
        _, epochs = finetune_scst_dgbs(sub, cfg, fresh_copy(pre), tcfg, synonyms)
        assert len(epochs) == 2 and len(results) == 2 * 9
        for record, start in zip(epochs, (0, 9)):
            for key, group in (("search_decoder", results[start:start + 6]),
                               ("val_decoder", results[start + 6:start + 9])):
                assert record[key] == {
                    "step_calls": sum(r.step_calls for r in group),
                    "step_rows": sum(r.step_rows for r in group),
                    "offered": sum(r.offered for r in group),
                    "kept": sum(r.kept for r in group),
                    "unfinished_fallbacks": sum(not r.best.finished for r in group),
                }, key

    def test_tapes_one_encode_per_scoring_pass(self, tiny_world, pretrained,
                                               monkeypatch):
        # every search (six training scenes, two validation decodes) encodes
        # its scene on arrays and builds no tensor; each scoring pass makes
        # one taped encode of all its scenes
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(rl_epochs=1, beam_size=3, seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:6],
                               selector_train=[], val=splits.val[:2], test=[])
        encode, calls = tr.encode, []

        def counted(regions, *args, **kwargs):
            before = len(made)
            out = encode(regions, *args, **kwargs)
            calls.append((len(regions), isinstance(out, Tensor), len(made) - before))
            return out

        made = tensors_made(monkeypatch)
        monkeypatch.setattr(tr, "encode", counted)
        monkeypatch.setattr(tr, "SCST_PASS_ROWS", 24)
        _, epochs = finetune_scst_dgbs(sub, cfg, fresh_copy(pre), tcfg, synonyms)
        record = epochs[0]
        assert record["zero_advantage_scenes"] < record["scored_scenes"]
        taped = [c for c in calls if c[1]]
        assert sorted(c for c in calls if not c[1]) == sorted(
            (len(s.region_visual), False, 0)
            for s in sub.captioner_train + sub.val)
        assert len(taped) == record["scoring_passes"] >= 2
        assert all(made > 0 for _, _, made in taped)
        # some pass packs several scenes
        assert len(taped) < record["scored_scenes"] - record["zero_advantage_scenes"]

    @pytest.mark.parametrize("cap_of", [
        lambda rows: sum(rows),
        lambda rows: rows[0] + rows[1],
        lambda rows: rows[1] - 1,
    ], ids=["one-pass", "split", "over-cap"])
    def test_packed_passes_equal_per_scene_losses(self, tiny_world, pretrained,
                                                  monkeypatch, cap_of):
        # scenes with different region counts, scored in packed passes under
        # the row cap, against each scene's own sequence_logprob loss
        _, _, _, splits, vocab = tiny_world
        cfg, pre = pretrained
        batch_size, rng = 6, np.random.default_rng(4)
        scenes = list({len(s.region_visual): s
                       for s in splits.captioner_train}.values())[:4]
        assert len(scenes) == 4
        packed, ref = fresh_copy(pre), fresh_copy(pre)
        scored, ref_loss = [], Tensor(0.0)
        for scene in scenes:
            regions = np.array(scene.region_visual)
            cands = [h.tokens for h in tr._search_scene(
                scene, [], cfg, pre, 3, n_best=3).finished]
            adv = rng.normal(size=len(cands))
            scored.append(tr.ScoredScene(
                regions, [(vocab.bos_id,) + c for c in cands], adv))
            lps = tr.sequence_logprob(cands, captioner.SceneStepModel(
                encode(regions, cfg, ref), cfg, ref))
            ref_loss = nm.add(ref_loss, nm.tsum(nm.mul(
                lps, Tensor(-adv / (len(cands) * batch_size)))))
        nm.backward(ref_loss)

        rows = [s.rows for s in scored]
        cap = cap_of(rows)
        monkeypatch.setattr(tr, "SCST_PASS_ROWS", cap)
        passes = tr._scoring_passes(scored)
        assert [s for group in passes for s in group] == scored
        assert all(len(g) == 1 or sum(s.rows for s in g) <= cap for g in passes)
        if cap < sum(rows):
            assert len(passes) >= 2
        if cap < rows[1]:
            assert [scored[1]] in passes
        total = 0.0
        for group in passes:
            loss = tr._policy_loss(group, cfg, packed, batch_size)
            total += loss.item()
            nm.backward(loss)
        assert abs(total - ref_loss.item()) <= 1e-12
        for k in ref:
            np.testing.assert_allclose(packed[k].grad, ref[k].grad,
                                       rtol=0, atol=1e-12, err_msg=k)

    def test_epoch_records_count_scoring_passes_and_rows(self, tiny_world,
                                                         pretrained, monkeypatch):
        # every beam of distinct captions earns distinct rewards, so every
        # scene with two candidates is scored: its trie rows are the distinct
        # proper prefixes of its BOS-led candidates
        _, _, synonyms, splits, vocab = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(rl_epochs=1, beam_size=3, batch_size=3, seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:6],
                               selector_train=[], val=splits.val[:1], test=[])
        search, beams = tr.run_grid_search, []

        def recorded(*args, **kwargs):
            result = search(*args, **kwargs)
            beams.append(result.finished)
            return result

        backward, backwards = nm.backward, []

        def counted(loss):
            backwards.append(loss)
            backward(loss)

        monkeypatch.setattr(tr, "run_grid_search", recorded)
        monkeypatch.setattr(nm, "backward", counted)
        monkeypatch.setattr(tr, "cider_d", lambda cand, *args: float(
            zlib.crc32(" ".join(cand).encode())))
        monkeypatch.setattr(tr, "SCST_PASS_ROWS", 24)
        _, epochs = finetune_scst_dgbs(sub, cfg, fresh_copy(pre), tcfg, synonyms)
        record = epochs[0]
        scored = [beam for beam in beams[:6] if len(beam) >= 2]
        assert record["zero_advantage_scenes"] == 0
        assert record["scored_scenes"] == len(scored) >= 2
        assert record["scored_rows"] == sum(
            len({(vocab.bos_id,) + h.tokens[:t] for h in beam
                 for t in range(len(h.tokens))}) for beam in scored)
        assert record["scoring_passes"] == len(backwards) >= 2

    def test_rewards_equal_per_candidate_cider_d(self, tiny_world, pretrained,
                                                 monkeypatch):
        # a beam's rewards score its candidates against reference vectors
        # built once, exactly as cider_d on the references would
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(rl_epochs=1, beam_size=3, seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:4],
                               selector_train=[], val=splits.val[:1], test=[])
        build, built = ReferenceVectors.build, {}

        def recording(cls, references, idf):
            vectors = build(references, idf)
            built[id(vectors)] = (vectors, references)
            return vectors

        cider, compared = tr.cider_d, []

        def checked(cand, refs, idf):
            got = cider(cand, refs, idf)
            if isinstance(refs, ReferenceVectors):
                compared.append(got == cider(cand, built[id(refs)][1], idf))
            return got

        monkeypatch.setattr(ReferenceVectors, "build", classmethod(recording))
        monkeypatch.setattr(tr, "cider_d", checked)
        _, epochs = finetune_scst_dgbs(sub, cfg, fresh_copy(pre), tcfg, synonyms)
        assert len(compared) >= 2 * epochs[0]["scored_scenes"] > 0
        assert all(compared)

    def test_non_finite_policy_loss_diverges(self, tiny_world, pretrained,
                                             monkeypatch):
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(rl_epochs=1, beam_size=3, seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:3],
                               selector_train=[], val=splits.val[:1], test=[])
        monkeypatch.setattr(tr, "cider_d", lambda *a, **kw: float("nan"))
        with pytest.raises(tr.TrainingDiverged, match="non-finite policy loss"):
            finetune_scst_dgbs(sub, cfg, fresh_copy(pre), tcfg, synonyms)

    def test_scenes_without_two_candidates_are_counted_and_warned(
            self, tiny_world, pretrained, monkeypatch, caplog):
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(rl_epochs=1, beam_size=3, seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:3],
                               selector_train=[], val=splits.val[:1], test=[])
        search = tr.run_grid_search

        def one_finished(*args, **kwargs):
            res = search(*args, **kwargs)
            return dataclasses.replace(res, finished=res.finished[:1])

        monkeypatch.setattr(tr, "run_grid_search", one_finished)
        params = fresh_copy(pre)
        before = checkpoint_hash(params)
        params, epochs = finetune_scst_dgbs(sub, cfg, params, tcfg, synonyms)
        assert epochs[0]["scored_scenes"] == 0
        assert epochs[0]["skipped_scenes"] == 3
        assert epochs[0]["mean_beam_reward"] == 0.0
        assert checkpoint_hash(params) == before
        assert "scored no scene" in caplog.text

    def test_returns_and_marks_the_first_best_epoch(self, tiny_world,
                                                    pretrained, monkeypatch):
        # validation scores high, low, high: epoch 0 is kept, not the last
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(rl_epochs=3, beam_size=3, seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:6],
                               selector_train=[], val=splits.val[:2], test=[])
        decode, hashes = tr.decode_split, []

        def scheduled_val(scenes, mode, cfg, params, *args, **kwargs):
            hashes.append(checkpoint_hash(params))
            outputs = decode(scenes, mode, cfg, params, *args, **kwargs)
            good = len(hashes) != 2
            return [dataclasses.replace(o, caption=s.references[0] if good else [])
                    for s, o in zip(scenes, outputs)]

        monkeypatch.setattr(tr, "decode_split", scheduled_val)
        params, epochs = finetune_scst_dgbs(sub, cfg, fresh_copy(pre), tcfg,
                                            synonyms)
        assert [e["kept"] for e in epochs] == [True, False, False]
        assert epochs[0]["val_cider_d"] == epochs[2]["val_cider_d"] > epochs[1]["val_cider_d"]
        assert hashes[0] != hashes[2]
        assert checkpoint_hash(params) == hashes[0]


class TestGradientsReleased:
    """Each phase drops its gradients after every update, so the parameters
    it returns hold none."""

    @pytest.mark.parametrize("phase", ["selector", "captioner"])
    def test_pretraining_returns_no_gradients(self, tiny_world, phase):
        tcfg = TrainConfig(selector_epochs=1, xent_epochs=1, warmup=50, seed=3)
        params, epochs = pretrain(phase, tiny_world, tcfg)
        assert epochs[0]["updates"] >= 1
        assert [k for k, p in params.items() if p.grad is not None] == []

    def test_finetune_returns_no_gradients(self, tiny_world, pretrained):
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(rl_epochs=1, beam_size=3, seed=9)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:6],
                               selector_train=[], val=splits.val[:2], test=[])
        params, epochs = finetune_scst_dgbs(sub, cfg, fresh_copy(pre), tcfg,
                                            synonyms)
        assert epochs[0]["updates"] >= 1
        assert [k for k, p in params.items() if p.grad is not None] == []


TREE_CFG = CaptionerConfig(vocab=Vocabulary(["red", "dog", "runs"]), d_model=8,
                           num_enc_layers=1, num_dec_layers=1, num_heads=2,
                           num_memory=2, embed_dim=4, ffn_dim=12, max_len=10,
                           visual_dim=3)
BOS, EOS = TREE_CFG.vocab.bos_id, TREE_CFG.vocab.eos_id
RED, DOG, RUNS = (TREE_CFG.vocab.token_to_id[w] for w in ("red", "dog", "runs"))
# a scene's distinct candidates, each BOS, up to max_len - 2 words, EOS
BEAMS = st.lists(st.lists(st.sampled_from([RED, DOG, RUNS]),
                          max_size=TREE_CFG.max_len - 2).map(
                     lambda words: (BOS, *words, EOS)),
                 min_size=1, max_size=5, unique=True)


class TestPrefixTree:
    """A scored scene's trie against per-candidate chain scoring."""

    @settings(max_examples=30, deadline=None)
    @given(beams=st.lists(BEAMS, min_size=1, max_size=2), seed=st.integers(0, 999))
    @example(beams=[[(BOS, EOS), (BOS, RED, DOG, DOG, RUNS, RED, EOS),
                     (BOS, RED, DOG, DOG, RUNS, DOG, RED, EOS)],
                    [(BOS, DOG, EOS), (BOS, RED, RUNS, EOS), (BOS, RUNS, EOS)]],
             seed=0)
    def test_trie_rows_and_loss_equal_chain_scoring(self, beams, seed):
        cfg, batch_size = TREE_CFG, 3
        rng = np.random.default_rng(seed)
        regions = [rng.normal(size=(n, cfg.visual_dim)) for n in (2, 3)]
        advs = [rng.normal(size=len(beam)) for beam in beams]
        base = init_captioner_params(cfg, np.random.default_rng(seed))
        tree_params, chain_params = fresh_copy(base), fresh_copy(base)
        group = [tr.ScoredScene(r, beam, adv)
                 for r, beam, adv in zip(regions, beams, advs)]
        for scene, beam in zip(group, beams):
            ids, parents, rows, targets, edge_of, _ = prefix_tree(beam, cfg)
            prefix = []
            for tok, parent in zip(ids.tolist(), parents.tolist()):
                prefix.append((prefix[parent] if parent >= 0 else ()) + (tok,))
            assert sorted(prefix) == sorted(
                {seq[:t] for seq in beam for t in range(1, len(seq))})
            assert scene.rows == len(prefix)
            depth, mask = tree_layout(parents)
            assert depth.tolist() == [len(p) - 1 for p in prefix]
            np.testing.assert_array_equal(
                ~mask, [[p[:len(q)] == q for q in prefix] for p in prefix])
            edges = list(zip(rows.tolist(), targets.tolist()))
            assert sorted(edges) == sorted(
                {(prefix.index(seq[:t]), seq[t]) for seq in beam
                 for t in range(1, len(seq))})
            assert [edges[e] for e in edge_of] == [
                (prefix.index(seq[:t]), seq[t]) for seq in beam
                for t in range(1, len(seq))]
        # packed, the scenes' tries stay apart: no prefix of two scenes merges
        *_, row_scenes = prefix_tree(
            [seq for beam in beams for seq in beam], cfg,
            np.repeat(np.arange(len(beams)), [len(beam) for beam in beams]))
        assert np.bincount(row_scenes).tolist() == [g.rows for g in group]

        loss = tr._policy_loss(group, cfg, tree_params, batch_size)
        nm.backward(loss)
        ref = Tensor(0.0)
        for r, beam, adv in zip(regions, beams, advs):
            enc = encode(r, cfg, chain_params)
            for seq, a in zip(beam, adv):
                ref = nm.add(ref, nm.mul(nm.tsum(chain_logprobs([seq], enc, cfg,
                                                                chain_params)),
                                         -a / (len(beam) * batch_size)))
        nm.backward(ref)
        assert abs(loss.item() - ref.item()) <= 1e-12
        for k in base:
            np.testing.assert_allclose(tree_params[k].grad, chain_params[k].grad,
                                       rtol=0, atol=1e-12, err_msg=k)


class TestDecodeEval:
    def test_report_shape_and_satisfaction(self, tiny_world):
        dcfg, _, synonyms, splits, vocab = tiny_world
        cfg = tiny_cap_cfg(vocab)
        tcfg = TrainConfig(xent_epochs=2, warmup=50, beam_size=3, seed=10)
        params, _ = pretrain_captioner(splits, cfg, tcfg)
        report, outputs = decode_eval(splits, "oracle", dcfg, cfg, params,
                                      tcfg, synonyms)
        assert report["decodes"] == len(splits.test)
        assert report["constraint_satisfaction"] == 1.0
        assert set(report["out_domain"]["f1_per_class"]) == set(dcfg.held_out)
        for out in outputs:
            for w in out.constraints:
                assert w in out.caption
        counts = report["decoder"]
        assert counts == {
            "step_calls": sum(o.search.step_calls for o in outputs),
            "step_rows": sum(o.search.step_rows for o in outputs),
            "offered": sum(o.search.offered for o in outputs),
            "kept": sum(o.search.kept for o in outputs),
            "unfinished_fallbacks": sum(1 for o in outputs if not o.finished)}
        assert 0 < counts["kept"] <= counts["offered"]
        assert len(outputs) <= counts["step_calls"] <= len(outputs) * (cfg.max_len - 1)

    def test_phase_isolation(self, tiny_world, pretrained):
        # fine-tuning must never touch selector parameters
        _, _, synonyms, splits, _ = tiny_world
        cfg, pre = pretrained
        tcfg = TrainConfig(selector_epochs=1, rl_epochs=1, warmup=50, seed=11)
        sel_params, _ = train_selector(splits, synonyms, SelectorConfig(), tcfg)
        sel_before = checkpoint_hash(sel_params)
        sub = tr.HeldoutSplits(captioner_train=splits.captioner_train[:4],
                               selector_train=[], val=splits.val[:2], test=[])
        params = fresh_copy(pre)
        cap_before = checkpoint_hash(params)
        params, epochs = finetune_scst_dgbs(sub, cfg, params, tcfg, synonyms)
        assert epochs[0]["scored_scenes"] >= 1
        assert checkpoint_hash(params) != cap_before
        assert checkpoint_hash(sel_params) == sel_before


TINY_CONFIG = {
    "seed": 3,
    "data": {"num_train": 12, "num_eval": 8},
    "selector": {"embed_dim": 16, "num_layers": 1, "num_heads": 2,
                 "ffn_dim": 32},
    "captioner": {"d_model": 16, "num_enc_layers": 1, "num_dec_layers": 1,
                  "num_heads": 2, "num_memory": 2, "embed_dim": 8,
                  "ffn_dim": 32, "max_len": 16},
    "train": {"selector_epochs": 2, "xent_epochs": 10, "rl_epochs": 1,
              "warmup": 50, "batch_size": 8, "beam_size": 3},
}


# JSON nesting deep enough that the json module raises RecursionError
NESTING = 200_000

# Each artifact of a pipeline run, and the stages that read it
ARTIFACT_READERS = {
    "scenes.jsonl": (["train-selector"], ["train-captioner"],
                     ["eval", "--mode", "oracle"]),
    "vocab.json": (["train-captioner"], ["finetune"], ["eval", "--mode", "none"]),
    "synonyms.json": (["train-selector"], ["finetune"], ["eval", "--mode", "selector"]),
    "selector.ckpt": (["eval", "--mode", "selector"],),
    "captioner.ckpt": (["finetune"],),
    "captioner_rl.ckpt": (["eval", "--mode", "none"],),
    "config.json": (["gen-data"], ["train-selector"], ["train-captioner"],
                    ["finetune"], ["eval", "--mode", "selector"]),
}
HUGE = 10 ** 30
# The JSON values an edit puts in place of another. The config is given no
# HUGE count: a stage builds that many layers before anything rejects it.
EDIT_VALUES = (None, True, 0, -1, 2, 2.5, 1e300, math.nan, "", "x", [], {}, [1], HUGE)


def json_paths(node, at=()):
    """The path of every node of a parsed JSON document, the root's first."""
    yield at
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, at + (key,))


def edited_artifact(name: str, text: str, data) -> str:
    """The text of the artifact ``name`` with one JSON value, key or line
    replaced, as ``data`` draws, in the layout its writer gives."""
    lines = text.splitlines()
    kind = data.draw(st.sampled_from(["value", "key", "line"]))
    at = data.draw(st.integers(0, len(lines) - 1))
    if kind == "line":
        lines[at] = data.draw(st.sampled_from(["", "x", "{}", "[]", "null"]))
        return "\n".join(lines) + "\n"
    if not name.endswith(".jsonl"):  # one document
        lines, at = [text], 0
    doc = json.loads(lines[at])
    path = data.draw(st.sampled_from([
        p for p in json_paths(doc) if kind == "value" or p and isinstance(p[-1], str)]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "key":
        new = data.draw(st.sampled_from(["", "x", "data"]))
        items = list(parent.items())
        parent.clear()
        parent.update((new if k == path[-1] else k, v) for k, v in items)
    else:
        value = data.draw(st.sampled_from(
            [v for v in EDIT_VALUES if name != "config.json" or v is not HUGE]))
        if path:
            parent[path[-1]] = value
        else:
            doc = value
    if name in ("vocab.json", "synonyms.json"):
        return json.dumps(doc, indent=1) + "\n"
    lines[at] = json.dumps(doc, separators=(",", ":"))
    return "\n".join(lines) + ("\n" if name.endswith(".jsonl") else "")


class TestCli:
    STAGES = (["gen-data"], ["train-selector"], ["train-captioner"],
              ["finetune"], ["eval", "--mode", "oracle", "--trace-grid"],
              ["eval", "--mode", "selector"])

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        """The pipeline stages on TINY_CONFIG, with their exit codes.

        Numeric overflow, invalid values and division by zero raise here,
        so a stage that produces one fails instead of warning."""
        base = tmp_path_factory.mktemp("cli")
        config = base / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(base / "run")}))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            codes = [cli.main(stage[:1] + ["--config", str(config)] + stage[1:])
                     for stage in self.STAGES]
        return base, str(config), codes

    def test_full_pipeline_exit_codes(self, run_dir):
        base, _, codes = run_dir
        assert codes == [0] * len(self.STAGES)
        run = base / "run"
        for name in ("scenes.jsonl", "vocab.json", "synonyms.json",
                     "selector.ckpt", "captioner.ckpt", "captioner_rl.ckpt",
                     "captions_oracle.jsonl", "grid_trace_oracle.jsonl",
                     "eval_oracle.json", "captions_selector.jsonl",
                     "eval_selector.json"):
            assert (run / name).exists(), name
        # gen-data writes each detection as its class word, box and score
        for line in (run / "scenes.jsonl").read_text().splitlines():
            assert all(list(d) == ["class_word", "box", "score"]
                       for d in json.loads(line)["detections"])
        # the fine-tune stage scored scenes and moved the captioner
        pre = json.loads((run / "captioner_report.json").read_text())
        rl = json.loads((run / "finetune_report.json").read_text())
        assert rl["phases"][0]["epochs"][0]["scored_scenes"] >= 1
        assert (rl["checkpoint_hashes"]["captioner_rl"]
                != pre["checkpoint_hashes"]["captioner"])

    def test_phase_reports_record_wall_time_and_updates(self, run_dir):
        base, _, _ = run_dir
        for name in ("selector", "captioner", "finetune"):
            report = json.loads((base / "run" / f"{name}_report.json").read_text())
            phase, = report["phases"]
            assert phase["wall_s"] > 0
            assert all(isinstance(e["updates"], int) for e in phase["epochs"])

    def test_eval_report_contents(self, run_dir):
        base, _, _ = run_dir
        run = base / "run"
        report = json.loads((run / "eval_selector.json").read_text())
        assert report["mode"] == "selector"
        assert 0.0 <= report["constraint_satisfaction"] <= 1.0
        rl = json.loads((run / "finetune_report.json").read_text())
        sel = json.loads((run / "selector_report.json").read_text())
        assert report["checkpoints"] == {
            "captioner": {"file": "captioner_rl.ckpt",
                          "hash": rl["checkpoint_hashes"]["captioner_rl"]},
            "selector": {"file": "selector.ckpt",
                         "hash": sel["checkpoint_hashes"]["selector"]}}
        assert set(report["decoder"]) == {"step_calls", "step_rows", "offered",
                                          "kept", "unfinished_fallbacks"}

    def test_trace_lines_are_grid_cells(self, run_dir):
        base, _, _ = run_dir
        lines = (base / "run" / "grid_trace_oracle.jsonl").read_text().splitlines()
        assert lines
        row = json.loads(lines[0])
        assert {"scene_id", "t", "c", "hyps"} <= set(row)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(name=st.sampled_from(sorted(ARTIFACT_READERS)), data=st.data())
    def test_edited_artifact_exits_as_documented(self, run_dir, name, data):
        # one JSON value, key or line of one artifact replaced, then a stage
        # that reads it: it exits 0, 1 or 2 as the cli docstring says, and
        # never with an exception
        base, _, _ = run_dir
        stage = data.draw(st.sampled_from(ARTIFACT_READERS[name]))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            shutil.copytree(base / "run", out)
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(out)}))
            path = config if name == "config.json" else out / name
            path.write_text(edited_artifact(name, path.read_text(), data))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(stage[:1] + ["--config", str(config), "--out", str(out)]
                                + stage[1:])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    def test_missing_config_is_exit_1(self):
        assert cli.main(["gen-data", "--config", "/nonexistent.json"]) == 1

    def test_unknown_mode_is_exit_1(self, run_dir):
        _, config, _ = run_dir
        assert cli.main(["eval", "--config", config, "--mode", "best"]) == 1

    def test_unknown_subcommand_is_exit_1(self, run_dir):
        # eval writes the captions the old decode subcommand wrote
        _, config, _ = run_dir
        assert cli.main(["decode", "--config", config, "--mode", "oracle"]) == 1

    @pytest.mark.parametrize("section,key,value", [
        ("data", "num_scenes", 5),
        ("train", "length_norm", "none"),
        ("train", "scst_baseline", "mean_beam"),
        ("selector", "max_constraints", 5),
        ("selector", "exclude_classes", "person"),
        ("data", "selector_sees_heldout", True),
        # set by every stage itself
        ("data", "seed", 4),
        ("train", "seed", 4),
        ("captioner", "visual_dim", 99),
        ("captioner", "vocab", "a"),
        ("captioner", "bogus", 1),
        # fixed by the method, not settable
        ("selector", "lambda0", 1.0),
        ("selector", "lambda1", 1.0),
        ("selector", "threshold", 0.3),
        ("data", "min_detections", 3),
        ("data", "max_detections", 5),
        ("data", "salience_tau", 0.2),
        ("data", "mention_dropout", 0.0),
        # a misspelled section is an unknown top-level key
        ("selecter", "embed_dim", 8),
    ])
    def test_unknown_config_key_is_exit_1(self, run_dir, tmp_path, capsys,
                                          section, key, value):
        # every stage rejects the key when it reads the config, even with
        # all of its input artifacts present
        base, _, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(out),
                                   section: {**TINY_CONFIG.get(section, {}),
                                             key: value}}))
        named = repr(section if section == "selecter" else key)
        for stage in self.STAGES:
            assert cli.main(stage[:1] + ["--config", str(bad)] + stage[1:]) == 1
            assert named in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("raw", [
        {"data": [1, 2]},
        {"train": "fast"},
        {"seed": "abc"},
        {"seed": 1.5},
        {"data": {"num_train": "x"}},
        {"data": {"held_out": ["vase", 5]}},
        {"captioner": {"num_heads": 2.0}},
        {"train": {"selector_epochs": 1.5}},
        {"train": {"beam_size": True}},
        {"out_dir": 5},
        # out of range
        {"captioner": {"num_heads": 0}},
        {"selector": {"num_heads": 0}},
        {"data": {"visual_dim": 3}},
        {"data": {"num_eval": -3}},
        {"selector": {"max_proposals": 0}},
        {"captioner": {"max_len": 2}},
        {"seed": -1},
        {"train": {"rl_lr": float("nan")}},
        {"train": {"rl_lr": float("inf")}},
        {"data": {"classes": ["<pad>", "lamp"], "held_out": []}},
        {"data": {"classes": ["", "lamp"], "held_out": []}},
        {"data": {"classes": ["a", "lamp"], "held_out": []}},
        {"data": {"classes": ["lamp", "lamp", "chair"], "held_out": []}},
        {"data": {"classes": ["lamp", "lamps", "chair"], "held_out": []}},
    ], ids=["data-list", "train-string", "seed-string", "seed-float",
            "num_train-string", "held_out-int", "num_heads-float",
            "selector_epochs-float", "beam_size-bool", "out_dir-int",
            "captioner-num_heads-0", "selector-num_heads-0", "visual_dim-3",
            "num_eval-negative", "max_proposals-0", "max_len-2", "seed-negative",
            "rl_lr-nan", "rl_lr-infinity", "reserved-class-word",
            "empty-class-word", "template-class-word", "repeated-class-word",
            "plural-class-word"])
    def test_malformed_config_value_is_exit_1(self, tmp_path, monkeypatch, raw):
        monkeypatch.chdir(tmp_path)  # so a run that ignored out_dir writes here too
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"out_dir": str(tmp_path / "out"), **raw}))
        assert cli.main(["gen-data", "--config", str(bad)]) == 1
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_negative_seed_option_is_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(tmp_path / "out")}))
        assert cli.main(["gen-data", "--config", str(config), "--seed", "-2"]) == 1
        assert sorted(tmp_path.iterdir()) == [config]

    def test_out_dir_naming_a_file_is_exit_1(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("a file")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(taken)}))
        assert cli.main(["gen-data", "--config", str(config)]) == 1
        assert taken.read_text() == "a file"

    def test_artifact_that_is_a_directory_is_exit_1(self, run_dir, tmp_path,
                                                    capsys):
        base, config, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        (out / "selector.ckpt").unlink()
        (out / "selector.ckpt").mkdir()
        assert cli.main(["eval", "--config", config, "--mode", "selector",
                         "--out", str(out)]) == 1
        assert f"corrupt {out / 'selector.ckpt'}" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,name", [
        (["train-selector"], "selector.ckpt"),
        (["eval", "--mode", "none"], "captions_none.jsonl"),
    ], ids=["selector-ckpt", "captions-jsonl"])
    def test_unwritable_artifact_is_exit_1(self, run_dir, tmp_path, capsys,
                                           stage, name):
        base, config, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        (out / name).unlink(missing_ok=True)
        (out / name).mkdir()
        assert cli.main(stage[:1] + ["--config", config, "--out", str(out)]
                        + stage[1:]) == 1
        assert f"cannot write {out / name}" in capsys.readouterr().err
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize("data,split", [
        ({"num_eval": 0}, "val"),
        ({"num_eval": 1}, "test"),
        ({"num_train": 0}, "captioner_train"),
    ], ids=["num_eval-0", "num_eval-1", "num_train-0"])
    def test_empty_split_is_exit_1(self, tmp_path, capsys, data, split):
        out = tmp_path / "run"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(out),
                                      "data": {**TINY_CONFIG["data"], **data}}))
        assert cli.main(["gen-data", "--config", str(config)]) == 0
        assert cli.main(["train-selector", "--config", str(config)]) == 1
        assert f"the {split} split is empty" in capsys.readouterr().err
        assert not (out / "selector.ckpt").exists()

    def test_captions_over_max_len_are_exit_1(self, run_dir, tmp_path, capsys):
        # 7 fits every constraint set but not this data's longest captions
        base, _, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            **TINY_CONFIG, "out_dir": str(out),
            "captioner": {**TINY_CONFIG["captioner"], "max_len": 7}}))
        before = (out / "captioner.ckpt").read_bytes()
        assert cli.main(["train-captioner", "--config", str(config)]) == 1
        assert "over captioner.max_len 7" in capsys.readouterr().err
        assert (out / "captioner.ckpt").read_bytes() == before

    def test_int_fills_float_and_list_fills_tuple(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "data": {"num_train": 2, "num_eval": 2, "classes": ["lamp", "vase"],
                     "held_out": ["vase"]},
            "train": {"rl_lr": 1}}))
        exp = cli.Experiment(str(config), None, None)
        assert exp.data_cfg.held_out == ("vase",)
        assert exp.train_cfg.rl_lr == 1
        assert cli.main(["gen-data", "--config", str(config)]) == 0

    def test_missing_artifacts_is_exit_1(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(tmp_path / "x")}))
        assert cli.main(["train-selector", "--config", str(config)]) == 1

    def test_truncated_checkpoint_is_exit_1(self, run_dir, tmp_path):
        base, config, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        (out / "captioner_rl.ckpt").unlink()
        ckpt = out / "captioner.ckpt"
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[: len(blob) // 2])
        assert cli.main(["eval", "--config", config, "--mode", "none",
                         "--out", str(out)]) == 1

    @pytest.mark.parametrize("text", [
        "[]", '{"format": "gridcap-checkpoint-v1", "params": []}',
    ], ids=["list-root", "list-params"])
    def test_checkpoint_that_is_not_an_object_is_exit_1(self, run_dir, tmp_path,
                                                         capsys, text):
        base, config, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        (out / "captioner_rl.ckpt").unlink()
        ckpt = out / "captioner.ckpt"
        ckpt.write_text(text)
        assert cli.main(["eval", "--config", config, "--mode", "none",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: corrupt {ckpt}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,text", [
        ("vocab.json", '{"tokens": '),
        ("vocab.json", '{"tokens": ["<pad>", "<bos>", "<eos>", "<unk>", 5]}'),
        ("synonyms.json", "[1,2]"),
        ("synonyms.json", '{"a": '),
        ("synonyms.json", '{"lamp": "lamps"}'),
        ("synonyms.json", '{"lamp": ["lamps", 3]}'),
        ("scenes.jsonl", "garbage"),
        ("scenes.jsonl", '{"scene_id": 1}'),
        ("synonyms.json", "[" * NESTING + "]" * NESTING),
    ], ids=["vocab-truncated", "vocab-int-token", "synonyms-list",
            "synonyms-truncated", "synonyms-string-forms", "synonyms-int-form",
            "scenes-garbage", "scenes-missing-keys", "synonyms-deeply-nested"])
    def test_corrupt_artifact_is_exit_1(self, run_dir, tmp_path, capsys,
                                        name, text):
        base, config, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        (out / name).write_text(text)
        assert cli.main(["eval", "--config", config, "--mode", "none",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: corrupt {out / name}")
        assert "Traceback" not in err

    def test_deeply_nested_config_is_exit_1(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"data": ' + "[" * NESTING + "]" * NESTING + "}")
        assert cli.main(["gen-data", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {config}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("corrupt", [
        lambda s: s | {"detections": [], "region_visual": []},
        lambda s: s | {"region_visual": [r[:3] for r in s["region_visual"]]},
        lambda s: s | {"region_visual": s["region_visual"][1:]},
        lambda s: s | {"region_visual": [["x"] + r[1:] for r in s["region_visual"]]},
        lambda s: s | {"references": []},
        lambda s: s | {"detections": [s["detections"][0] | {"score": 1.5}]
                       + s["detections"][1:]},
        lambda s: s | {"detections": [s["detections"][0] | {"box": [0, 0, 10, 10]}]
                       + s["detections"][1:]},
        lambda s: s | {"W": 0},
        lambda s: s | {"detections": [s["detections"][0] | {"class_word": "zebra"}]
                       + s["detections"][1:]},
        lambda s: s | {"references": [s["references"][0] + ["<pad>"]]
                       + s["references"][1:]},
        lambda s: s | {"references": [s["references"][0] + [5]]
                       + s["references"][1:]},
        lambda s: s | {"references": [" ".join(s["references"][0])]
                       + s["references"][1:]},
        lambda s: s | {"references": [[]] + s["references"][1:]},
        lambda s: s | {"detections": [s["detections"][0] | {"box": [float("nan"), 5, 5, 5]}]
                       + s["detections"][1:]},
        lambda s: s | {"W": float("inf")},
        lambda s: s | {"W": 10 ** 400},
        lambda s: s | {"split": "trian"},
        lambda s: s | {"region_visual": [[1e300] + r[1:] for r in s["region_visual"]]},
    ], ids=["no-detections", "narrow-rows", "missing-row", "text-in-row",
            "no-references", "score-over-1", "box-off-image", "zero-width",
            "unknown-class-word", "reserved-reference",
            "int-in-reference", "string-reference", "empty-reference",
            "nan-box", "infinite-width", "huge-int-width", "bogus-split",
            "huge-region-value"])
    def test_corrupt_scene_record_is_exit_1(self, run_dir, tmp_path, capsys,
                                            corrupt):
        base, config, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        path = out / "scenes.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = json.dumps(corrupt(json.loads(lines[0])))
        path.write_text("\n".join(lines) + "\n")
        for stage in ("train-selector", "train-captioner"):
            assert cli.main([stage, "--config", config, "--out", str(out)]) == 1
            assert f"config error: corrupt {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["top1", "selector"])
    def test_vocabulary_without_a_class_word_is_exit_1(self, run_dir, tmp_path,
                                                       capsys, mode):
        # same size, so the checkpoints would still fit the vocabulary
        base, config, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        path = out / "vocab.json"
        vocab = json.loads(path.read_text())
        vocab["tokens"] = ["fenze" if t == "fence" else t for t in vocab["tokens"]]
        path.write_text(json.dumps(vocab))
        (out / f"captions_{mode}.jsonl").unlink(missing_ok=True)
        assert cli.main(["eval", "--config", config, "--mode", mode,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path} lacks") and "'fence'" in err
        assert not (out / f"captions_{mode}.jsonl").exists()

    @pytest.mark.parametrize("stage", [["eval", "--mode", "none"], ["finetune"]],
                             ids=["eval", "finetune"])
    def test_non_finite_checkpoint_is_exit_1(self, run_dir, tmp_path, capsys,
                                             stage):
        base, config, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        (out / "captioner_rl.ckpt").unlink()
        ckpt = out / "captioner.ckpt"
        params = load_checkpoint(ckpt)
        params["embed.E"].data[0, 0] = np.nan
        save_checkpoint(ckpt, params)
        assert cli.main(stage[:1] + ["--config", config, "--out", str(out)]
                        + stage[1:]) == 1
        assert f"config error: corrupt {ckpt}" in capsys.readouterr().err
        assert not (out / "captions_none.jsonl").exists()
        assert not (out / "captioner_rl.ckpt").exists()

    def test_unknown_log_level_is_exit_1(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(tmp_path / "x")}))
        monkeypatch.setenv("GRIDCAP_LOGLEVEL", "verbose")
        assert cli.main(["gen-data", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: GRIDCAP_LOGLEVEL") and "'verbose'" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section,key,value,mode", [
        ("captioner", "d_model", 24, "none"),
        ("selector", "embed_dim", 8, "selector"),
    ])
    def test_mismatched_checkpoint_is_exit_1(self, run_dir, tmp_path, capsys,
                                             section, key, value, mode):
        # well-formed checkpoints trained under another config
        base, _, _ = run_dir
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        config = tmp_path / "c.json"
        changed = {**TINY_CONFIG[section], key: value}
        config.write_text(json.dumps({**TINY_CONFIG, section: changed,
                                      "out_dir": str(out)}))
        assert cli.main(["eval", "--config", str(config), "--mode", mode]) == 1
        assert "does not fit the config" in capsys.readouterr().err

    def test_divergence_maps_to_exit_2(self, run_dir, monkeypatch):
        _, config, _ = run_dir
        def boom(*a, **kw):
            raise tr.TrainingDiverged("nan loss")
        monkeypatch.setattr(cli, "train_selector", boom)
        assert cli.main(["train-selector", "--config", config]) == 2

    def test_seed_override_changes_data(self, run_dir, tmp_path):
        _, config, _ = run_dir
        out1 = tmp_path / "s5"
        out2 = tmp_path / "s6"
        assert cli.main(["gen-data", "--config", config, "--seed", "5",
                         "--out", str(out1)]) == 0
        assert cli.main(["gen-data", "--config", config, "--seed", "6",
                         "--out", str(out2)]) == 0
        assert ((out1 / "scenes.jsonl").read_bytes()
                != (out2 / "scenes.jsonl").read_bytes())
