import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcap import numerics as nm
from gridcap.numerics import Tensor
from gridcap.captioner import (BudgetExhausted, CaptionerConfig,
                               SceneStepModel, Vocabulary, decode_hidden,
                               decode_logits, encode, frozen,
                               init_captioner_params, xent_loss)

from test_numerics import check_grads

WORDS = ["red", "blue", "dog", "cat", "runs", "sits"]


def tiny_cfg(**kw):
    defaults = dict(vocab=Vocabulary(WORDS), d_model=8, num_enc_layers=1,
                    num_dec_layers=1, num_heads=2, num_memory=2, embed_dim=4,
                    ffn_dim=12, max_len=10, visual_dim=3)
    defaults.update(kw)
    return CaptionerConfig(**defaults)


@pytest.fixture
def setup():
    cfg = tiny_cfg()
    params = init_captioner_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    regions = rng.normal(size=(4, 3))
    return cfg, params, regions


class TestVocabulary:
    def test_maps_are_inverse_bijections(self):
        v = Vocabulary(WORDS)
        for i, tok in enumerate(v.tokens):
            assert v.token_to_id[tok] == i
        assert len(set(v.tokens)) == len(v.tokens)

    def test_reserved_ids_distinct(self):
        v = Vocabulary(WORDS)
        assert len({v.pad_id, v.bos_id, v.eos_id, v.unk_id}) == 4

    def test_unknown_words_map_to_unk(self):
        v = Vocabulary(WORDS)
        assert v.encode(["xyzzy"]) == [v.unk_id]

    def test_save_load_round_trip(self, tmp_path):
        v = Vocabulary(WORDS)
        v.save(tmp_path / "vocab.json")
        loaded = Vocabulary.load(tmp_path / "vocab.json")
        assert loaded.tokens == v.tokens


def plain_encoder_reference(x, cfg, params):
    """Independent plain pre-norm transformer encoder, no memory slots."""
    def ln(v, gain, bias, eps=1e-5):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return gain * (v - mu) / np.sqrt(var + eps) + bias

    def softmax(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    p = {k: t.data for k, t in params.items()}
    h = x @ p["enc.input.w"] + p["enc.input.b"]
    hd = cfg.head_dim
    for i in range(cfg.num_enc_layers):
        pre = f"enc{i}.attn"
        z = ln(h, p[f"{pre}.ln_gain"], p[f"{pre}.ln_bias"])
        q, k, v = z @ p[f"{pre}.wq"], z @ p[f"{pre}.wk"], z @ p[f"{pre}.wv"]
        outs = []
        for hh in range(cfg.num_heads):
            sl = slice(hh * hd, (hh + 1) * hd)
            w = softmax(q[:, sl] @ k[:, sl].T / math.sqrt(hd))
            outs.append(w @ v[:, sl])
        h = h + np.concatenate(outs, axis=1) @ p[f"{pre}.wo"]
        pre = f"enc{i}.ffn"
        z = ln(h, p[f"{pre}.ln_gain"], p[f"{pre}.ln_bias"])
        z = np.maximum(z @ p[f"{pre}.w1"] + p[f"{pre}.b1"], 0.0)
        h = h + z @ p[f"{pre}.w2"] + p[f"{pre}.b2"]
    return ln(h, p["enc.final.ln_gain"], p["enc.final.ln_bias"])


class TestEncode:
    def test_output_length_matches_input_length(self):
        rng = np.random.default_rng(2)
        for num_memory in (0, 3):
            cfg = tiny_cfg(num_memory=num_memory)
            params = init_captioner_params(cfg, np.random.default_rng(3))
            for n in range(1, 11):
                out = encode(rng.normal(size=(n, 3)), cfg, params)
                assert out.shape == (n, cfg.d_model)

    def test_zero_memory_equals_plain_encoder(self):
        cfg = tiny_cfg(num_memory=0, num_enc_layers=2)
        params = init_captioner_params(cfg, np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(5, 3))
        ours = encode(x, cfg, params).data
        reference = plain_encoder_reference(x, cfg, params)
        np.testing.assert_allclose(ours, reference, atol=1e-12)

    def test_memory_layer_gradcheck(self, setup):
        cfg, params, regions = setup
        w = np.random.default_rng(6).normal(size=(4, cfg.d_model))
        subset = [params["enc0.mem.k"], params["enc0.mem.v"],
                  params["enc0.attn.wq"], params["enc.input.w"]]

        def loss():
            return nm.tsum(nm.mul(encode(regions, cfg, params), Tensor(w)))

        check_grads(loss, subset, 1e-4)

    def test_needs_a_region(self, setup):
        cfg, params, _ = setup
        with pytest.raises(ValueError):
            encode(np.zeros((0, 3)), cfg, params)


class TestDecodeLogits:
    def test_causality_is_bitwise(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, frozen(params))
        v = cfg.vocab
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            toks = [v.bos_id] + list(rng.integers(4, len(v), size=n))
            base = decode_logits(toks, enc, cfg, frozen(params)).data
            j = int(rng.integers(1, n + 1))
            mutated = list(toks)
            mutated[j] = int(rng.integers(4, len(v)))
            out = decode_logits(mutated, enc, cfg, frozen(params)).data
            assert (out[:j] == base[:j]).all()

    def test_logits_shape(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, frozen(params))
        toks = [cfg.vocab.bos_id, 5, 6, 7]
        out = decode_logits(toks, enc, cfg, frozen(params))
        assert out.shape == (4, len(cfg.vocab))

    def test_weight_tying_direct_recomputation(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, frozen(params))
        toks = [cfg.vocab.bos_id, 5, 6]
        h = decode_hidden(toks, enc, cfg, frozen(params)).data
        logits = decode_logits(toks, enc, cfg, frozen(params)).data
        E = params["embed.E"].data
        np.testing.assert_allclose(logits, h @ E.T, atol=1e-12)
        # doubling one embedding row doubles that word's logit, h held fixed
        w = 5
        E2 = E.copy()
        E2[w] *= 2.0
        np.testing.assert_allclose((h @ E2.T)[:, w], 2.0 * logits[:, w],
                                   atol=1e-12)

    def test_must_begin_with_bos(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, frozen(params))
        with pytest.raises(ValueError):
            decode_logits([5, 6], enc, cfg, frozen(params))

    def test_unknown_id_rejected(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, frozen(params))
        with pytest.raises(ValueError):
            decode_logits([cfg.vocab.bos_id, len(cfg.vocab)], enc, cfg,
                          frozen(params))

    def test_masked_decoder_layer_gradcheck(self, setup):
        cfg, params, regions = setup
        v = cfg.vocab
        toks = [v.bos_id, 5, 6, v.eos_id]
        w = np.random.default_rng(8).normal(size=(4, len(v)))
        subset = [params["dec0.self.wq"], params["dec0.cross.wk"],
                  params["embed.E"], params["embed.down_w"]]

        def loss():
            enc = encode(regions, cfg, params)
            return nm.tsum(nm.mul(decode_logits(toks, enc, cfg, params),
                                  Tensor(w)))

        check_grads(loss, subset, 1e-4)


class TestXentLoss:
    def test_uniform_head_gives_log_vocab(self, setup):
        cfg, params, regions = setup
        params["embed.E"].data[...] = 0.0  # zero head -> uniform logits
        enc = encode(regions, cfg, frozen(params))
        v = cfg.vocab
        loss = xent_loss([v.bos_id, v.unk_id, v.eos_id], enc, cfg, frozen(params))
        assert loss.item() == pytest.approx(math.log(len(v)), rel=1e-12)

    def test_pad_extension_leaves_loss_unchanged(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, frozen(params))
        v = cfg.vocab
        toks = [v.bos_id, 5, 6, v.eos_id]
        base = xent_loss(toks, enc, cfg, frozen(params)).item()
        padded = xent_loss(toks + [v.pad_id] * 3, enc, cfg, frozen(params)).item()
        assert abs(base - padded) < 1e-12

    def test_missing_eos_rejected(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, frozen(params))
        with pytest.raises(ValueError):
            xent_loss([cfg.vocab.bos_id, 5, 6], enc, cfg, frozen(params))

    def test_overfits_one_caption(self, setup):
        cfg, params, regions = setup
        v = cfg.vocab
        toks = [v.bos_id] + v.encode(["red", "dog", "runs"]) + [v.eos_id]
        state = nm.AdamState()
        losses = []
        for _ in range(50):
            nm.zero_grads(params)
            enc = encode(regions, cfg, params)
            loss = xent_loss(toks, enc, cfg, params)
            losses.append(loss.item())
            nm.backward(loss)
            nm.adam_step(params, state, lr=0.01)
        assert losses[-1] < losses[0] * 0.5


def step_model(cfg, params, regions):
    froz = frozen(params)
    return SceneStepModel(encode(regions, cfg, froz), cfg, froz)


def last_row_logprobs(tokens, model):
    row = decode_logits(tokens, model.enc_out, model.cfg, model.params).data[-1]
    expected = row - row.max()
    return expected - math.log(np.exp(expected).sum())


def step_path(model, tokens):
    """Step every prefix of ``tokens`` in turn, as a search would; returns
    the last call's rows."""
    for n in range(1, len(tokens) + 1):
        lp = model.step([tuple(tokens[:n])])
    return lp


class TestStepDistribution:
    def test_normalized(self, setup):
        model = step_model(*setup)
        lp = step_path(model, [model.bos_id, 5])
        assert np.exp(lp[0]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_final_logits_row(self, setup):
        model = step_model(*setup)
        toks = [model.bos_id, 5, 6]
        lp = step_path(model, toks)
        np.testing.assert_allclose(lp[0], last_row_logprobs(toks, model),
                                   atol=1e-12)

    def test_deterministic(self, setup):
        a = step_model(*setup).step([[setup[0].vocab.bos_id]])
        b = step_model(*setup).step([[setup[0].vocab.bos_id]])
        assert (a == b).all()

    def test_budget_error(self, setup):
        model = step_model(*setup)
        prefix = [model.bos_id] + [5] * (model.cfg.max_len - 1)
        with pytest.raises(BudgetExhausted):
            model.step([prefix])

    def test_scene_step_model_wiring(self, setup):
        cfg = setup[0]
        model = step_model(*setup)
        assert model.bos_id == cfg.vocab.bos_id
        assert model.vocab_size == len(cfg.vocab)
        model.step([(model.bos_id,)])
        lp = model.step([(model.bos_id, 5), (model.bos_id, 6)])
        assert lp.shape == (2, len(cfg.vocab))


def check_search_order(model, rng, widths):
    """Step a random prefix tree column by column, each call extending some
    prefixes of the previous call by 1-3 tokens drawn from the whole
    vocabulary (PAD and EOS included); every row must equal the last row of
    a full teacher-forced recompute."""
    cfg = model.cfg
    column = [(model.bos_id,)]
    for width in widths:
        lp = model.step(column)
        assert lp.shape == (len(column), len(cfg.vocab))
        for prefix, row in zip(column, lp):
            np.testing.assert_allclose(
                row, last_row_logprobs(prefix, model), rtol=0, atol=1e-12)
        if len(column[0]) == cfg.max_len - 1:
            break
        picked = rng.permutation(len(column))[:width]
        children = {column[i] + (int(tok),) for i in picked
                    for tok in rng.integers(len(cfg.vocab), size=int(rng.integers(1, 4)))}
        column = sorted(children, key=lambda p: rng.random())


class TestCachedStep:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_batches_match_full_recompute(self, seed):
        cfg = tiny_cfg(num_dec_layers=2)
        rng = np.random.default_rng(seed)
        model = step_model(cfg, init_captioner_params(cfg, rng),
                           rng.normal(size=(4, 3)))
        check_search_order(model, rng, rng.integers(1, 7, size=12))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), layers=st.integers(1, 3),
           widths=st.lists(st.integers(1, 6), min_size=1, max_size=10))
    def test_search_order_trees_match_decode_logits(self, seed, layers, widths):
        cfg = tiny_cfg(num_dec_layers=layers)
        rng = np.random.default_rng(seed)
        model = step_model(cfg, init_captioner_params(cfg, rng),
                           rng.normal(size=(3, 3)))
        check_search_order(model, rng, widths)

    def test_keeps_only_the_latest_call(self, setup):
        model = step_model(*setup)
        bos = model.bos_id
        model.step([(bos,)])
        model.step([(bos, 5), (bos, 6)])
        assert set(model._rows) == {(bos, 5), (bos, 6)}
        with pytest.raises(ValueError):
            model.step([(bos, 5, 7, 8)])  # its parent (bos, 5, 7) is uncached
        assert set(model._rows) == {(bos, 5), (bos, 6)}
        model.step([(bos, 5, 7)])
        assert set(model._rows) == {(bos, 5, 7)}

    def test_mixed_lengths_rejected(self, setup):
        model = step_model(*setup)
        with pytest.raises(ValueError):
            model.step([(model.bos_id,), (model.bos_id, 5)])


class TestCheckpointIntegration:
    def test_save_load_decode_bit_identical(self, setup, tmp_path):
        cfg, params, regions = setup
        enc = encode(regions, cfg, frozen(params))
        toks = [cfg.vocab.bos_id, 5, 6]
        base = decode_logits(toks, enc, cfg, frozen(params)).data
        nm.save_checkpoint(tmp_path / "cap.ckpt", params)
        loaded = nm.load_checkpoint(tmp_path / "cap.ckpt")
        enc2 = encode(regions, cfg, frozen(loaded))
        again = decode_logits(toks, enc2, cfg, frozen(loaded)).data
        assert (base == again).all()
