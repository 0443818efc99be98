import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcap import numerics as nm
from gridcap.numerics import Tensor
from gridcap import captioner
from gridcap.captioner import (BudgetExhausted, CaptionerConfig,
                               SceneStepModel, Vocabulary, encode,
                               init_captioner_params, prefix_tree, tree_layout,
                               tree_logprobs, weighted_logprob, xent_loss)

from test_numerics import check_grads

WORDS = ["red", "blue", "dog", "cat", "runs", "sits"]


def tiny_cfg(**kw):
    defaults = dict(vocab=Vocabulary(WORDS), d_model=8, num_enc_layers=1,
                    num_dec_layers=1, num_heads=2, num_memory=2, embed_dim=4,
                    ffn_dim=12, max_len=10, visual_dim=3)
    defaults.update(kw)
    return CaptionerConfig(**defaults)


def chain_rows(tokens, cfg, scenes=None):
    """The reference chain layout of packed whole sequences for
    ``tree_logprobs``: ``(ids, parents, rows, targets, row_scenes)``.

    Each position is a row after the one before it in its sequence, and the
    edges pick every next token, sequence by sequence: a length-L sequence
    gives L rows and L - 1 edges. It runs ``prefix_tree``'s checks.
    """
    if len(tokens) == 0:
        raise ValueError("the list of sequences to score is empty")
    seqs = [captioner._validate_tokens([t], cfg)[0] for t in tokens]
    scenes = (np.zeros(len(seqs), dtype=np.intp) if scenes is None
              else np.asarray(scenes))
    if scenes.shape != (len(seqs),):
        raise ValueError(f"{scenes.size} scene numbers for {len(seqs)} sequences")
    lengths = [len(s) for s in seqs]
    ends = np.cumsum(lengths)
    parents = np.arange(ends[-1]) - 1
    parents[ends - lengths] = -1
    return (np.concatenate(seqs), parents, np.delete(np.arange(ends[-1]), ends - 1),
            np.concatenate([s[1:] for s in seqs]), np.repeat(scenes, lengths))


def chain_logprobs(seqs, enc, cfg, params, scenes=None, enc_segments=None) -> Tensor:
    """Log-prob of every next token of packed whole sequences, sequence by
    sequence: ``tree_logprobs`` over their ``chain_rows``."""
    ids, parents, rows, targets, row_scenes = chain_rows(seqs, cfg, scenes)
    return tree_logprobs(ids, parents, rows, targets, enc, cfg, params, row_scenes,
                         enc_segments)


def full_rows(tokens, enc, cfg, params) -> Tensor:
    """Next-token log-probs (len(tokens), |V|) at every position of one
    sequence: ``tree_logprobs`` picking every vocabulary id at every row."""
    ids, parents, _, _, _ = chain_rows([tokens], cfg)
    n, size = len(ids), len(cfg.vocab)
    picked = tree_logprobs(ids, parents, np.repeat(np.arange(n), size),
                           np.tile(np.arange(size), n), enc, cfg, params)
    return nm.reshape(picked, (n, size))


def log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
    """Independent pre-norm transformer encoder in plain numpy; every head
    also attends to its layer's memory slots."""
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
            kh, vh = k[:, sl], v[:, sl]
            if cfg.num_memory > 0:
                kh = np.concatenate([kh, p[f"enc{i}.mem.k"]])
                vh = np.concatenate([vh, p[f"enc{i}.mem.v"]])
            w = softmax(q[:, sl] @ kh.T / math.sqrt(hd))
            outs.append(w @ vh)
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

    def test_equals_plain_encoder_reference(self):
        x = np.random.default_rng(5).normal(size=(5, 3))
        for num_memory, num_heads in ((0, 2), (3, 1), (3, 2), (3, 4)):
            cfg = tiny_cfg(num_memory=num_memory, num_heads=num_heads,
                           num_enc_layers=2)
            params = init_captioner_params(cfg, np.random.default_rng(4))
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


class TestPacking:
    """Several scenes and sequences stacked as rows of one pass."""

    def scenes(self):
        rng = np.random.default_rng(7)
        return rng.normal(size=(3, 3)), rng.normal(size=(4, 3))

    def test_packed_encoder_rows_equal_each_scene_alone(self, setup):
        cfg, params, _ = setup
        a, b = self.scenes()
        packed = encode(np.concatenate([a, b]), cfg, params, [0, 0, 0, 1, 1, 1, 1])
        alone = np.concatenate([encode(a, cfg, params).data, encode(b, cfg, params).data])
        np.testing.assert_allclose(packed.data, alone, rtol=0, atol=1e-12)

    def test_minibatch_equals_per_sample_loop(self, setup):
        # two references of one scene, and a sequence ending in a PAD token,
        # which both paths score as an ordinary token
        cfg, params, _ = setup
        a, b = self.scenes()
        v = cfg.vocab
        samples = [(a, [v.bos_id, 4, 6, v.eos_id]),
                   (a, [v.bos_id, 5, 7, 8, v.eos_id]),
                   (b, [v.bos_id, 6, v.eos_id, v.pad_id])]
        nm.zero_grads(params)
        loop = 0.0
        for regions, toks in samples:
            loss = xent_loss([toks], encode(regions, cfg, params), cfg, params)
            loop += loss.item() / len(samples)
            nm.backward(nm.mul(loss, 1.0 / len(samples)))
        loop_grads = {k: p.grad.copy() for k, p in params.items()}

        nm.zero_grads(params)
        segments = [0] * len(a) + [1] * len(b)
        enc = encode(np.concatenate([a, b]), cfg, params, segments)
        packed = xent_loss([t for _, t in samples], enc, cfg, params, [0, 0, 1],
                           segments)
        nm.backward(packed)
        assert packed.item() == pytest.approx(loop, rel=1e-12)
        for k, p in params.items():
            np.testing.assert_allclose(p.grad, loop_grads[k], rtol=0, atol=1e-12,
                                       err_msg=k)

    def test_one_scene_number_per_sequence(self, setup):
        cfg, params, regions = setup
        v = cfg.vocab
        enc = encode(regions, cfg, params)
        with pytest.raises(ValueError):
            xent_loss([[v.bos_id, 4, v.eos_id]] * 2, enc, cfg, params, [0])
        with pytest.raises(ValueError):  # a bare id list, not a list of sequences
            xent_loss([v.bos_id, 4, v.eos_id], enc, cfg, params)
        with pytest.raises(ValueError, match="empty"):
            xent_loss([], enc, cfg, params)
        with pytest.raises(ValueError):
            encode(regions, cfg, params, [0, 1])
        # the encoder rows' scene numbers must match the encode, and every
        # sequence's scene must have encoder rows
        with pytest.raises(ValueError, match="2 encoder segment numbers"):
            xent_loss([[v.bos_id, 4, v.eos_id]], enc, cfg, params, None, [0, 0])
        for segments in (None, [0, 0, 0, 0]):
            with pytest.raises(ValueError, match="scene 1 has no encoder rows"):
                xent_loss([[v.bos_id, 4, v.eos_id]], enc, cfg, params, [1], segments)


def chain_of(n):
    """One chain of n rows: BOS, then n - 1 copies of token 5."""
    return dict(ids=[1] + [5] * (n - 1), parents=list(range(-1, n - 1)))


class TestTreeRows:
    """Teacher forcing over prefix-tree rows; packed sequences are chains."""

    def test_chain_case_is_the_packed_sequence_mask(self):
        cfg = tiny_cfg()
        lengths = [3, 1, 5, 2]
        seqs = [[cfg.vocab.bos_id] + [4 + (n + t) % 6 for t in range(n - 1)]
                for n in lengths]
        ids, parents, rows, targets, scenes = chain_rows(seqs, cfg, [2, 0, 1, 1])
        segment = np.repeat(np.arange(len(lengths)), lengths)
        pos = np.concatenate([np.arange(n) for n in lengths])
        np.testing.assert_array_equal(ids, np.concatenate(seqs))
        np.testing.assert_array_equal(parents, np.where(pos == 0, -1, np.arange(len(pos)) - 1))
        np.testing.assert_array_equal(scenes, np.repeat([2, 0, 1, 1], lengths))
        # an edge per position but each sequence's last, to the next token
        assert rows.tolist() == [r for r in range(len(pos) - 1)
                                 if segment[r + 1] == segment[r]]
        np.testing.assert_array_equal(targets, ids[rows + 1])
        depth, mask = tree_layout(parents)
        np.testing.assert_array_equal(depth, pos)
        assert mask.dtype == bool
        np.testing.assert_array_equal(
            mask, (segment[:, None] != segment[None, :]) | (pos[None, :] > pos[:, None]))

    @pytest.mark.parametrize("parents", [[-1, 0, 2], [-1, -2, 1], [1, -1]])
    def test_parent_after_its_row_rejected(self, parents):
        with pytest.raises(ValueError, match="come before it"):
            tree_layout(parents)

    @pytest.mark.parametrize("tokens, scenes, message", [
        ([], None, "list of sequences to score is empty"),
        ([1, 4, 2], None, r"non-empty \(rows, n\) array, got shape \(1,\)"),
        ([[5, 4, 2]], None, "must begin with BOS"),
        ([[1] + [5] * 10 + [2]], None, "length 12 exceeds budget 10"),
        ([[1, 4.0, 2]], None, "must be integers"),
        ([[1, 10, 2]], None, "unknown token id"),
        ([[1, 4, 2]] * 2, [0], "1 scene numbers for 2 sequences"),
    ], ids=["empty", "bare-ids", "no-bos", "over-budget", "float-id",
            "id-past-vocabulary", "scene-count"])
    def test_bad_sequences_rejected_as_by_the_chain_layout(self, setup, tokens,
                                                           scenes, message):
        # prefix_tree, and xent_loss through it, keep the chain layout's checks
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        for layout in (chain_rows, prefix_tree,
                       lambda t, c, s: xent_loss(t, enc, c, params, s)):
            with pytest.raises(ValueError, match=message):
                layout(tokens, cfg, scenes)

    @pytest.mark.parametrize("change, message", [
        (dict(targets=[5, -1, 2]), "unknown token id"),
        (dict(targets=[5, 4.7, 2]), "integers"),
        (dict(ids=[1, 4.7, 6]), "integers"),
        (dict(ids=[5, 5, 6]), "BOS"),
        (chain_of(11) | dict(rows=[0], targets=[5]), "length 11 exceeds budget"),
        (chain_of(10) | dict(rows=[9], targets=[2]), "length 11 exceeds budget"),
        (dict(rows=[0, -1, 2]), "row of the tree"),
        (dict(scenes=[0, 0]), "scene numbers"),
        (dict(ids=[1, 5]), "as many ids"),
        (dict(enc_segments=[0, 0]), "2 encoder segment numbers for 4 encoder rows"),
        (dict(scenes=[0, 1, 0]), "scene 1 has no encoder rows"),
        (dict(scenes=[1, 1, 1], enc_segments=[0, 0, 0, 0]),
         "scene 1 has no encoder rows"),
        (dict(parents=[-1, 0.7, 1.9]), "parent rows must be integers"),
        (dict(ids=[], parents=[], rows=[], targets=[]), "0 rows need as many ids"),
    ], ids=["target-minus-one", "float-target", "float-id", "root-not-bos",
            "row-past-budget", "edge-past-budget", "edge-from-no-row",
            "scene-count", "id-count", "encoder-segment-count",
            "scene-without-rows", "scene-without-segment-rows", "float-parent",
            "no-rows"])
    def test_bad_rows_rejected(self, setup, change, message):
        # the token-id check of whole sequences, run on every edge's path
        cfg, params, regions = setup
        assert cfg.vocab.bos_id == 1 and len(cfg.vocab) == 10 and cfg.max_len == 10
        tree = dict(ids=[1, 5, 6], parents=[-1, 0, 0], rows=[0, 1, 2],
                    targets=[5, 2, 2], scenes=None, enc_segments=None) | change
        with pytest.raises(ValueError, match=message):
            tree_logprobs(tree["ids"], tree["parents"], tree["rows"], tree["targets"],
                          encode(regions, cfg, params), cfg, params, tree["scenes"],
                          tree["enc_segments"])


class TestArrayPasses:
    """The encoder and the scorer over parameter arrays run on
    ``nm.ARRAY_OPS`` and return arrays that equal their taped values
    bitwise."""

    @pytest.mark.parametrize("segments", [None, [0, 1, 1, 0]])
    def test_encode_equals_taped(self, setup, segments):
        cfg, params, regions = setup
        got = encode(regions, cfg, nm.arrays_of(params), segments)
        assert type(got) is np.ndarray
        assert np.array_equal(got, encode(regions, cfg, params, segments).data)

    def test_scorer_equals_taped(self, setup):
        cfg, params, regions = setup
        arrays, v = nm.arrays_of(params), cfg.vocab
        seqs = [[v.bos_id, 5, 6, v.eos_id], [v.bos_id, 5, 7, 8, v.eos_id],
                [v.bos_id, 9, v.eos_id]]
        scenes, segments, weights = [0, 0, 1], [0, 0, 1, 1], np.array([0.5, -1.0, 2.0])
        enc = encode(regions, cfg, params, segments)
        enc_array = encode(regions, cfg, arrays, segments)
        ids, parents, rows, targets, _, row_scenes = prefix_tree(seqs, cfg, scenes)
        tree = (ids, parents, rows, targets)
        got = tree_logprobs(*tree, enc_array, cfg, arrays, row_scenes, segments)
        assert type(got) is np.ndarray
        assert np.array_equal(got, tree_logprobs(*tree, enc, cfg, params, row_scenes,
                                                 segments).data)
        assert weighted_logprob(seqs, weights, enc_array, cfg, arrays, scenes,
                                segments) == weighted_logprob(
            seqs, weights, enc, cfg, params, scenes, segments).item()
        assert xent_loss(seqs, enc_array, cfg, arrays, scenes,
                         segments) == xent_loss(seqs, enc, cfg, params, scenes,
                                                segments).item()


@pytest.fixture
def head_inputs(monkeypatch):
    """The decoder states of every ``captioner._output_head`` call."""
    states, head = [], captioner._output_head

    def spy(h, params):
        states.append(h.data)
        return head(h, params)

    monkeypatch.setattr(captioner, "_output_head", spy)
    return states


class TestTokenLogprobs:
    def test_packed_sequences_equal_each_scored_alone(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        v = cfg.vocab
        seqs = [[v.bos_id, 5, 6, 7, 8, v.eos_id], [v.bos_id, 9],
                [v.bos_id, 4, v.pad_id, v.eos_id]]
        packed = chain_logprobs(seqs, enc, cfg, params).data
        alone = np.concatenate([chain_logprobs([s], enc, cfg, params).data
                                for s in seqs])
        assert packed.shape == (sum(len(s) - 1 for s in seqs),)
        np.testing.assert_allclose(packed, alone, rtol=0, atol=1e-12)

    def test_entries_are_the_next_token_log_softmax(self, setup, head_inputs):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        toks = [cfg.vocab.bos_id, 5, 6, cfg.vocab.eos_id]
        picked = chain_logprobs([toks], enc, cfg, params).data
        (h,) = head_inputs
        lsm = log_softmax(h @ params["embed.E"].data.T)
        np.testing.assert_allclose(picked, lsm[np.arange(3), toks[1:]], rtol=0, atol=1e-12)


class TestDecodeLogits:
    """Full teacher-forced next-token rows, every vocabulary id picked."""

    def test_causality_is_bitwise(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        v = cfg.vocab
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            toks = [v.bos_id] + list(rng.integers(4, len(v), size=n))
            base = full_rows(toks, enc, cfg, params).data
            j = int(rng.integers(1, n + 1))
            mutated = list(toks)
            mutated[j] = int(rng.integers(4, len(v)))
            out = full_rows(mutated, enc, cfg, params).data
            assert (out[:j] == base[:j]).all()

    def test_logits_shape(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        toks = [cfg.vocab.bos_id, 5, 6, 7]
        out = full_rows(toks, enc, cfg, params)
        assert out.shape == (4, len(cfg.vocab))

    def test_weight_tying_direct_recomputation(self, setup, head_inputs):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        rows = full_rows([cfg.vocab.bos_id, 5, 6], enc, cfg, params).data
        (h,) = head_inputs
        E = params["embed.E"].data
        np.testing.assert_allclose(rows, log_softmax(h @ E.T), atol=1e-12)
        # doubling one embedding row doubles that word's logit, h held fixed:
        # against word 0, its log-prob gains the logit once more
        w = 5
        E2 = E.copy()
        E2[w] *= 2.0
        doubled = captioner._output_head(Tensor(h), {"embed.E": Tensor(E2)}).data
        np.testing.assert_allclose(doubled[:, w] - doubled[:, 0],
                                   rows[:, w] - rows[:, 0] + h @ E[w], atol=1e-12)

    def test_must_begin_with_bos(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        with pytest.raises(ValueError):
            chain_logprobs([[5, 6]], enc, cfg, params)

    def test_over_budget_rejected(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        with pytest.raises(ValueError, match="exceeds budget"):
            chain_logprobs([[cfg.vocab.bos_id] + [5] * cfg.max_len], enc, cfg, params)

    def test_unknown_id_rejected(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        with pytest.raises(ValueError):
            chain_logprobs([[cfg.vocab.bos_id, len(cfg.vocab)]], enc, cfg, params)

    @pytest.mark.parametrize("bad", [5.7, 5.0])
    def test_float_id_rejected(self, setup, bad):
        # a float id would otherwise be truncated to another token's id
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        with pytest.raises(ValueError, match="integers"):
            chain_logprobs([[cfg.vocab.bos_id, bad]], enc, cfg, params)

    def test_masked_decoder_layer_gradcheck(self, setup):
        cfg, params, regions = setup
        v = cfg.vocab
        toks = [v.bos_id, 5, 6, v.eos_id]
        w = np.random.default_rng(8).normal(size=(4, len(v)))
        subset = [params["dec0.self.wq"], params["dec0.cross.wk"],
                  params["embed.E"], params["embed.down_w"]]

        def loss():
            enc = encode(regions, cfg, params)
            return nm.tsum(nm.mul(full_rows(toks, enc, cfg, params), Tensor(w)))

        check_grads(loss, subset, 1e-4)


class TestXentLoss:
    def test_uniform_head_gives_log_vocab(self, setup):
        cfg, params, regions = setup
        params["embed.E"].data[...] = 0.0  # zero head -> uniform logits
        enc = encode(regions, cfg, params)
        v = cfg.vocab
        loss = xent_loss([[v.bos_id, v.unk_id, v.eos_id]], enc, cfg, params)
        assert loss.item() == pytest.approx(math.log(len(v)), rel=1e-12)

    def test_is_the_weighted_token_logprobs_sum_bitwise(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        v = cfg.vocab
        seqs = [[v.bos_id, 5, 6, v.eos_id], [v.bos_id, v.eos_id],
                [v.bos_id, 7, 4, 9, 5, v.eos_id]]
        weights = np.concatenate([np.full(len(s) - 1, 1.0 / ((len(s) - 1) * 3))
                                  for s in seqs])
        tlp = chain_logprobs(seqs, enc, cfg, params).data
        assert xent_loss(seqs, enc, cfg, params).item() == -(tlp * weights).sum()

    @settings(max_examples=30, deadline=None)
    @given(captions=st.lists(st.tuples(st.integers(0, 2),
                                       st.lists(st.integers(4, 6), max_size=7)),
                             min_size=1, max_size=6),
           seed=st.integers(0, 999))
    def test_equals_per_caption_chain_reference(self, captions, seed):
        # three words make prefixes repeat, within and across scenes
        cfg = tiny_cfg(vocab=Vocabulary(["red", "dog", "runs"]))
        v = cfg.vocab
        seqs = [[v.bos_id, *words, v.eos_id] for _, words in captions]
        scenes = [scene for scene, _ in captions]
        rng = np.random.default_rng(seed)
        regions, segments = rng.normal(size=(6, 3)), np.repeat([0, 1, 2], [2, 1, 3])
        base = init_captioner_params(cfg, np.random.default_rng(seed))
        packed, chain = ({k: Tensor(p.data.copy(), requires_grad=True)
                          for k, p in base.items()} for _ in range(2))
        loss = xent_loss(seqs, encode(regions, cfg, packed, segments), cfg, packed,
                         scenes, segments)
        nm.backward(loss)
        enc, ref = encode(regions, cfg, chain, segments), Tensor(0.0)
        for seq, scene in zip(seqs, scenes):
            lp = nm.tsum(chain_logprobs([seq], enc, cfg, chain, [scene], segments))
            ref = nm.add(ref, nm.mul(lp, -1.0 / ((len(seq) - 1) * len(seqs))))
        nm.backward(ref)
        assert abs(loss.item() - ref.item()) <= 1e-12
        for k in base:
            np.testing.assert_allclose(packed[k].grad, chain[k].grad, rtol=0,
                                       atol=1e-12, err_msg=k)

    def test_missing_eos_rejected(self, setup):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        with pytest.raises(ValueError):
            xent_loss([[cfg.vocab.bos_id, 5, 6]], enc, cfg, params)

    def test_overfits_one_caption(self, setup):
        cfg, params, regions = setup
        v = cfg.vocab
        toks = [v.bos_id] + v.encode(["red", "dog", "runs"]) + [v.eos_id]
        state = nm.AdamState()
        losses = []
        for _ in range(50):
            nm.zero_grads(params)
            enc = encode(regions, cfg, params)
            loss = xent_loss([toks], enc, cfg, params)
            losses.append(loss.item())
            nm.backward(loss)
            nm.adam_step(params, state, lr=0.01)
        assert losses[-1] < losses[0] * 0.5


def step_model(cfg, params, regions):
    return SceneStepModel(encode(regions, cfg, params), cfg, params)


def last_row_logprobs(tokens, model):
    return full_rows(tokens, model.enc_out, model.cfg, model.params).data[-1]


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
           widths=st.lists(st.integers(1, 10), min_size=1, max_size=10))
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

    @pytest.mark.parametrize("column, message", [
        ([(5,)], "BOS"),
        ([(1, 5), (1, 10)], "unknown token id"),
        ([(1, 5), (1, -1)], "unknown token id"),
        ([(1, 5), (1, 5.7)], "integers"),
        ([], "one or more prefixes"),
    ], ids=["no-bos", "id-past-vocabulary", "negative-id", "float-id",
            "no-prefixes"])
    def test_bad_prefixes_rejected_and_cache_kept(self, setup, column, message):
        model = step_model(*setup)
        bos = model.bos_id
        assert bos == 1 and model.vocab_size == 10
        model.step([(bos,)])
        with pytest.raises(ValueError, match=message):
            model.step(column)
        assert set(model._rows) == {(bos,)}
        model.step([(bos, 5)])
        assert set(model._rows) == {(bos, 5)}


class TestCheckpointIntegration:
    def test_save_load_decode_bit_identical(self, setup, tmp_path):
        cfg, params, regions = setup
        enc = encode(regions, cfg, params)
        toks = [cfg.vocab.bos_id, 5, 6]
        base = full_rows(toks, enc, cfg, params).data
        nm.save_checkpoint(tmp_path / "cap.ckpt", params)
        loaded = nm.load_checkpoint(tmp_path / "cap.ckpt")
        enc2 = encode(regions, cfg, loaded)
        again = full_rows(toks, enc2, cfg, loaded).data
        assert (base == again).all()
