"""Memory-augmented transformer captioner.

Encoder: self-attention over region feature vectors where every layer's
keys and values are extended with learnable memory slots that do not depend
on the input. Decoder: a right-masked transformer language model with
cross-attention on the encoder output. Word embeddings sit in a smaller
space than the model width, with learned up/down projections on either side
of the decoder stack, and output logits tie to the transpose of the
embedding matrix.

One decoder-layer body serves two callers, on (blocks, rows, width)
activations. Teacher forcing runs it over whole sequences packed as the
rows of one block: a mask keeps each row to itself, the earlier positions
of its own sequence and its own scene's encoder rows. The encoder packs
distinct scenes the same way, with the memory slots visible to every row.
``token_logprobs`` scores every next token of such a pass for both
objectives: ``xent_loss`` weighs it for pre-training, and self-critical
fine-tuning weighs it by advantage over several scenes' candidates.
``SceneStepModel.step`` runs the body over the last token of many prefixes
at once, for search, one block per prefix. It is called once per grid
column, each prefix extending one of the previous call's, so earlier
positions' self-attention keys and values come from per-layer (rows,
length, d) arrays of that call; the encoder's cross-attention keys and
values are computed once per scene. One ``SceneStepModel`` serves a scene:
it searches without a tape, and its taped encode is what the search's
candidates are scored against. PAD is an ordinary token to both paths.

The parameter builders (``init_matrix``, ``init_layer_norm``, ``init_ffn``)
and the feed-forward sub-block ``ffn`` also build the region selector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import numerics as nm
from .decoder import MAX_CONSTRAINTS
from .numerics import Tensor, check_at_least

RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")


class Vocabulary:
    """Bidirectional token<->id map with reserved control tokens first."""

    def __init__(self, words: list[str]):
        tokens = list(RESERVED)
        for w in words:
            if w in RESERVED:
                raise ValueError(f"{w!r} collides with a reserved token")
            if w not in tokens:
                tokens.append(w)
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}
        self.pad_id, self.bos_id, self.eos_id, self.unk_id = (
            self.token_to_id[t] for t in RESERVED)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, words: list[str]) -> list[int]:
        return [self.token_to_id.get(w, self.unk_id) for w in words]

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"tokens": list(self.tokens)}, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        tokens = payload["tokens"]
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ValueError(f"vocabulary {path} tokens must be a list of strings")
        if tuple(tokens[:4]) != RESERVED:
            raise ValueError(f"vocabulary {path} lacks the reserved token header")
        return cls(tokens[4:])


@dataclass
class CaptionerConfig:
    vocab: Vocabulary
    d_model: int = 64
    num_enc_layers: int = 3
    num_dec_layers: int = 3
    num_heads: int = 2
    num_memory: int = 8
    embed_dim: int = 32
    ffn_dim: int = 256
    max_len: int = 16  # total sequence budget including BOS
    visual_dim: int = 16

    def __post_init__(self):
        # a search's budget max_len - 1 holds every constraint word and EOS
        check_at_least(self, d_model=1, num_enc_layers=0, num_dec_layers=1,
                       num_heads=1, num_memory=0, embed_dim=1, ffn_dim=1,
                       max_len=MAX_CONSTRAINTS + 2, visual_dim=1)
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads


@lru_cache
def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal position table (length, dim), built once and read-only."""
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    table.flags.writeable = False
    return table


def init_matrix(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Trainable (rows, cols) matrix drawn from a normal of variance 2/(rows+cols)."""
    scale = (2.0 / (rows + cols)) ** 0.5
    return Tensor(rng.normal(0.0, scale, size=(rows, cols)), requires_grad=True)


def init_vector(n: int, value: float = 0.0) -> Tensor:
    return Tensor(np.full(n, value), requires_grad=True)


def init_layer_norm(pre: str, dim: int) -> dict[str, Tensor]:
    """Unit gain and zero bias of the layer norm named ``pre``."""
    return {f"{pre}.ln_gain": init_vector(dim, 1.0), f"{pre}.ln_bias": init_vector(dim)}


def init_ffn(rng: np.random.Generator, pre: str, dim: int, hidden: int) -> dict[str, Tensor]:
    """Parameters of the pre-norm feed-forward sub-block ``ffn(x, params, pre)``."""
    return {**init_layer_norm(pre, dim),
            f"{pre}.w1": init_matrix(rng, dim, hidden), f"{pre}.b1": init_vector(hidden),
            f"{pre}.w2": init_matrix(rng, hidden, dim), f"{pre}.b2": init_vector(dim)}


def init_captioner_params(cfg: CaptionerConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    d = cfg.d_model
    p: dict[str, Tensor] = {
        "embed.E": Tensor(rng.normal(0.0, 0.1, size=(len(cfg.vocab), cfg.embed_dim)),
                          requires_grad=True),
        "embed.up_w": init_matrix(rng, cfg.embed_dim, d),
        "embed.up_b": init_vector(d),
        "embed.down_w": init_matrix(rng, d, cfg.embed_dim),
        "embed.down_b": init_vector(cfg.embed_dim),
        "enc.input.w": init_matrix(rng, cfg.visual_dim, d),
        "enc.input.b": init_vector(d),
        **init_layer_norm("enc.final", d),
        **init_layer_norm("dec.final", d),
    }
    for i in range(cfg.num_enc_layers):
        pre = f"enc{i}"
        p |= init_layer_norm(f"{pre}.attn", d)
        for w in ("wq", "wk", "wv", "wo"):
            p[f"{pre}.attn.{w}"] = init_matrix(rng, d, d)
        if cfg.num_memory > 0:
            for kv in ("k", "v"):
                p[f"{pre}.mem.{kv}"] = Tensor(
                    rng.normal(0.0, 0.1, size=(cfg.num_memory, cfg.head_dim)),
                    requires_grad=True)
        p |= init_ffn(rng, f"{pre}.ffn", d, cfg.ffn_dim)
    for i in range(cfg.num_dec_layers):
        pre = f"dec{i}"
        for block in ("self", "cross"):
            p |= init_layer_norm(f"{pre}.{block}", d)
            for w in ("wq", "wk", "wv", "wo"):
                p[f"{pre}.{block}.{w}"] = init_matrix(rng, d, d)
        p |= init_ffn(rng, f"{pre}.ffn", d, cfg.ffn_dim)
    return p


def ffn(x: Tensor, params: dict[str, Tensor], pre: str) -> Tensor:
    """Pre-norm residual feed-forward sub-block: x + W2 relu(W1 LN(x))."""
    h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
    h = nm.linear(nm.relu(nm.linear(h, params[f"{pre}.w1"], params[f"{pre}.b1"])),
                  params[f"{pre}.w2"], params[f"{pre}.b2"])
    return nm.add(x, h)


def _project(h: Tensor, params: dict[str, Tensor], pre: str):
    """Keys and values ``h Wk`` and ``h Wv`` of the attention named ``pre``."""
    return nm.matmul(h, params[f"{pre}.wk"]), nm.matmul(h, params[f"{pre}.wv"])


def _attention(x: Tensor, params: dict[str, Tensor], pre: str, kv,
               num_heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Pre-norm residual attention sub-block: x + Wo MHA(h Wq, kv(h)) with
    h = LN(x); ``kv(h)`` gives the keys and values and ``mask`` marks
    blocked (row, key) pairs."""
    h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
    k, v = kv(h)
    attended = nm.multi_head_attention(nm.matmul(h, params[f"{pre}.wq"]), k, v,
                                       num_heads, mask)
    return nm.add(x, nm.matmul(attended, params[f"{pre}.wo"]))


def encode(region_vectors, cfg: CaptionerConfig, params: dict[str, Tensor],
           segments=None) -> Tensor:
    """Region vectors (n, visual_dim) -> encoder memory (n, d_model).

    Several scenes pack into one call as stacked rows: ``segments`` (n,)
    numbers each row's scene (default: one scene), and a row attends to the
    rows of its own scene only. Memory slots extend each layer's keys and
    values, visible to every row; the output has the input's rows.
    """
    x = region_vectors if isinstance(region_vectors, Tensor) else Tensor(region_vectors)
    if x.shape[0] < 1:
        raise ValueError("encoder needs at least one region")
    if x.shape[1] != cfg.visual_dim:
        raise ValueError(f"expected visual dim {cfg.visual_dim}, got {x.shape[1]}")
    n = x.shape[0]
    seg = np.zeros(n, dtype=np.intp) if segments is None else np.asarray(segments)
    if seg.shape != (n,):
        raise ValueError(f"segments shape {seg.shape} vs {n} region rows")
    mask = np.concatenate([seg[:, None] != seg[None, :],
                           np.zeros((n, cfg.num_memory), dtype=bool)], axis=1)[None]
    x = nm.linear(nm.reshape(x, (1,) + x.shape), params["enc.input.w"],
                  params["enc.input.b"])
    for i in range(cfg.num_enc_layers):
        def kv(h, i=i):  # each memory slot is one (head_dim) row every head reads
            return [nm.concat([t, nm.reshape(nm.concat(
                        [params[f"enc{i}.mem.{name}"]] * cfg.num_heads, axis=1),
                        (1, cfg.num_memory, -1))], axis=1)
                    if cfg.num_memory else t
                    for t, name in zip(_project(h, params, f"enc{i}.attn"), "kv")]

        x = _attention(x, params, f"enc{i}.attn", kv, cfg.num_heads, mask)
        x = ffn(x, params, f"enc{i}.ffn")
    x = nm.layer_norm(x, params["enc.final.ln_gain"], params["enc.final.ln_bias"])
    return nm.reshape(x, (n, cfg.d_model))


def _validate_tokens(tokens, cfg: CaptionerConfig) -> np.ndarray:
    """``tokens`` as a checked (rows, n) id array: the one token-id check of
    teacher forcing and the decoder step. In this order, the array must be
    non-empty and of integers, every row must begin with BOS, n must be at
    most ``max_len`` and every id must be in the vocabulary; else
    ``ValueError``."""
    ids = np.asarray(tokens)
    if ids.ndim != 2 or ids.size == 0:
        raise ValueError(f"token ids must be a non-empty (rows, n) array, "
                         f"got shape {ids.shape}")
    if ids.dtype.kind not in "iu":  # signed or unsigned integers
        raise ValueError(f"token ids must be integers, not {ids.dtype}")
    ids = ids.astype(np.intp, copy=False)
    if (ids[:, 0] != cfg.vocab.bos_id).any():
        raise ValueError("token sequence must begin with BOS")
    if ids.shape[1] > cfg.max_len:
        raise ValueError(f"sequence length {ids.shape[1]} exceeds budget {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= len(cfg.vocab):
        raise ValueError("unknown token id in sequence")
    return ids


def _embed(ids, pe: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """Up-projected embeddings of ``ids`` plus their position rows ``pe``."""
    x = nm.gather_rows(params["embed.E"], ids)
    x = nm.linear(x, params["embed.up_w"], params["embed.up_b"])
    return nm.add(x, Tensor(pe))


def _decoder_stack(x: Tensor, self_kv, self_mask: np.ndarray | None, cross_kv,
                   cross_mask: np.ndarray | None, cfg: CaptionerConfig,
                   params: dict[str, Tensor]) -> Tensor:
    """The decoder layers over ``x`` (blocks, rows, d), then the down projection.

    ``self_kv(i, h)`` and ``cross_kv(i, h)`` give layer i's self- and
    cross-attention keys and values, one block per block of the normed rows
    ``h``; the masks, when given, mark blocked (row, key) pairs.
    """
    for i in range(cfg.num_dec_layers):
        x = _attention(x, params, f"dec{i}.self", lambda h: self_kv(i, h),
                       cfg.num_heads, self_mask)
        x = _attention(x, params, f"dec{i}.cross", lambda h: cross_kv(i, h),
                       cfg.num_heads, cross_mask)
        x = ffn(x, params, f"dec{i}.ffn")
    x = nm.layer_norm(x, params["dec.final.ln_gain"], params["dec.final.ln_bias"])
    return nm.linear(x, params["embed.down_w"], params["embed.down_b"])


def decode_hidden(tokens, enc_out: Tensor, cfg: CaptionerConfig,
                  params: dict[str, Tensor], scenes=None, enc_segments=None) -> Tensor:
    """Down-projected decoder states (rows, embed_dim), pre-tying.

    Teacher forcing, packed: ``tokens`` is a list of sequences whose rows
    are stacked in order. Every position attends to itself and the
    positions before it in its own sequence, and to the encoder rows of its
    scene: ``scenes[b]`` (default 0) numbers sequence b's scene, matched
    against ``enc_segments`` (as given to ``encode``; default one scene).
    """
    seqs = [_validate_tokens([t], cfg)[0] for t in tokens]
    scenes = (np.zeros(len(seqs), dtype=np.intp) if scenes is None
              else np.asarray(scenes))
    if scenes.shape != (len(seqs),):
        raise ValueError(f"{len(scenes)} scene numbers for {len(seqs)} sequences")
    if enc_segments is None:
        enc_segments = np.zeros(enc_out.shape[0], dtype=np.intp)
    segment = np.repeat(np.arange(len(seqs)), [len(s) for s in seqs])
    pos = np.concatenate([np.arange(len(s)) for s in seqs])
    self_mask = (segment[:, None] != segment[None, :]) | (pos[None, :] > pos[:, None])
    cross_mask = scenes[segment][:, None] != np.asarray(enc_segments)[None, :]
    x = _embed(np.concatenate(seqs)[None],
               positional_encoding(cfg.max_len, cfg.d_model)[pos[None]], params)
    enc = nm.reshape(enc_out, (1,) + enc_out.shape)
    h = _decoder_stack(
        x, lambda i, h: _project(h, params, f"dec{i}.self"), self_mask[None],
        lambda i, h: _project(enc, params, f"dec{i}.cross"), cross_mask[None],
        cfg, params)
    return nm.reshape(h, h.shape[1:])


def decode_logits(tokens, enc_out: Tensor, cfg: CaptionerConfig,
                  params: dict[str, Tensor], scenes=None, enc_segments=None) -> Tensor:
    """Next-token logits (rows, |V|) of a packed list of sequences (see
    ``decode_hidden``); the output head is the transpose of the word
    embedding matrix."""
    h = decode_hidden(tokens, enc_out, cfg, params, scenes, enc_segments)
    return nm.matmul(h, nm.transpose(params["embed.E"]))


def token_logprobs(tokens, enc_out: Tensor, cfg: CaptionerConfig,
                   params: dict[str, Tensor], scenes=None, enc_segments=None) -> Tensor:
    """Log-prob of every next token of a packed list of sequences (see
    ``decode_hidden``), sequence by sequence: a length-L sequence gives L - 1
    entries, position t scoring token t + 1."""
    lsm = nm.log_softmax(decode_logits(tokens, enc_out, cfg, params, scenes,
                                       enc_segments), axis=-1)
    seqs = [np.asarray(t, dtype=np.intp) for t in tokens]
    last = np.cumsum([len(s) for s in seqs]) - 1
    return nm.take(lsm, np.delete(np.arange(last[-1] + 1), last),
                   np.concatenate([s[1:] for s in seqs]))


def xent_loss(tokens, enc_out: Tensor, cfg: CaptionerConfig,
              params: dict[str, Tensor], scenes=None, enc_segments=None) -> Tensor:
    """Mean next-token cross-entropy of a packed list of sequences (see
    ``decode_hidden``), each of which must hold EOS.

    The loss is the mean over sequences of each one's mean, so a length-L
    sequence's ``token_logprobs`` entries weigh 1 / ((L - 1) · number of
    sequences).
    """
    picked = token_logprobs(tokens, enc_out, cfg, params, scenes, enc_segments)
    # token_logprobs has checked every caption, so each converts to ids
    if any(cfg.vocab.eos_id not in np.asarray(t) for t in tokens):
        raise ValueError("training sequence lacks EOS")
    steps = [len(t) - 1 for t in tokens]
    weights = np.repeat([1.0 / (n * len(tokens)) for n in steps], steps)
    return nm.neg(nm.tsum(nm.mul(picked, Tensor(weights))))


class BudgetExhausted(Exception):
    """The prefix already fills the decoding budget."""


@dataclass(repr=False)
class SceneStepModel:
    """The decoder step of one scene, batched over prefixes, with the ids a
    search needs, and packed teacher-forced scoring of whole sequences.

    It holds the scene's encoder output and the parameters as given, so
    ``enc_out`` and ``all_step_logprobs`` are on the tape when they are;
    fine-tuning scores against ``enc_out`` in packed passes over several
    scenes. ``step`` reads a detached view of both, made with the encoder's
    cross-attention keys and values when the model is built, and builds no
    tape.

    ``step(prefixes)`` scores every prefix in one decoder pass over their
    last tokens only, in the call order of a grid search: all prefixes of
    a call have one length n, and past BOS each prefix's parent (the prefix
    minus its last token) was a prefix of the previous call. Any other call
    order raises ``ValueError``.

    Cache: per decoder layer, a keys and a values array of shape (rows, n,
    d) whose row r holds every position of the latest call's prefix r. A
    call gathers its parents' rows, appends its new position, and passes
    row r as the key block of query block r, with no mask; the scene's
    cross-attention keys and values are repeated as one block per row.
    The cache assumes fixed weights: an instance serves one search.
    """

    enc_out: Tensor
    cfg: CaptionerConfig
    params: dict[str, Tensor]
    _rows: dict = field(default_factory=dict, init=False)  # prefix -> row of _kv
    _kv: list = field(default_factory=list, init=False)  # per layer (keys, values)

    def __post_init__(self):
        self._detached = {k: v.detach() for k, v in self.params.items()}
        enc = Tensor(self.enc_out.data[None])
        self._cross = [_project(enc, self._detached, f"dec{i}.cross")
                       for i in range(self.cfg.num_dec_layers)]

    @property
    def bos_id(self) -> int:
        return self.cfg.vocab.bos_id

    @property
    def eos_id(self) -> int:
        return self.cfg.vocab.eos_id

    @property
    def vocab_size(self) -> int:
        return len(self.cfg.vocab)

    def step(self, prefixes) -> np.ndarray:
        """Next-token log-probs (len(prefixes), |V|) of BOS-led prefixes, as
        a plain array.

        The prefixes are checked in this order: ``BudgetExhausted`` when one
        is at the budget, ``ValueError`` for mixed lengths, then
        ``_validate_tokens`` on them as one (rows, n) id array, the check
        teacher forcing runs too."""
        cfg = self.cfg
        lengths = {len(p) for p in prefixes}
        if max(lengths, default=0) >= cfg.max_len:
            raise BudgetExhausted(
                f"prefix length {max(lengths)} is at budget {cfg.max_len}")
        if len(lengths) != 1:
            raise ValueError("a step takes one or more prefixes of one length")
        ids = _validate_tokens(prefixes, cfg)
        checked = [tuple(p) for p in ids.tolist()]
        n = ids.shape[1]
        if n == 1:  # BOS alone: its empty parent has no position to attend to
            self._rows = {(): 0}
            self._kv = [(np.zeros((1, 0, cfg.d_model)),) * 2] * cfg.num_dec_layers
        try:
            parents = [self._rows[p[:-1]] for p in checked]
        except KeyError as exc:
            raise ValueError(f"prefix {exc.args[0]} was not stepped by the "
                             "previous call") from None
        past_kv, params = self._kv, self._detached
        layers = []

        def self_kv(i, h):
            kv = tuple(np.concatenate([past[parents], new.data], axis=1)
                       for past, new in zip(past_kv[i],
                                            _project(h, params, f"dec{i}.self")))
            layers.append(kv)
            return tuple(Tensor(a) for a in kv)

        def cross_kv(i, h):  # a copy per row: np.broadcast_to's view costs more
            return tuple(Tensor(t.data.repeat(len(ids), axis=0))
                         for t in self._cross[i])

        x = _embed(ids[:, -1:], positional_encoding(cfg.max_len, cfg.d_model)[n - 1],
                   params)
        h = _decoder_stack(x, self_kv, None, cross_kv, None, cfg, params)
        logits = nm.matmul(h, nm.transpose(params["embed.E"]))
        self._rows = {p: r for r, p in enumerate(checked)}
        self._kv = layers
        return nm.log_softmax(logits, axis=-1).data[:, 0]

    def all_step_logprobs(self, seqs) -> Tensor:
        """``token_logprobs`` of BOS-led sequences on the model's encode, on
        the tape when the model's parameters require gradients."""
        return token_logprobs(seqs, self.enc_out, self.cfg, self.params)
