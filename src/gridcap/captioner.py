"""Memory-augmented transformer captioner.

Encoder: self-attention over region feature vectors where every layer's
keys and values are extended with learnable memory slots that do not depend
on the input. Decoder: a right-masked transformer language model with
cross-attention on the encoder output. Word embeddings sit in a smaller
space than the model width, with learned up/down projections on either side
of the decoder stack, and output logits tie to the transpose of the
embedding matrix.

One decoder-layer body serves two callers. Teacher forcing runs it over a
whole sequence, for training and sequence scoring. ``SceneStepModel.step``
runs it over the last token of many prefixes at once, for search. It takes
earlier positions' self-attention keys and values from a cache, and the
encoder's cross-attention keys and values are computed once per scene.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .numerics import Tensor

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
        payload = {"tokens": list(self.tokens),
                   "reserved": {"pad": "<pad>", "bos": "<bos>",
                                "eos": "<eos>", "unk": "<unk>"}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        tokens = payload["tokens"]
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
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.num_memory < 0:
            raise ValueError("num_memory must be nonnegative")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal position table (length, dim)."""
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table


def init_captioner_params(cfg: CaptionerConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    def mat(rows, cols):
        scale = (2.0 / (rows + cols)) ** 0.5
        return Tensor(rng.normal(0.0, scale, size=(rows, cols)), requires_grad=True)

    def vec(n, value=0.0):
        return Tensor(np.full(n, value), requires_grad=True)

    p: dict[str, Tensor] = {
        "embed.E": Tensor(rng.normal(0.0, 0.1, size=(len(cfg.vocab), cfg.embed_dim)),
                          requires_grad=True),
        "embed.up_w": mat(cfg.embed_dim, cfg.d_model),
        "embed.up_b": vec(cfg.d_model),
        "embed.down_w": mat(cfg.d_model, cfg.embed_dim),
        "embed.down_b": vec(cfg.embed_dim),
        "enc.input.w": mat(cfg.visual_dim, cfg.d_model),
        "enc.input.b": vec(cfg.d_model),
        "enc.final.ln_gain": vec(cfg.d_model, 1.0),
        "enc.final.ln_bias": vec(cfg.d_model),
        "dec.final.ln_gain": vec(cfg.d_model, 1.0),
        "dec.final.ln_bias": vec(cfg.d_model),
    }
    for i in range(cfg.num_enc_layers):
        pre = f"enc{i}"
        p[f"{pre}.attn.ln_gain"] = vec(cfg.d_model, 1.0)
        p[f"{pre}.attn.ln_bias"] = vec(cfg.d_model)
        for w in ("wq", "wk", "wv", "wo"):
            p[f"{pre}.attn.{w}"] = mat(cfg.d_model, cfg.d_model)
        if cfg.num_memory > 0:
            p[f"{pre}.mem.k"] = Tensor(
                rng.normal(0.0, 0.1, size=(cfg.num_memory, cfg.head_dim)),
                requires_grad=True)
            p[f"{pre}.mem.v"] = Tensor(
                rng.normal(0.0, 0.1, size=(cfg.num_memory, cfg.head_dim)),
                requires_grad=True)
        p[f"{pre}.ffn.ln_gain"] = vec(cfg.d_model, 1.0)
        p[f"{pre}.ffn.ln_bias"] = vec(cfg.d_model)
        p[f"{pre}.ffn.w1"] = mat(cfg.d_model, cfg.ffn_dim)
        p[f"{pre}.ffn.b1"] = vec(cfg.ffn_dim)
        p[f"{pre}.ffn.w2"] = mat(cfg.ffn_dim, cfg.d_model)
        p[f"{pre}.ffn.b2"] = vec(cfg.d_model)
    for i in range(cfg.num_dec_layers):
        pre = f"dec{i}"
        for block in ("self", "cross"):
            p[f"{pre}.{block}.ln_gain"] = vec(cfg.d_model, 1.0)
            p[f"{pre}.{block}.ln_bias"] = vec(cfg.d_model)
            for w in ("wq", "wk", "wv", "wo"):
                p[f"{pre}.{block}.{w}"] = mat(cfg.d_model, cfg.d_model)
        p[f"{pre}.ffn.ln_gain"] = vec(cfg.d_model, 1.0)
        p[f"{pre}.ffn.ln_bias"] = vec(cfg.d_model)
        p[f"{pre}.ffn.w1"] = mat(cfg.d_model, cfg.ffn_dim)
        p[f"{pre}.ffn.b1"] = vec(cfg.ffn_dim)
        p[f"{pre}.ffn.w2"] = mat(cfg.ffn_dim, cfg.d_model)
        p[f"{pre}.ffn.b2"] = vec(cfg.d_model)
    return p


def frozen(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Detached view of a parameter set; forwards build no tape."""
    return {k: v.detach() for k, v in params.items()}


def _ffn(x: Tensor, params: dict[str, Tensor], pre: str) -> Tensor:
    h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
    h = nm.linear(nm.relu(nm.linear(h, params[f"{pre}.w1"], params[f"{pre}.b1"])),
                  params[f"{pre}.w2"], params[f"{pre}.b2"])
    return nm.add(x, h)


def encode(region_vectors, cfg: CaptionerConfig, params: dict[str, Tensor]) -> Tensor:
    """Region vectors (n, visual_dim) -> encoder memory (n, d_model).

    Memory slots extend each layer's keys and values only; the output
    sequence always has the input length.
    """
    x = region_vectors if isinstance(region_vectors, Tensor) else Tensor(region_vectors)
    if x.shape[0] < 1:
        raise ValueError("encoder needs at least one region")
    if x.shape[1] != cfg.visual_dim:
        raise ValueError(f"expected visual dim {cfg.visual_dim}, got {x.shape[1]}")
    x = nm.linear(x, params["enc.input.w"], params["enc.input.b"])
    for i in range(cfg.num_enc_layers):
        pre = f"enc{i}.attn"
        h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
        attended = nm.multi_head_attention(
            nm.matmul(h, params[f"{pre}.wq"]),
            nm.matmul(h, params[f"{pre}.wk"]),
            nm.matmul(h, params[f"{pre}.wv"]),
            cfg.num_heads,
            mem_k=params.get(f"enc{i}.mem.k"),
            mem_v=params.get(f"enc{i}.mem.v"))
        x = nm.add(x, nm.matmul(attended, params[f"{pre}.wo"]))
        x = _ffn(x, params, f"enc{i}.ffn")
    return nm.layer_norm(x, params["enc.final.ln_gain"], params["enc.final.ln_bias"])


def _validate_tokens(tokens, cfg: CaptionerConfig) -> np.ndarray:
    ids = np.asarray(tokens, dtype=np.intp)
    if ids.ndim != 1 or len(ids) == 0:
        raise ValueError("token sequence must be a nonempty 1-D id list")
    if ids[0] != cfg.vocab.bos_id:
        raise ValueError("token sequence must begin with BOS")
    if len(ids) > cfg.max_len:
        raise ValueError(f"sequence length {len(ids)} exceeds budget {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= len(cfg.vocab):
        raise ValueError("unknown token id in sequence")
    return ids


def _embed(ids, pe: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """Up-projected embeddings of ``ids`` plus their position rows ``pe``."""
    x = nm.gather_rows(params["embed.E"], ids)
    x = nm.linear(x, params["embed.up_w"], params["embed.up_b"])
    return nm.add(x, Tensor(pe))


def _decoder_stack(x: Tensor, self_mask: np.ndarray, self_kv, cross_kv,
                   cfg: CaptionerConfig, params: dict[str, Tensor]) -> Tensor:
    """The decoder layers over the rows of ``x``, then the down projection.

    ``self_kv(i, k, v)`` turns layer i's key and value rows of ``x`` into the
    keys and values those rows attend to, with ``self_mask`` marking blocked
    (row, key) pairs; ``cross_kv(i)`` gives layer i's encoder keys and values.
    """
    for i in range(cfg.num_dec_layers):
        pre = f"dec{i}.self"
        h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
        q = nm.matmul(h, params[f"{pre}.wq"])
        k, v = self_kv(i, nm.matmul(h, params[f"{pre}.wk"]),
                       nm.matmul(h, params[f"{pre}.wv"]))
        attended = nm.multi_head_attention(q, k, v, cfg.num_heads, mask=self_mask)
        x = nm.add(x, nm.matmul(attended, params[f"{pre}.wo"]))

        pre = f"dec{i}.cross"
        h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
        q = nm.matmul(h, params[f"{pre}.wq"])
        k, v = cross_kv(i)
        attended = nm.multi_head_attention(q, k, v, cfg.num_heads)
        x = nm.add(x, nm.matmul(attended, params[f"{pre}.wo"]))

        x = _ffn(x, params, f"dec{i}.ffn")

    x = nm.layer_norm(x, params["dec.final.ln_gain"], params["dec.final.ln_bias"])
    return nm.linear(x, params["embed.down_w"], params["embed.down_b"])


def _cross_kv(enc_out: Tensor, params: dict[str, Tensor], i: int):
    return (nm.matmul(enc_out, params[f"dec{i}.cross.wk"]),
            nm.matmul(enc_out, params[f"dec{i}.cross.wv"]))


def decode_hidden(tokens, enc_out: Tensor, cfg: CaptionerConfig,
                  params: dict[str, Tensor]) -> Tensor:
    """Down-projected decoder states (len(tokens), embed_dim), pre-tying.

    Teacher forcing: every position attends to itself and the non-PAD
    positions before it, and keys and values come from all rows.
    """
    ids = _validate_tokens(tokens, cfg)
    n = len(ids)
    x = _embed(ids, positional_encoding(n, cfg.d_model), params)
    causal = np.triu(np.ones((n, n), dtype=bool), k=1)
    pad_keys = (ids == cfg.vocab.pad_id)[None, :] & ~np.eye(n, dtype=bool)
    return _decoder_stack(x, causal | pad_keys, lambda i, k, v: (k, v),
                          lambda i: _cross_kv(enc_out, params, i), cfg, params)


def decode_logits(tokens, enc_out: Tensor, cfg: CaptionerConfig,
                  params: dict[str, Tensor]) -> Tensor:
    """Next-token logits (len(tokens), |V|); the output head is the
    transpose of the word embedding matrix."""
    h = decode_hidden(tokens, enc_out, cfg, params)
    return nm.matmul(h, nm.transpose(params["embed.E"]))


def xent_loss(tokens, enc_out: Tensor, cfg: CaptionerConfig,
              params: dict[str, Tensor]) -> Tensor:
    """Mean next-token cross-entropy; positions whose target is PAD are skipped."""
    ids = _validate_tokens(tokens, cfg)
    if cfg.vocab.eos_id not in ids:
        raise ValueError("training sequence lacks EOS")
    logits = decode_logits(ids, enc_out, cfg, params)
    lsm = nm.log_softmax(logits, axis=-1)
    rows = [t for t in range(len(ids) - 1) if ids[t + 1] != cfg.vocab.pad_id]
    if not rows:
        raise ValueError("no supervised positions in sequence")
    picked = nm.take(lsm, rows, ids[np.array(rows) + 1])
    return nm.neg(nm.tmean(picked))


class BudgetExhausted(Exception):
    """The prefix already fills the decoding budget."""


@dataclass(repr=False)
class SceneStepModel:
    """The decoder step of one scene, batched over prefixes, with the ids a
    search needs.

    ``step(prefixes)`` scores every prefix in one decoder pass over their
    last tokens only. Earlier positions contribute self-attention keys and
    values cached from the previous call: each prefix attends to the stacked
    keys of all prefixes under the block mask ``segment[key] != prefix``. The
    encoder output's cross-attention keys and values are computed once, on
    the first call.

    Cache scope: only the prefixes of the latest call keep their keys and
    values, so memory stays at one grid column. A prefix whose parent is not
    cached has its missing ancestors stepped first, so any call order gives
    the same rows. The cache assumes fixed weights: an instance serves one
    search, and a search after a parameter update needs a new instance.
    """

    enc_out: Tensor
    cfg: CaptionerConfig
    params: dict[str, Tensor]
    _cross: list | None = field(default=None, init=False)
    _kv: dict = field(default_factory=dict, init=False)

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
        """Next-token log-probs (len(prefixes), |V|) of BOS-led prefixes.

        Returns a plain array (searches never need the tape; use
        sequence-level recomputation for gradients).
        """
        checked = []
        for p in prefixes:
            if len(p) >= self.cfg.max_len:
                raise BudgetExhausted(
                    f"prefix length {len(p)} is at budget {self.cfg.max_len}")
            checked.append(tuple(_validate_tokens(p, self.cfg).tolist()))
        if self._cross is None:
            self._cross = [_cross_kv(self.enc_out, self.params, i)
                           for i in range(self.cfg.num_dec_layers)]
        logprobs, self._kv = self._extend(checked, self._kv)
        return logprobs

    def _extend(self, prefixes: list[tuple], cache: dict):
        """Log-prob rows of ``prefixes`` and the per-layer keys and values of
        all their positions, given those of their parents in ``cache``."""
        missing = sorted({p[:-1] for p in prefixes
                          if len(p) > 1 and p[:-1] not in cache})
        if missing:
            cache = {**cache, **self._extend(missing, cache)[1]}
        cfg, params = self.cfg, self.params
        past = [cache[p[:-1]] if len(p) > 1 else None for p in prefixes]
        # keys: each prefix's cached rows, then its new row, prefix by prefix;
        # a row sees its own block minus PAD keys other than itself, as the
        # last position does under teacher forcing
        sizes = np.array([len(p) for p in prefixes])
        ends = np.cumsum(sizes)
        segment = np.repeat(np.arange(len(prefixes)), sizes)
        keys = np.arange(ends[-1])
        pad_keys = np.concatenate(prefixes) == cfg.vocab.pad_id
        mask = ((segment[None, :] != np.arange(len(prefixes))[:, None])
                | (pad_keys[None, :] & (keys[None, :] != ends[:, None] - 1)))
        layers = []

        def self_kv(i, k, v):
            kv = []
            for j, new in enumerate((k.data, v.data)):
                parts = []
                for b, rows in enumerate(past):
                    if rows is not None:
                        parts.append(rows[i][j])
                    parts.append(new[b:b + 1])
                kv.append(np.concatenate(parts))
            layers.append(kv)
            return Tensor(kv[0]), Tensor(kv[1])

        x = _embed([p[-1] for p in prefixes],
                   positional_encoding(cfg.max_len, cfg.d_model)[sizes - 1], params)
        h = _decoder_stack(x, mask, self_kv, self._cross.__getitem__, cfg, params)
        logits = nm.matmul(h, nm.transpose(params["embed.E"]))
        logprobs = nm.log_softmax(logits, axis=-1).data
        entries = {p: [(k[e - n:e], v[e - n:e]) for k, v in layers]
                   for p, n, e in zip(prefixes, sizes, ends)}
        return logprobs, entries

    def all_step_logprobs(self, full_ids) -> Tensor:
        """Teacher-forced per-position log-prob rows, on the tape when the
        bundled parameters require gradients."""
        logits = decode_logits(full_ids, self.enc_out, self.cfg, self.params)
        return nm.log_softmax(logits, axis=-1)
