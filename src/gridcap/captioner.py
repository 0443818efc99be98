"""Memory-augmented transformer captioner.

Encoder: self-attention over region feature vectors where every layer's
keys and values are extended with learnable memory slots that do not depend
on the input. Decoder: a right-masked transformer language model with
cross-attention on the encoder output. Word embeddings sit in a smaller
space than the model width, with learned up/down projections on either side
of the decoder stack, and output logits tie to the transpose of the
embedding matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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


def decode_hidden(tokens, enc_out: Tensor, cfg: CaptionerConfig,
                  params: dict[str, Tensor]) -> Tensor:
    """Down-projected decoder states (len(tokens), embed_dim), pre-tying."""
    ids = _validate_tokens(tokens, cfg)
    n = len(ids)
    x = nm.gather_rows(params["embed.E"], ids)
    x = nm.linear(x, params["embed.up_w"], params["embed.up_b"])
    x = nm.add(x, Tensor(positional_encoding(n, cfg.d_model)))

    causal = np.triu(np.ones((n, n), dtype=bool), k=1)
    pad_keys = (ids == cfg.vocab.pad_id)[None, :] & ~np.eye(n, dtype=bool)
    self_mask = causal | pad_keys

    for i in range(cfg.num_dec_layers):
        pre = f"dec{i}.self"
        h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
        attended = nm.multi_head_attention(
            nm.matmul(h, params[f"{pre}.wq"]),
            nm.matmul(h, params[f"{pre}.wk"]),
            nm.matmul(h, params[f"{pre}.wv"]),
            cfg.num_heads, mask=self_mask)
        x = nm.add(x, nm.matmul(attended, params[f"{pre}.wo"]))

        pre = f"dec{i}.cross"
        h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
        attended = nm.multi_head_attention(
            nm.matmul(h, params[f"{pre}.wq"]),
            nm.matmul(enc_out, params[f"{pre}.wk"]),
            nm.matmul(enc_out, params[f"{pre}.wv"]),
            cfg.num_heads)
        x = nm.add(x, nm.matmul(attended, params[f"{pre}.wo"]))

        x = _ffn(x, params, f"dec{i}.ffn")

    x = nm.layer_norm(x, params["dec.final.ln_gain"], params["dec.final.ln_bias"])
    return nm.linear(x, params["embed.down_w"], params["embed.down_b"])


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


def step_distribution(prefix, enc_out: Tensor, cfg: CaptionerConfig,
                      params: dict[str, Tensor]) -> np.ndarray:
    """Log-probabilities over the vocabulary for the next token.

    Returns a plain array (searches never need the tape; use
    sequence-level recomputation for gradients).
    """
    ids = np.asarray(prefix, dtype=np.intp)
    if len(ids) >= cfg.max_len:
        raise BudgetExhausted(f"prefix length {len(ids)} is at budget {cfg.max_len}")
    logits = decode_logits(ids, enc_out, cfg, params)
    row = logits.data[-1]
    shifted = row - row.max()
    return shifted - math.log(np.exp(shifted).sum())


@dataclass(repr=False)
class SceneStepModel:
    """Bundles the decoder step with the ids a search needs."""

    enc_out: Tensor
    cfg: CaptionerConfig
    params: dict[str, Tensor]

    @property
    def bos_id(self) -> int:
        return self.cfg.vocab.bos_id

    @property
    def eos_id(self) -> int:
        return self.cfg.vocab.eos_id

    @property
    def vocab_size(self) -> int:
        return len(self.cfg.vocab)

    def step(self, prefix) -> np.ndarray:
        return step_distribution(prefix, self.enc_out, self.cfg, self.params)

    def all_step_logprobs(self, full_ids) -> Tensor:
        """Teacher-forced per-position log-prob rows, on the tape when the
        bundled parameters require gradients."""
        logits = decode_logits(full_ids, self.enc_out, self.cfg, self.params)
        return nm.log_softmax(logits, axis=-1)
