"""Memory-augmented transformer captioner.

Encoder: self-attention over region feature vectors where every layer's
keys and values are extended with learnable memory slots that do not depend
on the input. Decoder: a right-masked transformer language model with
cross-attention on the encoder output. Word embeddings sit in a smaller
space than the model width, with learned up/down projections on either side
of the decoder stack, and output logits tie to the transpose of the
embedding matrix.

Teacher forcing runs one decoder-layer body on (blocks, rows, width)
activations, and the parameters choose its op set (``numerics.op_set``):
tensors, given when a backward follows, run on the taped ops of
``numerics``; parameter arrays (``numerics.arrays_of``) run on those ops'
array forwards, ``numerics.ARRAY_OPS``, which build no tensor and no tape
node but round exactly as the taped ops. ``tree_logprobs`` is the one
teacher-forced scorer. It runs the body over prefix-tree rows packed as
one block: each row is a token after a parent row (none at BOS), its
position is its depth, and a mask keeps it to its ancestors, itself and
its own scene's encoder rows; it picks the log-prob of each (row, next
token) edge it is given, and runs the token-id check on every path. Both
training phases weigh sequences' log-probs with ``weighted_logprob``: one
pass over the trie of each scene's distinct proper prefixes
(``prefix_tree``), each edge picked once; pre-training weighs a
minibatch's references (``xent_loss``), fine-tuning each scene's
candidates. The encoder packs distinct scenes the same way, with the
memory slots visible to every row.

``SceneStepModel.step`` scores the last token of many prefixes at once,
for search, in its own straight-line pass on plain (rows, width) arrays:
what is fixed for a scene (its cross-attention against the encoder output)
is folded into the model's weights when it is built, and earlier
positions' self-attention keys and values come from the previous call's
cache. It calls none of the shared code (``_embed``, ``ffn``,
``_decoder_out``, ``_output_head`` or the op-set dispatch): it runs their
operations, in their order, as numpy expressions on arrays it bound once,
and ``test_rows_equal_the_shared_sub_block_chain_bitwise`` pins its rows
bitwise to a step built from those sub-blocks.
``test_random_batches_match_full_recompute``,
``test_search_order_trees_match_decode_logits`` and
``test_matches_final_logits_row`` pin each of its rows to the
teacher-forced row at 1e-12. PAD is an ordinary token to both paths.

Every pre-norm residual sub-block is one op of the parameters' op set:
``ffn`` is ``numerics.ffn_block``, and ``_attention`` (the encoder's
self-attention over its rows and memory slots, the decoder's
self-attention, and its cross-attention on keys and values projected from
the encoder output by ``_project``) is ``numerics.attention_block``. On the
tape each is one node with a hand-written backward.

The parameter builders (``init_matrix``, ``init_layer_norm``, ``init_ffn``)
and the sub-blocks ``ffn`` and ``_attention`` also build the region
selector.
"""

from __future__ import annotations

import json
import math
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


# The sub-blocks below run on the op set of their parameters
# (``numerics.op_set``): the taped ops on tensors, ``numerics.ARRAY_OPS`` on
# plain arrays.


def ffn(x: Tensor, params: dict[str, Tensor], pre: str) -> Tensor:
    """Pre-norm residual feed-forward sub-block x + W2 relu(W1 LN(x)), one
    ``numerics.ffn_block``."""
    return nm.op_set(params).ffn_block(
        x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"], params[f"{pre}.w1"],
        params[f"{pre}.b1"], params[f"{pre}.w2"], params[f"{pre}.b2"])


def _project(h: Tensor, params: dict[str, Tensor], pre: str):
    """Keys and values ``h Wk`` and ``h Wv`` of the attention named ``pre``."""
    ops = nm.op_set(params)
    return ops.matmul(h, params[f"{pre}.wk"]), ops.matmul(h, params[f"{pre}.wv"])


def _attention(x: Tensor, params: dict[str, Tensor], pre: str, num_heads: int,
               mask: np.ndarray, kv=None, memory: str | None = None) -> Tensor:
    """Pre-norm residual attention sub-block x + Wo MHA(h Wq, K, V) with
    h = LN(x), one ``numerics.attention_block``; ``mask`` marks blocked
    (row, key) pairs.

    K and V are ``kv`` when given, else ``h Wk`` and ``h Wv``, then
    extended by the memory slots ``{memory}.k`` and ``{memory}.v`` when
    ``memory`` names them. Cross-attention gives ``kv`` from ``_project``,
    so each product of the encoder output is its own tape node and the
    encoder output sums its gradients from every layer in the tape's order.
    The attention has no Wo when ``params`` holds none (the selector's).
    """
    k, v = (params[f"{pre}.wk"], params[f"{pre}.wv"]) if kv is None else kv
    mem_k, mem_v = ((None, None) if memory is None
                    else (params[f"{memory}.k"], params[f"{memory}.v"]))
    return nm.op_set(params).attention_block(
        x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"], params[f"{pre}.wq"], k, v,
        params.get(f"{pre}.wo"), mem_k, mem_v, num_heads, mask)


def encode(region_vectors, cfg: CaptionerConfig, params: dict[str, Tensor],
           segments=None) -> Tensor:
    """Region vectors (n, visual_dim) -> encoder memory (n, d_model), on the
    parameters' op set: parameter arrays give an array, tensors a taped
    result.

    Several scenes pack into one call as stacked rows: ``segments`` (n,)
    numbers each row's scene (default: one scene), and a row attends to the
    rows of its own scene only. Memory slots extend each layer's keys and
    values, visible to every row; the output has the input's rows.
    """
    x = np.asarray(region_vectors, np.float64)
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
    ops = nm.op_set(params)
    x = ops.linear(ops.reshape(x, (1,) + x.shape), params["enc.input.w"],
                   params["enc.input.b"])
    for i in range(cfg.num_enc_layers):
        x = _attention(x, params, f"enc{i}.attn", cfg.num_heads, mask,
                       memory=f"enc{i}.mem" if cfg.num_memory else None)
        x = ffn(x, params, f"enc{i}.ffn")
    x = ops.layer_norm(x, params["enc.final.ln_gain"], params["enc.final.ln_bias"])
    return ops.reshape(x, (n, cfg.d_model))


def _check_ids(ids: np.ndarray, heads, length: int, cfg: CaptionerConfig) -> np.ndarray:
    """``ids`` as ``np.intp`` after the one token-id check of teacher forcing
    and the step. In this order: ids must be integers, each sequence's first
    id (in ``heads``) BOS, the longest sequence's ``length`` at most
    ``max_len``, and every id in the vocabulary; else ``ValueError``."""
    if ids.dtype.kind not in "iu":  # signed or unsigned integers
        raise ValueError(f"token ids must be integers, not {ids.dtype}")
    ids = ids.astype(np.intp, copy=False)
    if (heads != cfg.vocab.bos_id).any():
        raise ValueError("token sequence must begin with BOS")
    if length > cfg.max_len:
        raise ValueError(f"sequence length {length} exceeds budget {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= len(cfg.vocab):
        raise ValueError("unknown token id in sequence")
    return ids


def _embed(ids, pe: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """Up-projected embeddings of ``ids`` plus their position rows ``pe``."""
    ops = nm.op_set(params)
    x = ops.gather_rows(params["embed.E"], ids)
    x = ops.linear(x, params["embed.up_w"], params["embed.up_b"])
    return ops.add(x, pe)


def _decoder_stack(x: Tensor, enc: Tensor, self_mask: np.ndarray,
                   cross_mask: np.ndarray, cfg: CaptionerConfig,
                   params: dict[str, Tensor]) -> Tensor:
    """The decoder layers over the packed rows ``x`` (1, rows, d), then the
    down projection. Each layer's self-attention reads the keys and values
    of its own normed rows, and its cross-attention those of the encoder
    output ``enc`` (1, n, d); the masks mark blocked (row, key) pairs.
    """
    for i in range(cfg.num_dec_layers):
        x = _attention(x, params, f"dec{i}.self", cfg.num_heads, self_mask)
        x = _attention(x, params, f"dec{i}.cross", cfg.num_heads, cross_mask,
                       kv=_project(enc, params, f"dec{i}.cross"))
        x = ffn(x, params, f"dec{i}.ffn")
    return _decoder_out(x, params)


def _decoder_out(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """The decoder's final layer norm and down projection of states ``x``."""
    ops = nm.op_set(params)
    x = ops.layer_norm(x, params["dec.final.ln_gain"], params["dec.final.ln_bias"])
    return ops.linear(x, params["embed.down_w"], params["embed.down_b"])


def _output_head(h: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Next-token log-probs of decoder states ``h``: log-softmax of ``h Eᵀ``,
    the head tied to the word embedding matrix E. The scorer runs it;
    ``SceneStepModel.step`` runs its own copy on arrays."""
    ops = nm.op_set(params)
    return ops.log_softmax(ops.matmul(h, ops.transpose(params["embed.E"])), axis=-1)


def tree_layout(parents) -> tuple[np.ndarray, np.ndarray]:
    """Positions and self-attention mask of prefix-tree rows.

    ``parents[r]`` is row r's parent row, an integer, which comes before it,
    or -1 at BOS; else ``ValueError``. Row r's position is its depth, and
    row r of the (rows, rows) mask, True where blocked, admits exactly its
    ancestors and itself.
    """
    parents = np.asarray(parents)
    if parents.size and parents.dtype.kind not in "iu":  # signed or unsigned
        raise ValueError(f"parent rows must be integers, not {parents.dtype}")
    parents = parents.astype(np.intp, copy=False)
    if ((parents < -1) | (parents >= np.arange(len(parents)))).any():
        raise ValueError("a row's parent must come before it")
    depth = np.zeros(len(parents), dtype=np.intp)
    admitted = np.eye(len(parents), dtype=bool)
    rows, node = np.arange(len(parents)), parents
    while (live := node >= 0).any():  # one level of ancestors per round
        rows, node = rows[live], node[live]
        depth[rows] += 1
        admitted[rows, node] = True
        node = parents[node]
    return depth, ~admitted


def _sequences(tokens, cfg: CaptionerConfig) -> list[list[int]]:
    """A non-empty list of non-empty flat integer sequences as id lists,
    whose ids pass one ``_check_ids`` as a batch (so of several faults, the
    first check to fail names its own); else ``ValueError``."""
    if len(tokens) == 0:
        raise ValueError("the list of sequences to score is empty")
    seqs = [np.asarray(t) for t in tokens]
    for seq in seqs:
        if seq.ndim != 1 or seq.size == 0:
            raise ValueError(f"token ids must be a non-empty (rows, n) array, "
                             f"got shape {(1,) + seq.shape}")
        if seq.dtype.kind not in "iu":  # checked before concatenation casts it
            raise ValueError(f"token ids must be integers, not {seq.dtype}")
    lengths = np.array([len(seq) for seq in seqs])
    starts = np.cumsum(lengths) - lengths
    ids = np.concatenate(seqs, dtype=np.intp)
    ids = _check_ids(ids, ids[starts], lengths.max(), cfg).tolist()
    return [ids[a:a + n] for a, n in zip(starts.tolist(), lengths.tolist())]


def prefix_tree(tokens, cfg: CaptionerConfig, scenes=None):
    """Prefix-tree rows of packed whole sequences:
    ``(ids, parents, rows, targets, edge_of, row_scenes)``, the rows and
    edges ``tree_logprobs`` takes.

    The sequences must pass ``_sequences`` and ``scenes[b]`` (default 0)
    numbers sequence b's scene; else ``ValueError``.
    The rows are the distinct proper prefixes of each scene's sequences, in
    order of first appearance: row r is a prefix's last token ``ids[r]``
    after the row ``parents[r]`` of the prefix before it (-1 at BOS), in
    scene ``row_scenes[r]``. Prefixes of different scenes never merge, and
    a sequence's last token is only a target. Each (row, next token) edge
    is listed once, as ``rows[j]`` and ``targets[j]``; ``edge_of`` gives
    the edge of every token after BOS, sequence by sequence.
    """
    return _tree_rows(_sequences(tokens, cfg), scenes)


def _tree_rows(seqs: list[list[int]], scenes):
    """``prefix_tree`` of sequences that ``_sequences`` checked."""
    scenes = (np.zeros(len(seqs), dtype=np.intp) if scenes is None
              else np.asarray(scenes))
    if scenes.shape != (len(seqs),):
        raise ValueError(f"{scenes.size} scene numbers for {len(seqs)} sequences")
    row_of: dict[tuple, int] = {}  # (scene, parent row, token) -> row
    edge: dict[tuple[int, int], int] = {}  # (row, next token) -> edge
    edge_of = []
    for scene, seq in zip(scenes.tolist(), seqs):
        row = -1
        for token, after in zip(seq, seq[1:]):
            row = row_of.setdefault((scene, row, token), len(row_of))
            edge_of.append(edge.setdefault((row, after), len(edge)))
    parents, ids = np.array([k[1:] for k in row_of], dtype=np.intp).reshape(-1, 2).T
    rows, targets = np.array(list(edge), dtype=np.intp).reshape(-1, 2).T
    return (ids, parents, rows, targets, np.array(edge_of, dtype=np.intp),
            np.array([k[0] for k in row_of]))


def tree_logprobs(ids, parents, rows, targets, enc_out: Tensor,
                  cfg: CaptionerConfig, params: dict[str, Tensor], scenes=None,
                  enc_segments=None) -> Tensor:
    """Log-prob of token ``targets[j]`` after prefix-tree row ``rows[j]``,
    from one teacher-forced pass over the rows on the parameters' op set:
    parameter arrays give an array, tensors a taped result.

    Row r holds token ``ids[r]`` after its parent row ``parents[r]`` (see
    ``tree_layout``). It attends to its ancestors, itself and the encoder
    rows of its scene: ``scenes[r]`` (default 0), matched against
    ``enc_segments`` (as given to ``encode``; default one scene).
    ``prefix_tree`` lays out packed whole sequences.

    Each row's path from BOS, and each edge's row path and target, is a
    sequence that must pass ``_check_ids``. That check, a count of ids or
    scene numbers other than the rows', an edge from no row, a count of
    ``enc_segments`` other than the encoder rows, and a scene with no
    encoder rows raise ``ValueError``.
    """
    depth, self_mask = tree_layout(parents)
    ids, rows, targets = np.asarray(ids), np.asarray(rows), np.asarray(targets)
    scenes = np.zeros(len(depth), dtype=np.intp) if scenes is None else np.asarray(scenes)
    if len(depth) == 0 or ids.shape != depth.shape or scenes.shape != depth.shape:
        raise ValueError(f"{len(depth)} rows need as many ids and scene numbers, "
                         f"got {ids.size} and {scenes.size}")
    if rows.dtype.kind not in "iu" or ((rows < 0) | (rows >= len(depth))).any():
        raise ValueError("every edge must start at a row of the tree")
    checked = _check_ids(np.concatenate([ids, targets]), ids[depth == 0],
                         max(depth.max() + 1, depth[rows].max(initial=-1) + 2), cfg)
    ids, targets = checked[:len(depth)], checked[len(depth):]
    enc_segments = (np.zeros(enc_out.shape[0], dtype=np.intp) if enc_segments is None
                    else np.asarray(enc_segments))
    if enc_segments.shape != enc_out.shape[:1]:
        raise ValueError(f"{enc_segments.size} encoder segment numbers for "
                         f"{enc_out.shape[0]} encoder rows")
    cross_mask = scenes[:, None] != enc_segments[None, :]
    if (alone := cross_mask.all(axis=1)).any():
        raise ValueError(f"scene {scenes[alone.argmax()]} has no encoder rows")
    ops = nm.op_set(params)
    x = _embed(ids[None], positional_encoding(cfg.max_len, cfg.d_model)[depth[None]],
               params)
    enc = ops.reshape(enc_out, (1,) + enc_out.shape)
    h = _decoder_stack(x, enc, self_mask[None], cross_mask[None], cfg, params)
    return ops.take(_output_head(ops.reshape(h, h.shape[1:]), params), rows, targets)


def weighted_logprob(tokens, weights, enc_out: Tensor, cfg: CaptionerConfig,
                     params: dict[str, Tensor], scenes=None,
                     enc_segments=None) -> Tensor:
    """Sum over packed sequences of ``weights[b]`` times sequence b's
    log-prob, from one ``tree_logprobs`` pass over their ``prefix_tree``,
    on the parameters' op set.

    Each (row, next token) edge is picked once and weighs the summed
    weights of the sequences through it. ``scenes`` and ``enc_segments``
    are as for ``prefix_tree`` and ``tree_logprobs``.
    """
    return _weighted_logprob(_sequences(tokens, cfg), weights, enc_out, cfg, params,
                             scenes, enc_segments)


def _weighted_logprob(seqs: list[list[int]], weights, enc_out: Tensor,
                      cfg: CaptionerConfig, params: dict[str, Tensor], scenes,
                      enc_segments) -> Tensor:
    """``weighted_logprob`` of sequences that ``_sequences`` checked."""
    ids, parents, rows, targets, edge_of, row_scenes = _tree_rows(seqs, scenes)
    picked = tree_logprobs(ids, parents, rows, targets, enc_out, cfg, params,
                           row_scenes, enc_segments)
    steps = [len(s) - 1 for s in seqs]
    per_edge = np.bincount(edge_of, np.repeat(weights, steps), minlength=len(targets))
    ops = nm.op_set(params)
    return ops.tsum(ops.mul(picked, per_edge))


def xent_loss(tokens, enc_out: Tensor, cfg: CaptionerConfig,
              params: dict[str, Tensor], scenes=None, enc_segments=None) -> Tensor:
    """Mean next-token cross-entropy of a packed list of sequences, each of
    which must pass ``_sequences`` and hold EOS (see ``prefix_tree``), on
    the parameters' op set. The batch is checked once: its ids, then EOS,
    then ``prefix_tree``'s own checks.

    The loss is the mean over sequences of each one's mean, so a length-L
    sequence weighs 1 / ((L - 1) · number of sequences) in the negated
    ``weighted_logprob``.
    """
    captions = _sequences(tokens, cfg)
    if any(cfg.vocab.eos_id not in c for c in captions):
        raise ValueError("training sequence lacks EOS")
    steps = np.array([len(c) - 1 for c in captions])
    return nm.op_set(params).neg(_weighted_logprob(
        captions, 1.0 / (steps * len(captions)), enc_out, cfg, params, scenes,
        enc_segments))


class BudgetExhausted(Exception):
    """The prefix already fills the decoding budget."""


@dataclass(repr=False)
class SceneStepModel:
    """The decoder step of one scene, batched over prefixes, with the ids a
    search needs.

    It holds the scene's encoder output and the parameters as given,
    tensors or arrays; training and evaluation give it ``encode``'s array
    output and the parameter arrays. ``all_step_logprobs`` runs on the
    parameters as given: on the tape only for tensors. ``step`` runs its
    own straight-line pass on the arrays bound below, calling none of the
    shared sub-block code, and builds no tensor and no tape node.

    Built once per scene, the model reads the weights and folds what the
    scene fixes. Per decoder layer it binds, in one tuple: the
    self-attention's layer norm, its ``[wq | wk | wv]``, (d, 3d), so one
    product gives a row's query, key and value, and its ``wo``; the
    cross-attention's layer norm and its two folded matrices; and the
    feed-forward layer norm, ``w1``, ``b1``, ``w2`` and ``b2``. The folded
    cross-attention is a (d, heads·n) score matrix whose head-h block is
    ``Wq_h K_hᵀ / √head_dim``, and a (heads·n, d) output matrix whose head-h
    block is ``V_h Wo_h``, with ``K_h`` and ``V_h`` head h's keys and values
    of the n encoder rows; a cross block is then a layer norm, one product,
    a softmax per head and one more product. It also binds the embedding,
    its up projection and the position table, and the final layer norm, the
    down projection and ``Eᵀ`` of the output head.

    ``step(prefixes)`` scores every prefix in one pass over their last
    tokens only, in the call order of a grid search: all prefixes of a
    call have one length n, and past BOS each prefix's parent (the prefix
    minus its last token) was a prefix of the previous call. Any other call
    order raises ``ValueError``.

    Cache: per decoder layer, one array of shape (n, rows, 2, heads,
    head_dim), keys at index 0 of its third axis and values at 1, whose
    column r holds every position of the latest call's prefix r. A call
    allocates its own, fills the first n - 1 positions with one
    ``np.take`` of its parents' columns, and writes its new position's key
    and value, which the fused product gives side by side. A call that
    raises leaves the cache as it was.

    Since the weights are read when the model is built, an instance serves
    one search on fixed weights.
    """

    enc_out: Tensor | np.ndarray
    cfg: CaptionerConfig
    params: dict
    _rows: dict = field(default_factory=dict, init=False)  # prefix -> row of _kv
    _kv: list = field(default_factory=list, init=False)  # per layer keys and values

    def __post_init__(self):
        cfg, p = self.cfg, nm.arrays_of(self.params)
        enc = self.enc_out.data if isinstance(self.enc_out, Tensor) else self.enc_out
        heads, hd, d = cfg.num_heads, cfg.head_dim, cfg.d_model
        self._layers = []
        for i in range(cfg.num_dec_layers):
            qkv = np.concatenate([p[f"dec{i}.self.{w}"] for w in ("wq", "wk", "wv")],
                                 axis=1)
            pre = f"dec{i}.cross"
            k, v = (t.reshape(-1, heads, hd).swapaxes(0, 1)  # (heads, n, head_dim)
                    for t in _project(enc, p, pre))
            wq = p[f"{pre}.wq"].reshape(d, heads, hd).swapaxes(0, 1)  # (heads, d, hd)
            scores = (wq @ k.swapaxes(1, 2)) * (1.0 / math.sqrt(hd))  # (heads, d, n)
            out = v @ p[f"{pre}.wo"].reshape(heads, hd, d)  # (heads, n, d)
            self._layers.append((
                p[f"dec{i}.self.ln_gain"], p[f"dec{i}.self.ln_bias"], qkv,
                p[f"dec{i}.self.wo"], p[f"{pre}.ln_gain"], p[f"{pre}.ln_bias"],
                scores.swapaxes(0, 1).reshape(d, -1), out.reshape(-1, d),
                *(p[f"dec{i}.ffn.{w}"]
                  for w in ("ln_gain", "ln_bias", "w1", "b1", "w2", "b2"))))
        self._embedding = (p["embed.E"], p["embed.up_w"], p["embed.up_b"],
                           positional_encoding(cfg.max_len, d))
        self._head = (p["dec.final.ln_gain"], p["dec.final.ln_bias"], p["embed.down_w"],
                      p["embed.down_b"], p["embed.E"].T)

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
        that they form a non-empty (rows, n) id array, then ``_check_ids``
        on it, the check teacher forcing runs too. A call that raises leaves
        the cache as it was."""
        cfg = self.cfg
        lengths = {len(p) for p in prefixes}
        if max(lengths, default=0) >= cfg.max_len:
            raise BudgetExhausted(
                f"prefix length {max(lengths)} is at budget {cfg.max_len}")
        if len(lengths) != 1:
            raise ValueError("a step takes one or more prefixes of one length")
        ids = np.asarray(prefixes)
        if ids.ndim != 2 or ids.size == 0:
            raise ValueError(f"token ids must be a non-empty (rows, n) array, "
                             f"got shape {ids.shape}")
        ids = _check_ids(ids, ids[:, 0], ids.shape[1], cfg)
        checked = [tuple(p) for p in ids.tolist()]
        heads, hd, d, rows, n = cfg.num_heads, cfg.head_dim, cfg.d_model, *ids.shape
        if n == 1:  # BOS alone: its empty parent has no position to attend to
            self._rows = {(): 0}
            self._kv = [np.zeros((0, 1, 2, heads, hd))] * cfg.num_dec_layers
        try:
            parents = np.array([self._rows[p[:-1]] for p in checked], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"prefix {exc.args[0]} was not stepped by the "
                             "previous call") from None
        scale, layers = 1.0 / math.sqrt(hd), []
        E, up_w, up_b, pe = self._embedding
        x = E[ids[:, -1]] @ up_w
        x += up_b
        x += pe[n - 1]
        for (self_g, self_b, qkv_w, wo, cross_g, cross_b, score_w, out_w,
             ffn_g, ffn_b, w1, b1, w2, b2), past in zip(self._layers, self._kv):
            qkv = (nm.layer_norm_forward(x, self_g, self_b)[0] @ qkv_w
                   ).reshape(rows, 3, heads, hd)
            # one copy gathers the parents' positions; the indices are valid,
            # and mode "clip" spares the copy that mode "raise" makes first
            kv = np.empty((n, rows, 2, heads, hd))  # position, row, key or value
            np.take(past, parents, axis=1, out=kv[:-1], mode="clip")
            kv[-1] = qkv[:, 1:]
            layers.append(kv)
            keys = kv[:, :, 0].transpose(1, 2, 3, 0)  # (rows, heads, head_dim, n)
            probs = nm.softmax_forward((qkv[:, 0, :, None] @ keys) * scale)
            # BLAS may sum the value product in another order when the
            # stride between positions changes (OpenBLAS's gemv does for
            # head_dim <= 3), so it reads one contiguous (n, head_dim) block
            # per row and head
            v = np.ascontiguousarray(kv[:, :, 1].transpose(1, 2, 0, 3))
            x += (probs @ v).reshape(rows, d) @ wo
            scores = nm.layer_norm_forward(x, cross_g, cross_b)[0] @ score_w
            probs = nm.softmax_forward(scores.reshape(rows, heads, -1))
            x += probs.reshape(rows, -1) @ out_w
            a = nm.layer_norm_forward(x, ffn_g, ffn_b)[0] @ w1
            a += b1
            y = np.maximum(a, 0.0) @ w2
            y += b2
            x += y
        gain, bias, down_w, down_b, e_t = self._head
        h = nm.layer_norm_forward(x, gain, bias)[0] @ down_w
        h += down_b
        lp = nm.log_softmax_forward(h @ e_t)
        self._rows = {prefix: r for r, prefix in enumerate(checked)}
        self._kv = layers
        return lp

    def all_step_logprobs(self, seqs) -> Tensor:
        """Log-prob of every next token of BOS-led sequences, sequence by
        sequence, on the model's encode: ``tree_logprobs`` over their
        ``prefix_tree``, each token reading its edge. It runs on its
        parameters' op set, on the tape only for tensors. No caller is left
        in ``src/``; ``bench/tracer.py`` times it (ROADMAP item 1)."""
        ids, parents, rows, targets, edge_of, _ = prefix_tree(seqs, self.cfg)
        return tree_logprobs(ids, parents, rows[edge_of], targets[edge_of],
                             self.enc_out, self.cfg, self.params)
