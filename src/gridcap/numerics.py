"""Minimal dense-tensor math with reverse-mode differentiation.

Everything is 64-bit: the test suite leans on tight finite-difference
tolerances. Speed does matter, and at desk-scale widths the Python work of
an op (building its output tensor and recording it) mostly outweighs its
arithmetic, so the number of op calls largely sets run time. Attention is
therefore one op per call over every head and every block of its (blocks,
rows, width) inputs, with its own backward. So is each pre-norm residual
sub-block of a transformer layer: ``ffn_block`` and ``attention_block``
are one tape node each, whose backward runs the VJPs of the op chain they
replace in one closure. Their output and gradients are bitwise the
chain's, because they sum each gradient in the order the tape would: the
normed rows' as q + k + v, and each memory slot's over heads 0 to
heads - 1. An input that several nodes read, such as the encoder output
under every decoder layer's cross-attention, gathers its gradient on the
tape, so cross-attention's key and value products stay their own
``matmul`` nodes outside the op; summing them inside it moved every
encoder gradient in the last bits.

An op is its array forward plus a tape record. The forward (``*_forward``)
holds the op's shape checks and arithmetic on plain arrays, and returns
the intermediates its backward reads; the taped op wraps the result in a
``Tensor`` and records the inputs and a vector-Jacobian closure on it.
``ARRAY_OPS`` is the array op set, with the taped ops' names and
signatures. The parameters choose the op set (``op_set``): a pass given
tensors runs on the taped ops, and is given them only when a backward
follows it; every other pass (search, encodes and selections for decoding,
validation) is given the parameters' arrays (``arrays_of``), so it runs the
same body on ``ARRAY_OPS`` and builds no tensor or tape node.

``backward`` walks the explicit per-graph tape. There is no global graph,
so callers can build and drop graphs freely. ``backward`` stores gradients
on leaves only (the parameters and other tensors no op made) and releases
each node's closure as it goes, so one graph serves one backward and its
saved arrays are freed during the walk.

A checkpoint is one canonical JSON document (sorted keys, compact
separators, each parameter's little-endian float64 bytes in base64), but it
is never built whole: one generator produces its bytes per parameter, and
``save_checkpoint`` writes and hashes those chunks in one pass while
``checkpoint_hash`` hashes the same chunks, so the file and the hash read
the same bytes and hold one parameter's encoding at a time.
``load_checkpoint`` reads the file back the same way, one parameter at a
time through a read-only memory map, and accepts only that layout.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import logging
import math
import mmap
import os
import re
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

log = logging.getLogger(__name__)

MASK_FILL = -1e9  # additive pre-softmax penalty; underflows to exact 0 weight
LN_EPS = 1e-5  # layer-norm variance floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NumericsError(Exception):
    """Contract violation inside the tensor layer (shape, domain, non-finite)."""


class DegenerateMaskError(NumericsError):
    """An attention row with every key masked has no defined distribution."""


def check_at_least(cfg, **bounds) -> None:
    """ValueError naming the first field of ``cfg`` that is below its bound."""
    for name, low in bounds.items():
        if getattr(cfg, name) < low:
            raise ValueError(f"{name} must be at least {low}, got {getattr(cfg, name)}")


class Tensor:
    """Dense float64 array plus optional gradient buffer.

    Immutable after creation except for ``grad``. Ops attach ``_parents``
    and ``_vjp`` (grad_out -> per-parent gradient arrays) when any input
    requires a gradient; ``backward`` detaches them again.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise NumericsError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Same data, no gradient tracking, no tape linkage."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def arrays_of(params: dict) -> dict[str, np.ndarray]:
    """Each entry's array, by name: a tensor's data (not a copy), an array
    as given."""
    return {k: v.data if isinstance(v, Tensor) else v for k, v in params.items()}


def _record(out: Tensor, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Attach the tape node if any parent participates in differentiation."""
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b; b may share a's shape, be a scalar, or be a last-axis vector."""
    if a.shape != b.shape and b.ndim not in (0, 1):
        raise NumericsError(f"add shapes {a.shape} vs {b.shape}")
    if b.ndim == 1 and a.shape and a.shape[-1] != b.shape[0]:
        raise NumericsError(f"add broadcast {a.shape} vs {b.shape}")
    return a + b


def _broadcast_grad(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """g summed back onto an ``add`` operand of ``shape``: g itself for a
    full-shape operand, else g's leading axes collapsed."""
    if shape == g.shape:
        return g
    return g.sum(axis=tuple(range(g.ndim - len(shape)))).reshape(shape)


def add(a, b) -> Tensor:
    """a + b; b may share a's shape, be a scalar, or be a last-axis vector."""
    a, b = _wrap(a), _wrap(b)
    out = Tensor(add_forward(a.data, b.data))
    return _record(out, (a, b), lambda g: (g, _broadcast_grad(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape and b.data.ndim != 0:
        raise NumericsError(f"sub shapes {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data)

    def vjp(g):
        gb = -g if b.data.shape == g.shape else np.sum(-g).reshape(b.data.shape)
        return g, gb

    return _record(out, (a, b), vjp)


def mul_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of equal shapes, or by a 0-d side."""
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise NumericsError(f"mul shapes {a.shape} vs {b.shape}")
    return a * b


def mul(a, b) -> Tensor:
    """Elementwise product; either side may be a python scalar."""
    a, b = _wrap(a), _wrap(b)
    out = Tensor(mul_forward(a.data, b.data))

    def vjp(g):
        ga = g * b.data
        gb = g * a.data
        if a.data.ndim == 0:
            ga = np.sum(ga).reshape(())
        if b.data.ndim == 0:
            gb = np.sum(gb).reshape(())
        return ga, gb

    return _record(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def matmul_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., k) @ (k, n), as one 2-D product over a's flattened leading axes."""
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise NumericsError(f"matmul needs (..., k) @ (k, n), got {a.shape} x {b.shape}")
    return (a.reshape(-1, b.shape[0]) @ b).reshape(a.shape[:-1] + b.shape[1:])


def _matmul_vjp(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Gradients of a and b of ``matmul_forward(a, b)`` given its output's g."""
    a2 = a.reshape(-1, b.shape[0])
    g2 = g.reshape(-1, b.shape[1])
    return (g2 @ b.T).reshape(a.shape), a2.T @ g2


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., k) @ (k, n), as one 2-D product over a's flattened leading axes."""
    ad, bd = a.data, b.data
    out = Tensor(matmul_forward(ad, bd))
    return _record(out, (a, b), lambda g: _matmul_vjp(ad, bd, g))


def transpose_forward(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2:
        raise NumericsError("transpose expects a 2-D tensor")
    return a.T


def transpose(a: Tensor) -> Tensor:
    out = Tensor(transpose_forward(a.data))
    return _record(out, (a,), lambda g: (g.T,))


def concat_forward(parts: list[np.ndarray], axis: int = 0) -> np.ndarray:
    if not parts:
        raise NumericsError("concat of zero tensors")
    return np.concatenate(parts, axis=axis)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(concat_forward([p.data for p in parts], axis))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(parts), vjp)


def gather_rows_forward(a: np.ndarray, idx) -> np.ndarray:
    """Rows a[idx]."""
    return a[np.asarray(idx, dtype=np.intp)]


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows a[idx]; backward scatter-adds into the source rows."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(gather_rows_forward(a.data, idx))

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _record(out, (a,), vjp)


def scatter_rows(a: Tensor, idx, num_rows: int) -> Tensor:
    """Place rows of a at positions idx inside a zero (num_rows, d) tensor."""
    idx = np.asarray(idx, dtype=np.intp)
    data = np.zeros((num_rows,) + a.data.shape[1:])
    data[idx] = a.data
    out = Tensor(data)
    return _record(out, (a,), lambda g: (g[idx],))


def col_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start:stop] of a 2-D tensor."""
    out = Tensor(a.data[:, start:stop])

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[:, start:stop] = g
        return (ga,)

    return _record(out, (a,), vjp)


def take_forward(a: np.ndarray, rows, cols) -> np.ndarray:
    """a[rows, cols] as a 1-D array."""
    return a[np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)]


def take(a: Tensor, rows, cols) -> Tensor:
    """a[rows, cols] as a 1-D tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = Tensor(take_forward(a.data, rows, cols))

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, cols), g)
        return (ga,)

    return _record(out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    """a in ``shape``; a may be a plain array, such as a pass's input rows."""
    a = _wrap(a)
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def relu_forward(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def _relu_vjp(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * (a > 0)


def relu(a: Tensor) -> Tensor:
    out = Tensor(relu_forward(a.data))
    return _record(out, (a,), lambda g: (_relu_vjp(a.data, g),))


def sigmoid_forward(a: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(a))  # stable in both tails
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    s = sigmoid_forward(a.data)
    out = Tensor(s)
    return _record(out, (a,), lambda g: (g * s * (1.0 - s),))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = Tensor(e)
    return _record(out, (a,), lambda g: (g * e,))


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is zero at clamped entries."""
    out = Tensor(np.clip(a.data, lo, hi))
    inside = (a.data >= lo) & (a.data <= hi)
    return _record(out, (a,), lambda g: (g * inside,))


def softmax_forward(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``, shifted by the maximum; its backward reads
    this output."""
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    s = softmax_forward(a.data, axis)
    out = Tensor(s)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (a,), vjp)


def log_softmax_forward(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax along ``axis``; its backward reads this output."""
    shifted = a - a.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - lse


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    ls = log_softmax_forward(a.data, axis)
    out = Tensor(ls)

    def vjp(g):
        return (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), vjp)


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize the last axis to zero mean / unit variance, then affine:
    ``(out, xhat, inv)`` with the normalized rows and 1/σ the backward reads.

    One centring serves the variance and ``xhat``; the statistics round
    exactly as ``x.mean`` and ``x.var`` compute them.
    """
    n = x.shape[-1]
    xc = x - np.add.reduce(x, -1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, -1, keepdims=True) / n + LN_EPS)
    xhat = xc  # the centred rows are this call's own, so scale them in place
    xhat *= inv
    return gain * xhat + bias, xhat, inv


def _layer_norm_vjp(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                    inv: np.ndarray):
    """Gradients of x, gain and bias (shaped as gain) of
    ``layer_norm_forward`` given its output's g, from the saved ``xhat``
    and ``inv``."""
    n = g.shape[-1]
    dxhat = g * gain
    m1 = np.add.reduce(dxhat, -1, keepdims=True) / n  # rounds as dxhat.mean
    m2 = np.add.reduce(dxhat * xhat, -1, keepdims=True) / n
    gx = inv * (dxhat - m1 - xhat * m2)
    axes = tuple(range(g.ndim - 1))
    return (gx, (g * xhat).sum(axis=axes).reshape(gain.shape),
            g.sum(axis=axes).reshape(gain.shape))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine
    (see ``layer_norm_forward``)."""
    y, xhat, inv = layer_norm_forward(x.data, gain.data, bias.data)
    out = Tensor(y)

    def vjp(g):
        return _layer_norm_vjp(g, gain.data, xhat, inv)

    return _record(out, (x, gain, bias), vjp)


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b."""
    return add_forward(matmul_forward(x, w), b)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, as a taped ``matmul`` and ``add``."""
    return add(matmul(x, w), b)


def tsum(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    return _record(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean())
    return _record(out, (a,), lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),))


def _split_heads(a: np.ndarray, num_heads: int) -> np.ndarray:
    """(B, rows, heads * w) -> (B, heads, rows, w) view."""
    return a.reshape(a.shape[:2] + (num_heads, a.shape[2] // num_heads)).swapaxes(1, 2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(B, heads, rows, w) -> (B, rows, heads * w), in C order.

    With the key gradient taken as (qᵀ gs)ᵀ, every product of the op rounds
    exactly as the separate per-head ops used to."""
    a = a.swapaxes(1, 2)
    return np.ascontiguousarray(a.reshape(a.shape[:2] + (a.shape[2] * a.shape[3],)))


def _head_scale(q3: np.ndarray) -> float:
    """1/sqrt(head_dim) of split queries (B, heads, m, head_dim)."""
    return 1.0 / math.sqrt(q3.shape[3])


def multi_head_attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                                 num_heads: int, mask: np.ndarray | None = None):
    """``multi_head_attention`` on arrays: ``(out, probs)``, with the
    (B, heads, m, n) attention probabilities the backward reads."""
    if not q.ndim == k.ndim == v.ndim == 3:
        raise NumericsError("attention expects 3-D (blocks, rows, width) q, k, v")
    if k.shape[0] != q.shape[0] or q.shape[2] != k.shape[2]:
        raise NumericsError(f"q/k blocks or key dims {q.shape} vs {k.shape}")
    if k.shape[:2] != v.shape[:2]:
        raise NumericsError(f"k/v blocks or lengths {k.shape} vs {v.shape}")
    if num_heads < 1 or q.shape[2] % num_heads or v.shape[2] % num_heads:
        raise NumericsError(f"{num_heads} heads do not split widths "
                            f"{q.shape[2]} and {v.shape[2]}")
    q3, k3 = _split_heads(q, num_heads), _split_heads(k, num_heads)
    scores = (q3 @ k3.swapaxes(-1, -2)) * _head_scale(q3)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        want = scores.shape[:1] + scores.shape[2:]  # (B, m, n)
        if mask.shape != want:
            raise NumericsError(f"mask shape {mask.shape} vs {want}")
        if mask.all(axis=-1).any():
            raise DegenerateMaskError("attention row with all keys masked")
        scores = scores + np.where(mask, MASK_FILL, 0.0)[:, None]
    probs = softmax_forward(scores)
    return _merge_heads(probs @ _split_heads(v, num_heads)), probs


def _attention_vjp(q: np.ndarray, k: np.ndarray, v: np.ndarray, probs: np.ndarray,
                   num_heads: int, g: np.ndarray):
    """Gradients of q, k and v of ``multi_head_attention_forward`` given its
    output's g, from the saved probabilities."""
    q3, k3, v3 = (_split_heads(t, num_heads) for t in (q, k, v))
    g3 = _split_heads(g, num_heads)
    gp = g3 @ v3.swapaxes(-1, -2)
    gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * _head_scale(q3)
    gk = _merge_heads((q3.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))
    gv = _merge_heads(probs.swapaxes(-1, -2) @ g3)
    return _merge_heads(gs @ k3), gk, gv


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
                         mask: np.ndarray | None = None) -> Tensor:
    """softmax(q kᵀ / sqrt(head_dim) + mask) v per block and head, heads side
    by side.

    q (B, m, d), k (B, n, d) and v (B, n, dv) give (B, m, dv): the query rows
    of block b attend to the keys of block b only. mask, when given, is
    boolean (B, m, n) with True marking BLOCKED (row, key) pairs, shared by
    every head; blocked weights underflow to exactly 0, so padded keys change
    no sum. Packed sequences are one block under a mask; per-row keys are
    one-row blocks.

    Head h reads the h-th of ``num_heads`` equal column blocks of q, k and v.
    No output projection. One tape node: the heads run as (B, heads, rows,
    head_dim) arrays, and the backward reuses the saved probabilities.
    """
    y, probs = multi_head_attention_forward(q.data, k.data, v.data, num_heads, mask)
    out = Tensor(y)
    return _record(out, (q, k, v), lambda g: _attention_vjp(q.data, k.data, v.data,
                                                            probs, num_heads, g))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask: np.ndarray | None = None) -> Tensor:
    """softmax(q kᵀ / sqrt(d) + mask) v: ``multi_head_attention`` with one head."""
    return multi_head_attention(q, k, v, 1, mask)


# ---------------------------------------------------------------------------
# pre-norm residual sub-blocks, one tape node each
# ---------------------------------------------------------------------------


def ffn_block_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
    """``ffn_block`` on arrays: ``(out, saved)``, with the intermediates the
    backward reads."""
    h, xhat, inv = layer_norm_forward(x, gain, bias)
    a = linear_forward(h, w1, b1)
    r = relu_forward(a)
    return add_forward(x, linear_forward(r, w2, b2)), (h, xhat, inv, a, r)


def ffn_block(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor,
              w2: Tensor, b2: Tensor) -> Tensor:
    """Pre-norm residual feed-forward sub-block x + relu(h w1 + b1) w2 + b2,
    with h = ``layer_norm(x, gain, bias)``.

    One tape node: its backward runs the VJPs of the op chain it stands for
    (layer norm, linear, relu, linear, residual add) in one closure, so its
    output and gradients are bitwise the chain's.
    """
    y, (h, xhat, inv, a, r) = ffn_block_forward(x.data, gain.data, bias.data, w1.data,
                                                b1.data, w2.data, b2.data)
    out = Tensor(y)

    def vjp(g):
        gr, gw2 = _matmul_vjp(r, w2.data, g)
        ga = _relu_vjp(a, gr)
        gh, gw1 = _matmul_vjp(h, w1.data, ga)
        gx, ggain, gbias = _layer_norm_vjp(gh, gain.data, xhat, inv)
        gx += g  # the residual's share
        return (gx, ggain, gbias, gw1, _broadcast_grad(ga, b1.data.shape), gw2,
                _broadcast_grad(g, b2.data.shape))

    return _record(out, (x, gain, bias, w1, b1, w2, b2), vjp)


def _memory_rows(mem: np.ndarray, num_heads: int) -> np.ndarray:
    """Memory slots (slots, head_dim) as one (1, slots, heads * head_dim)
    key or value block in which every head reads each slot."""
    slots, head_dim = mem.shape
    return np.reshape(concat_forward([mem] * num_heads, axis=1),
                      (1, slots, num_heads * head_dim))


def _head_sum(g: np.ndarray, num_heads: int) -> np.ndarray:
    """The slots' gradient from that of their ``_memory_rows`` block g: its
    head blocks summed in head order."""
    parts = np.split(g[0], num_heads, axis=1)
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


def attention_block_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                            wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
                            wo: np.ndarray | None, mem_k: np.ndarray | None,
                            mem_v: np.ndarray | None, num_heads: int, mask: np.ndarray):
    """``attention_block`` on arrays: ``(out, saved)``, with the
    intermediates the backward reads."""
    h, xhat, inv = layer_norm_forward(x, gain, bias)
    if wk.ndim == 2:
        k, v = matmul_forward(h, wk), matmul_forward(h, wv)
    else:
        k, v = wk, wv
    if mem_k is not None:
        k = concat_forward([k, _memory_rows(mem_k, num_heads)], axis=1)
        v = concat_forward([v, _memory_rows(mem_v, num_heads)], axis=1)
    q = matmul_forward(h, wq)
    att, probs = multi_head_attention_forward(q, k, v, num_heads, mask)
    y = add_forward(x, att if wo is None else matmul_forward(att, wo))
    return y, (h, xhat, inv, q, k, v, att, probs)


def attention_block(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, wk: Tensor,
                    wv: Tensor, wo: Tensor | None, mem_k: Tensor | None,
                    mem_v: Tensor | None, num_heads: int, mask: np.ndarray) -> Tensor:
    """Pre-norm residual attention sub-block x + MHA(h wq, k, v, mask) wo,
    with h = ``layer_norm(x, gain, bias)`` and MHA ``multi_head_attention``.

    The keys and values take one of two forms:

    - ``wk`` and ``wv`` 2-D: projections of the normed rows, ``k = h wk``
      and ``v = h wv`` (self-attention);
    - 3-D (blocks, n, width): the keys and values as given (cross-attention
      on keys projected outside the op, so that an input several layers
      read gathers its gradient in the tape's order).

    Memory slots ``mem_k`` and ``mem_v`` (slots, head_dim), unless None,
    extend the keys and values of one block, every head reading each slot.
    ``wo`` None means no output projection.

    One tape node: its backward runs the VJPs of the op chain it stands for
    in one closure and sums their gradients in the chain's order (the normed
    rows' as q + k + v, each slot's over heads 0 to heads - 1), so its
    output and gradients are bitwise the chain's.
    """
    inputs = (x, gain, bias, wq, wk, wv, wo, mem_k, mem_v)
    y, (h, xhat, inv, q, k, v, att, probs) = attention_block_forward(
        *(None if t is None else t.data for t in inputs), num_heads, mask)
    out = Tensor(y)
    project = wk.data.ndim == 2
    n = k.shape[1] - (0 if mem_k is None else mem_k.data.shape[0])  # keys before slots

    def vjp(g):
        ga, gwo = (g, None) if wo is None else _matmul_vjp(att, wo.data, g)
        gq, gk, gv = _attention_vjp(q, k, v, probs, num_heads, ga)
        gmk = gmv = None
        if mem_k is not None:
            gmk, gmv = _head_sum(gk[:, n:], num_heads), _head_sum(gv[:, n:], num_heads)
            gk, gv = gk[:, :n], gv[:, :n]
        gh, gwq = _matmul_vjp(h, wq.data, gq)
        if project:
            ghk, gk = _matmul_vjp(h, wk.data, gk)
            ghv, gv = _matmul_vjp(h, wv.data, gv)
            gh += ghk
            gh += ghv
        gx, ggain, gbias = _layer_norm_vjp(gh, gain.data, xhat, inv)
        gx += g  # the residual's share
        grads = (gx, ggain, gbias, gwq, gk, gv, gwo, gmk, gmv)
        return tuple(gr for gr, t in zip(grads, inputs) if t is not None)

    return _record(out, tuple(t for t in inputs if t is not None), vjp)


# The ops of every gradient-free pass on plain arrays, by their taped names and
# signatures: each is the taped op's own forward, so a body run on this set
# rounds exactly as on the tape.
ARRAY_OPS = SimpleNamespace(
    add=add_forward, mul=mul_forward, neg=np.negative, matmul=matmul_forward,
    linear=linear_forward, transpose=transpose_forward, reshape=np.reshape,
    gather_rows=gather_rows_forward, take=take_forward, sigmoid=sigmoid_forward,
    log_softmax=log_softmax_forward, tsum=lambda a: np.asarray(a.sum()),
    layer_norm=lambda x, gain, bias: layer_norm_forward(x, gain, bias)[0],
    ffn_block=lambda x, gain, bias, w1, b1, w2, b2:
        ffn_block_forward(x, gain, bias, w1, b1, w2, b2)[0],
    attention_block=lambda x, gain, bias, wq, wk, wv, wo, mem_k, mem_v, num_heads, mask:
        attention_block_forward(x, gain, bias, wq, wk, wv, wo, mem_k, mem_v, num_heads,
                                mask)[0],
)


def op_set(params: dict):
    """The op set of a pass over ``params``: this module, whose taped ops
    record a backward, for tensors; ``ARRAY_OPS`` for plain arrays. A dict
    holds tensors only or arrays only, so its first entry decides."""
    return (sys.modules[__name__] if isinstance(next(iter(params.values()), None),
                                                Tensor) else ARRAY_OPS)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def _released(g):
    raise NumericsError("backward through a graph that an earlier backward released")


def backward(loss: Tensor) -> None:
    """Accumulate grad on every leaf (a requires_grad tensor with no VJP)
    reachable from loss, then release the graph.

    loss must be a recorded scalar. Leaf grad buffers are accumulated, so
    backwards of two graphs over the same leaves add up. Intermediate
    tensors keep ``grad`` None, and each one drops its VJP and parents once
    processed, so its saved arrays are freed during the walk; a second
    backward through a released node raises ``NumericsError``.
    """
    if loss.data.size != 1:
        raise NumericsError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise NumericsError("loss is not connected to any requires_grad tensor")

    # iterative topological order (graphs can be deep)
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if node._vjp is None:  # leaf; every array in grads is this walk's own
            if node.grad is None:
                node.grad = g
            elif g is not None:
                node.grad += g
            continue
        if g is not None:
            for p, pg in zip(node._parents, node._vjp(g)):
                if not p.requires_grad or pg is None:
                    continue
                acc = grads.get(id(p))
                if acc is None:
                    grads[id(p)] = np.array(pg, dtype=np.float64, copy=True)
                else:
                    acc += pg
        node._vjp, node._parents = _released, ()


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the shared step count."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update with bias correction; missing grads count as zero.

    Moments and parameters are updated in place, each operation in the order
    of m = b1 m + (1-b1) g, v = b2 v + (1-b2) g², p -= lr m̂ / (√v̂ + eps),
    so the results round exactly as that out-of-place recurrence does.
    """
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        tmp = g * (1 - b1)
        m *= b1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1 - b2
        v *= b2
        v += tmp
        denom = v / (1 - b2 ** t)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1 - b1 ** t, out=tmp)
        tmp *= lr
        tmp /= denom
        p.data -= tmp


def noam_lr(step: int, model_dim: int, warmup: int) -> float:
    """Warmup-then-decay learning rate tied to the model width."""
    if step < 1:
        raise NumericsError("noam_lr is defined for step >= 1")
    return model_dim ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "gridcap-checkpoint-v1"
_CKPT_HEAD = b'{"format":%s,"params":{' % json.dumps(_CKPT_FORMAT).encode("ascii")
# one parameter of the canonical layout: a comma before each but the first,
# its name as a JSON string, its base64 payload and its shape
_CKPT_ENTRY = re.compile(rb'(,?)("(?:[^"\\]|\\.)*"):\{"data":"([A-Za-z0-9+/]*=*)",'
                         rb'"shape":\[((?:[0-9]+(?:,[0-9]+)*)?)\]\}')


def _checkpoint_chunks(params: dict[str, Tensor]):
    """The canonical checkpoint bytes in chunks, one parameter at a time.

    Joined, the chunks are ``json.dumps`` of ``{"format": ..., "params":
    {name: {"data": base64 of little-endian float64, "shape": [...]}}}``
    with sorted keys and compact separators, so only one parameter's
    encoding is held at a time.
    """
    yield _CKPT_HEAD
    for i, name in enumerate(sorted(params)):
        data = params[name].data
        yield b'%s%s:{"data":"' % (b"," if i else b"", json.dumps(name).encode("ascii"))
        yield base64.b64encode(np.ascontiguousarray(data, dtype="<f8"))
        yield b'","shape":%s}' % json.dumps(list(data.shape),
                                            separators=(",", ":")).encode("ascii")
    yield b"}}"


def save_checkpoint(path, params: dict[str, Tensor]) -> str:
    """Write name -> (shape, little-endian float64 payload); returns content hash.

    The canonical bytes are produced one parameter at a time, and each chunk
    is written and hashed in the same pass, so the file and the hash read
    the same bytes as ``checkpoint_hash`` and no whole-file copy is held.
    They go to a temporary file in the same directory that then replaces
    ``path``, so an interrupted write leaves any earlier checkpoint whole and
    readers never see a partial one.
    """
    digest = hashlib.sha256()
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in _checkpoint_chunks(params):
                fh.write(chunk)
                digest.update(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return digest.hexdigest()


def load_checkpoint(path) -> dict[str, Tensor]:
    """Parameters written by ``save_checkpoint``; NumericsError on an unknown
    or malformed format or a non-finite value.

    The file is read through a read-only memory map in the canonical layout
    that ``save_checkpoint`` writes, one parameter at a time: each payload is
    decoded, checked and converted before the next is read, so no copy of
    the whole file is held. A document in any other JSON layout (other
    whitespace, key order or string escapes in the keys) is rejected.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            raise NumericsError(f"unrecognized checkpoint format in {path}")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as buf:
            return _checkpoint_params(buf, path)


def _checkpoint_params(buf, path) -> dict[str, Tensor]:
    """The parameters of the canonical checkpoint bytes ``buf``, read from
    ``path``."""
    if buf[:len(_CKPT_HEAD)] != _CKPT_HEAD:
        raise NumericsError(f"unrecognized checkpoint format in {path}")
    params, pos = {}, len(_CKPT_HEAD)
    while (m := _CKPT_ENTRY.match(buf, pos)) and bool(m[1]) == bool(params):
        try:
            name = json.loads(m[2])
            raw = base64.b64decode(m[3], validate=True)
            shape = [int(s) for s in m[4].split(b",")] if m[4] else []
            arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        except ValueError as exc:  # a bad escape, padding or payload size
            raise NumericsError(f"malformed parameter in {path}: {exc}") from None
        if name in params:
            raise NumericsError(f"parameter {name} in {path} is listed twice")
        if not np.isfinite(arr).all():
            raise NumericsError(f"parameter {name} in {path} is not finite")
        params[name] = Tensor(arr, requires_grad=True)
        pos = m.end()
    if len(buf) - pos != 2 or buf[pos:] != b"}}":
        raise NumericsError(f"unrecognized checkpoint format in {path}")
    return params


def checkpoint_hash(params: dict[str, Tensor]) -> str:
    """Content hash over names, shapes, and exact parameter bytes: the sha256
    of the canonical checkpoint bytes, fed one parameter's chunk at a time,
    so it equals ``save_checkpoint``'s digest of the same parameters."""
    digest = hashlib.sha256()
    for chunk in _checkpoint_chunks(params):
        digest.update(chunk)
    return digest.hexdigest()
