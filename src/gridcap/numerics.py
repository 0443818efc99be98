"""Minimal dense-tensor math with reverse-mode differentiation.

Everything is 64-bit: the test suite leans on tight finite-difference
tolerances. Speed does matter, and at desk-scale widths the Python work of
an op (building its output tensor and recording it) mostly outweighs its
arithmetic, so the number of op calls largely sets run time. Each op
records its inputs and a vector-Jacobian closure on the output tensor;
``backward`` walks that explicit per-graph tape. There is no global
graph, so callers can build and drop graphs freely.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field

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


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """Dense float64 array plus optional gradient buffer.

    Immutable after creation except for ``grad``. Ops attach ``_parents``
    and ``_vjp`` (grad_out -> per-parent gradient arrays) when any input
    requires a gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
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


def add(a, b) -> Tensor:
    """a + b; b may share a's shape, be a scalar, or be a last-axis vector."""
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape and b.data.ndim not in (0, 1):
        raise NumericsError(f"add shapes {a.shape} vs {b.shape}")
    if b.data.ndim == 1 and a.shape and a.shape[-1] != b.shape[0]:
        raise NumericsError(f"add broadcast {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def vjp(g):
        gb = g
        if b.data.shape != g.shape:
            # collapse broadcast axes back onto b
            gb = g.sum(axis=tuple(range(g.ndim - b.data.ndim)))
            gb = gb.reshape(b.data.shape)
        return g, gb

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape and b.data.ndim != 0:
        raise NumericsError(f"sub shapes {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data)

    def vjp(g):
        gb = -g if b.data.shape == g.shape else np.sum(-g).reshape(b.data.shape)
        return g, gb

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    """Elementwise product; either side may be a python scalar."""
    if isinstance(a, (int, float)):
        a = Tensor(float(a))
    if isinstance(b, (int, float)):
        b = Tensor(float(b))
    if a.shape != b.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise NumericsError(f"mul shapes {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D product; gradients flow to both operands."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise NumericsError("matmul expects 2-D tensors")
    if a.shape[1] != b.shape[0]:
        raise NumericsError(f"matmul inner dims {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _record(out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise NumericsError("transpose expects a 2-D tensor")
    out = Tensor(a.data.T)
    return _record(out, (a,), lambda g: (g.T,))


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise NumericsError("concat of zero tensors")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(parts), vjp)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows a[idx]; backward scatter-adds into the source rows."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx])

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


def take(a: Tensor, rows, cols) -> Tensor:
    """a[rows, cols] as a 1-D tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = Tensor(a.data[rows, cols])

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, cols), g)
        return (ga,)

    return _record(out, (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g: (g * (a.data > 0),))


def sigmoid(a: Tensor) -> Tensor:
    # stable in both tails
    s = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                 np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (a,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    ls = shifted - lse
    out = Tensor(ls)

    def vjp(g):
        return (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x.data - mu) * inv
    out = Tensor(gain.data * xhat + bias.data)

    def vjp(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=axes).reshape(gain.data.shape)
        gbias = g.sum(axis=axes).reshape(bias.data.shape)
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b)."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


def tsum(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    return _record(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean())
    return _record(out, (a,), lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask: np.ndarray | None = None) -> Tensor:
    """softmax(q kᵀ / sqrt(d) + mask) v.

    q (m, d), k (n, d), v (n, dv). mask, when given, is boolean (m, n) with
    True marking BLOCKED positions; blocked weights underflow to exactly 0.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise NumericsError("attention expects 2-D q, k, v")
    if q.shape[1] != k.shape[1]:
        raise NumericsError(f"q/k key dims {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise NumericsError(f"k/v sequence dims {k.shape} vs {v.shape}")
    scores = mul(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (q.shape[0], k.shape[0]):
            raise NumericsError(f"mask shape {mask.shape} vs {(q.shape[0], k.shape[0])}")
        if mask.all(axis=1).any():
            raise DegenerateMaskError("attention row with all keys masked")
        scores = add(scores, Tensor(np.where(mask, MASK_FILL, 0.0)))
    return matmul(softmax(scores, axis=-1), v)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
                         mask: np.ndarray | None = None,
                         mem_k: Tensor | None = None,
                         mem_v: Tensor | None = None) -> Tensor:
    """Per-head scaled dot attention over column blocks, heads concatenated.

    No output projection. ``mem_k``/``mem_v`` (m, head_dim) are extra key
    and value rows shared by every head; ``mask`` covers the input keys only,
    so it cannot be combined with memory rows.
    """
    hd = q.shape[1] // num_heads
    heads = []
    for h in range(num_heads):
        lo, hi = h * hd, (h + 1) * hd
        kh = col_slice(k, lo, hi)
        vh = col_slice(v, lo, hi)
        if mem_k is not None:
            kh = concat([kh, mem_k], axis=0)
            vh = concat([vh, mem_v], axis=0)
        heads.append(scaled_dot_attention(col_slice(q, lo, hi), kh, vh, mask))
    return heads[0] if num_heads == 1 else concat(heads, axis=1)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate grad on every requires_grad tensor reachable from loss.

    loss must be a recorded scalar. Grad buffers are accumulated, so two
    calls without zeroing yield exactly twice the gradient.
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
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            parent_grads = node._vjp(g)
            for p, pg in zip(node._parents, parent_grads):
                if not p.requires_grad or pg is None:
                    continue
                acc = grads.get(id(p))
                if acc is None:
                    grads[id(p)] = np.array(pg, dtype=np.float64, copy=True)
                else:
                    acc += pg
        if node.grad is None:
            node.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            node.grad += g


def zero_grads(params) -> None:
    for p in (params.values() if isinstance(params, dict) else params):
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
    """One Adam update with bias correction; missing grads count as zero."""
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
        m[:] = b1 * m + (1 - b1) * g
        v[:] = b2 * v + (1 - b2) * (g * g)
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p.data[...] = p.data - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def noam_lr(step: int, model_dim: int, warmup: int) -> float:
    """Warmup-then-decay learning rate tied to the model width."""
    if step < 1:
        raise NumericsError("noam_lr is defined for step >= 1")
    return model_dim ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "gridcap-checkpoint-v1"


def _canonical_checkpoint_bytes(params: dict[str, Tensor]) -> bytes:
    payload = {
        "format": _CKPT_FORMAT,
        "params": {
            name: {
                "shape": list(p.data.shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(p.data, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for name, p in params.items()
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params: dict[str, Tensor]) -> str:
    """Write name -> (shape, little-endian float64 payload); returns content hash.

    The bytes go to a temporary file in the same directory that then
    replaces ``path``, so an interrupted write leaves any earlier checkpoint
    whole and readers never see a partial one.
    """
    blob = _canonical_checkpoint_bytes(params)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return hashlib.sha256(blob).hexdigest()


def load_checkpoint(path) -> dict[str, Tensor]:
    with open(path, "rb") as fh:
        payload = json.loads(fh.read().decode("utf-8"))
    if payload.get("format") != _CKPT_FORMAT:
        raise NumericsError(f"unrecognized checkpoint format in {path}")
    params = {}
    for name, entry in payload["params"].items():
        raw = base64.b64decode(entry["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(entry["shape"])
        params[name] = Tensor(arr.copy(), requires_grad=True)
    return params


def checkpoint_hash(params: dict[str, Tensor]) -> str:
    """Content hash over names, shapes, and exact parameter bytes."""
    return hashlib.sha256(_canonical_checkpoint_bytes(params)).hexdigest()
