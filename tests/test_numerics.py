import base64
import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gridcap import numerics as nm
from gridcap.captioner import CaptionerConfig, init_captioner_params
from gridcap.data import DatasetConfig, build_vocabulary
from gridcap.numerics import (AdamState, DegenerateMaskError, NumericsError,
                              Tensor, adam_step, noam_lr)


def finite_difference(f, tensors, h=1e-5):
    """Central-difference gradient of the scalar f() w.r.t. each tensor's data."""
    grads = []
    for p in tensors:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    scale = max(np.abs(numeric).max(), 1e-8)
    return np.abs(analytic - numeric).max() / scale


def check_grads(build_loss, tensors, tol):
    """build_loss() -> scalar Tensor from the tensors' current data."""
    for p in tensors:
        p.zero_grad()
    loss = build_loss()
    nm.backward(loss)
    numeric = finite_difference(lambda: build_loss().item(), tensors)
    for p, num in zip(tensors, numeric):
        assert p.grad is not None
        assert max_rel_err(p.grad, num) < tol


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.arange(9.0).reshape(3, 3))
        out = nm.matmul(Tensor(np.eye(3)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_arithmetic(self):
        out = nm.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(NumericsError):
            nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = rng.normal(size=(5, 3))  # fixed weights make the loss non-trivial

        def loss():
            return nm.tsum(nm.mul(nm.matmul(a, b), Tensor(w)))

        check_grads(loss, [a, b], 1e-6)

    def test_leading_axes_gradcheck(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = rng.normal(size=(2, 3, 5))

        def loss():
            return nm.tsum(nm.mul(nm.matmul(a, b), Tensor(w)))

        assert nm.matmul(a, b).shape == (2, 3, 5)
        check_grads(loss, [a, b], 1e-6)

    def test_one_block_is_bitwise_the_2d_product(self):
        rng = np.random.default_rng(14)
        data, b_data = rng.normal(size=(7, 4)), rng.normal(size=(4, 3))
        w = rng.normal(size=(7, 3))
        results = []
        for shape in ((7, 4), (1, 7, 4)):
            a = Tensor(data.reshape(shape), requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            out = nm.matmul(a, b)
            nm.backward(nm.tsum(nm.mul(out, Tensor(w.reshape(out.shape)))))
            results.append([out.data.reshape(7, 3), a.grad.reshape(7, 4), b.grad])
        for flat, blocked in zip(*results):
            assert np.array_equal(flat, blocked)


class TestAttention:
    def test_single_key_returns_value_row(self):
        q = Tensor(np.array([[[0.3, -0.7]]]))
        k = Tensor(np.array([[[1.0, 2.0]]]))
        v = Tensor(np.array([[[5.0, -1.0, 2.0]]]))
        out = nm.multi_head_attention(q, k, v, 1)
        np.testing.assert_array_equal(out.data, v.data)

    def test_uniform_scores_average_values(self):
        rng = np.random.default_rng(1)
        q = Tensor(np.zeros((1, 2, 3)))
        v = Tensor(rng.normal(size=(1, 4, 5)))
        out = nm.multi_head_attention(q, Tensor(np.zeros((1, 4, 3))), v, 1)
        np.testing.assert_allclose(out.data[0], np.tile(v.data[0].mean(axis=0), (2, 1)),
                                   atol=1e-12)

    def test_masked_keys_get_zero_weight(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.normal(size=(1, 2, 3)))
        k = Tensor(rng.normal(size=(1, 4, 3)))
        v = Tensor(rng.normal(size=(1, 4, 5)))
        mask = np.zeros((1, 2, 4), dtype=bool)
        mask[..., 2:] = True
        out = nm.multi_head_attention(q, k, v, 1, mask)
        # equals attention computed on the unmasked submatrix alone
        sub = nm.multi_head_attention(q, Tensor(k.data[:, :2]), Tensor(v.data[:, :2]), 1)
        np.testing.assert_allclose(out.data, sub.data, atol=1e-12)

    def test_all_masked_row_is_an_error(self):
        q = Tensor(np.ones((1, 2, 2)))
        k = Tensor(np.ones((1, 3, 2)))
        v = Tensor(np.ones((1, 3, 2)))
        mask = np.zeros((1, 2, 3), dtype=bool)
        mask[0, 1, :] = True
        with pytest.raises(DegenerateMaskError):
            nm.multi_head_attention(q, k, v, 1, mask)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        k = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        v = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        w = rng.normal(size=(1, 3, 2))

        def loss():
            return nm.tsum(nm.mul(nm.multi_head_attention(q, k, v, 1), Tensor(w)))

        check_grads(loss, [q, k, v], 1e-6)


def per_head_attention(q, k, v, num_heads, mask, g):
    """Plain numpy reference for (B, m, d) blocks, one block and head at a
    time on column slices: the output and the q, k and v gradients of
    sum(output * g)."""
    w, wv = q.shape[-1] // num_heads, v.shape[-1] // num_heads
    fill = np.zeros(q.shape[:2] + k.shape[1:2]) if mask is None else np.where(
        mask, nm.MASK_FILL, 0.0)
    out, gq, gk, gv = (np.zeros(a.shape) for a in (g, q, k, v))
    for b in range(q.shape[0]):
        for h in range(num_heads):
            c, cv = slice(h * w, (h + 1) * w), slice(h * wv, (h + 1) * wv)
            s = q[b, :, c] @ k[b, :, c].T / np.sqrt(w) + fill[b]
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            out[b, :, cv] = p @ v[b, :, cv]
            gp = g[b, :, cv] @ v[b, :, cv].T
            gs = p * (gp - (gp * p).sum(axis=1, keepdims=True)) / np.sqrt(w)
            gq[b, :, c] = gs @ k[b, :, c]
            gk[b, :, c] = gs.T @ q[b, :, c]
            gv[b, :, cv] = p.T @ g[b, :, cv]
    return out, gq, gk, gv


def attention_case(heads, masked, memory, m=3, n=5, head_dim=3, seed=11):
    """Inputs (q, k, v, memory keys, memory values) of one block, a loss
    weight, a mask and an ``attend(op)`` that appends the memory rows,
    repeated per head, to the keys and values as the encoder does."""
    rng = np.random.default_rng(seed)
    d = heads * head_dim
    tensors = [Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((1, m, d), (1, n, d), (1, n, d), (memory, head_dim),
                             (memory, head_dim))]
    mask = None
    if masked:
        mask = rng.random((1, m, n + memory)) < 0.5
        mask[0, np.arange(m), rng.integers(n + memory, size=m)] = False
    w = Tensor(rng.normal(size=(1, m, d)))

    def attend(op):
        q, k, v, mem_k, mem_v = tensors
        if memory:
            k, v = (nm.concat([t, nm.reshape(nm.concat([mem] * heads, axis=1),
                                             (1, memory, d))], axis=1)
                    for t, mem in ((k, mem_k), (v, mem_v)))
        return op(q, k, v, heads, mask)

    return tensors if memory else tensors[:3], w, mask, attend


class TestMultiHeadAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("memory", [0, 2])
    def test_gradcheck(self, heads, masked, memory):
        tensors, w, _, attend = attention_case(heads, masked, memory)

        def loss():
            return nm.tsum(nm.mul(attend(nm.multi_head_attention), w))

        check_grads(loss, tensors, 1e-6)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("memory", [0, 2])
    def test_equals_per_head_composition(self, heads, masked, memory):
        n = 4
        tensors, w, mask, attend = attention_case(heads, masked, memory, m=6, n=n)
        out = attend(nm.multi_head_attention)
        nm.backward(nm.tsum(nm.mul(out, w)))
        q, k, v = (t.data for t in tensors[:3])
        if memory:
            k, v = (np.concatenate([a, np.tile(t.data, heads)[None]], axis=1)
                    for a, t in ((k, tensors[3]), (v, tensors[4])))
        want, gq, gk, gv = per_head_attention(q, k, v, heads, mask, w.data)
        assert np.array_equal(nm.multi_head_attention_forward(q, k, v, heads, mask)[0],
                              out.data)
        want_grads = [gq, gk[:, :n], gv[:, :n]]
        for g in (gk, gv)[:len(tensors) - 3]:  # every head reads each memory row
            want_grads.append(sum(np.split(g[0, n:], heads, axis=1)))
        for got, expected in zip([out.data] + [t.grad for t in tensors],
                                 [want] + want_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_fully_blocked_row_is_an_error(self):
        q, k, v = (Tensor(np.ones(shape)) for shape in ((1, 2, 4), (1, 3, 4), (1, 3, 4)))
        mask = np.zeros((1, 2, 3), dtype=bool)
        mask[0, 0, :] = True
        with pytest.raises(DegenerateMaskError):
            nm.multi_head_attention(q, k, v, 2, mask)

    def test_heads_must_split_the_widths(self):
        q, k, v = (Tensor(np.ones(shape)) for shape in ((1, 2, 4), (1, 3, 4), (1, 3, 5)))
        with pytest.raises(NumericsError):
            nm.multi_head_attention(q, k, v, 2)

    def test_2d_input_rejected(self):
        q, k, v = (Tensor(np.ones(shape)) for shape in ((2, 4), (1, 3, 4), (1, 3, 4)))
        with pytest.raises(NumericsError):
            nm.multi_head_attention(q, k, v, 2)

    @pytest.mark.parametrize("mask_shape", [(2, 3), (1, 2, 4), (2, 2, 3)])
    def test_mask_of_the_wrong_shape_rejected(self, mask_shape):
        q, k, v = (Tensor(np.ones(shape)) for shape in ((1, 2, 4), (1, 3, 4), (1, 3, 4)))
        with pytest.raises(NumericsError):
            nm.multi_head_attention(q, k, v, 2, np.zeros(mask_shape, dtype=bool))


def block_case(heads, rows=4, n=3, head_dim=3, seed=12):
    """One-row query blocks (rows, 1, d), per-row key and value blocks
    (rows, n, d) and a loss weight (rows, 1, d)."""
    rng = np.random.default_rng(seed)
    d = heads * head_dim
    q, k, v = (Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((rows, 1, d), (rows, n, d), (rows, n, d)))
    return q, k, v, Tensor(rng.normal(size=(rows, 1, d)))


def padding_mask(lengths, n):
    """(rows, 1, n) mask blocking the keys of each row past its length."""
    return (np.arange(n) >= np.asarray(lengths)[:, None])[:, None]


class TestPerRowKeyBlocks:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradcheck(self, heads):
        q, k, v, w = block_case(heads)

        def loss():
            return nm.tsum(nm.mul(nm.multi_head_attention(q, k, v, heads), w))

        check_grads(loss, [q, k, v], 1e-6)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_padded_gradcheck(self, heads):
        q, k, v, w = block_case(heads, n=4)
        mask = padding_mask([4, 1, 3, 2], 4)

        def loss():
            return nm.tsum(nm.mul(nm.multi_head_attention(q, k, v, heads, mask), w))

        check_grads(loss, [q, k, v], 1e-6)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_equals_one_shared_key_call_per_row(self, heads):
        q, k, v, w = block_case(heads, rows=5, n=4)
        out = nm.multi_head_attention(q, k, v, heads)
        nm.backward(nm.tsum(nm.mul(out, w)))
        blocked = [out.data, q.grad, k.grad, v.grad]
        rows = []
        for r in range(q.shape[0]):
            qr, kr, vr = (Tensor(t.data[r:r + 1], requires_grad=True) for t in (q, k, v))
            row = nm.multi_head_attention(qr, kr, vr, heads)
            nm.backward(nm.tsum(nm.mul(row, Tensor(w.data[r:r + 1]))))
            rows.append([row.data[0], qr.grad[0], kr.grad[0], vr.grad[0]])
        for got, want in zip(blocked, map(np.stack, zip(*rows))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_padded_blocks_equal_ragged_blocks(self, heads):
        lengths = [5, 1, 3, 2]
        q, k, v, w = block_case(heads, n=5)
        out = nm.multi_head_attention(q, k, v, heads, padding_mask(lengths, 5))
        nm.backward(nm.tsum(nm.mul(out, w)))
        for r, n in enumerate(lengths):
            qr, kr, vr = (Tensor(t.data[r:r + 1, :n], requires_grad=True)
                          for t in (q, k, v))
            row = nm.multi_head_attention(qr, kr, vr, heads)
            nm.backward(nm.tsum(nm.mul(row, Tensor(w.data[r:r + 1]))))
            for got, want in ((out.data[r], row.data[0]), (q.grad[r], qr.grad[0]),
                              (k.grad[r, :n], kr.grad[0]), (v.grad[r, :n], vr.grad[0])):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            # padded keys take no weight, so they get no gradient
            assert not k.grad[r, n:].any() and not v.grad[r, n:].any()

    def test_fully_padded_row_is_an_error(self):
        q, k, v, _ = block_case(2)
        with pytest.raises(DegenerateMaskError):
            nm.multi_head_attention(q, k, v, 2, padding_mask([3, 1, 0, 2], 3))

    def test_one_block_per_query_row(self):
        # 4 query blocks read 4 key blocks: neither one block nor 3 will do
        q, k, v, _ = block_case(2)
        for blocks in (1, 3):
            with pytest.raises(NumericsError):
                nm.multi_head_attention(q, Tensor(k.data[:blocks]),
                                        Tensor(v.data[:blocks]), 2)

    def test_key_and_value_blocks_share_a_length(self):
        q, k, v, _ = block_case(2)
        with pytest.raises(NumericsError):
            nm.multi_head_attention(q, k, Tensor(v.data[:, :2]), 2)


class TestElementwise:
    def test_softmax_uniform(self):
        out = nm.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_softmax_normalizes(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(scale=5.0, size=(20, 7)))
        out = nm.softmax(x, axis=-1)
        assert (out.data >= 0).all()
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_sigmoid_at_zero(self):
        assert nm.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_tails_are_stable(self):
        out = nm.sigmoid(Tensor([-800.0, 800.0]))
        assert np.isfinite(out.data).all()

    def test_layer_norm_gradcheck(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        gain = Tensor(rng.normal(size=6), requires_grad=True)
        bias = Tensor(rng.normal(size=6), requires_grad=True)
        w = rng.normal(size=(4, 6))

        def loss():
            return nm.tsum(nm.mul(nm.layer_norm(x, gain, bias), Tensor(w)))

        check_grads(loss, [x, gain, bias], 1e-6)

    @pytest.mark.parametrize("shape", [(10, 64), (40, 64), (480, 64), (3, 7, 64)])
    def test_layer_norm_rounds_as_mean_and_var(self, shape):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(loc=0.3, scale=2.0, size=shape), requires_grad=True)
        gain = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        bias = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        out = nm.layer_norm(x, gain, bias)
        inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + nm.LN_EPS)
        xhat = (x.data - x.data.mean(axis=-1, keepdims=True)) * inv
        assert np.array_equal(out.data, gain.data * xhat + bias.data)
        assert np.array_equal(nm.ARRAY_OPS.layer_norm(x.data, gain.data, bias.data),
                              out.data)
        # the arrays the backward reads live only in the VJP closure
        saved = dict(zip(out._vjp.__code__.co_freevars,
                         (c.cell_contents for c in out._vjp.__closure__)))
        assert np.array_equal(saved["xhat"], xhat)
        assert np.array_equal(saved["inv"], inv)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 9))
        softmax = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(nm.log_softmax(Tensor(x)).data, np.log(softmax),
                                   atol=1e-12)

    def test_structural_ops_gradcheck(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = rng.normal(size=(12, 2))

        def loss():
            g = nm.gather_rows(x, [4, 0, 2])
            c = nm.concat([nm.reshape(g, (6, 2)), nm.reshape(nm.transpose(g), (6, 2))])
            return nm.tsum(nm.mul(nm.relu(c), Tensor(w)))

        check_grads(loss, [x], 1e-6)

    def test_scatter_rows_gradcheck(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(7, 4))

        def loss():
            return nm.tsum(nm.mul(nm.scatter_rows(x, [1, 3, 5], 7), Tensor(w)))

        check_grads(loss, [x], 1e-6)


# The array forms of the ops that only the chains below call, which no pass
# of the program runs on arrays and ``nm.ARRAY_OPS`` therefore leaves out
CHAIN_ONLY_OPS = {"concat", "relu", "multi_head_attention"}
CHAIN_ARRAY_OPS = SimpleNamespace(
    **vars(nm.ARRAY_OPS), concat=nm.concat_forward, relu=nm.relu_forward,
    multi_head_attention=lambda q, k, v, num_heads, mask=None:
        nm.multi_head_attention_forward(q, k, v, num_heads, mask)[0])


def chain_op_set(ops):
    """The op set a chain runs on for ``ops``, the taped module or
    ``nm.ARRAY_OPS``: the former, or ``CHAIN_ARRAY_OPS`` for the latter."""
    return CHAIN_ARRAY_OPS if ops is nm.ARRAY_OPS else ops


def chain_ffn(ops, x, gain, bias, w1, b1, w2, b2):
    """The op chain ``ffn_block`` replaces, on the op set ``ops``: layer
    norm, linear, relu, linear and the residual add."""
    ops = chain_op_set(ops)
    h = ops.layer_norm(x, gain, bias)
    return ops.add(x, ops.linear(ops.relu(ops.linear(h, w1, b1)), w2, b2))


def chain_attention(ops, x, gain, bias, wq, wk, wv, wo, mem_k, mem_v, num_heads, mask):
    """The op chain ``attention_block`` replaces, on the op set ``ops``:
    layer norm, the key and value products (for 2-D ``wk`` and ``wv``)
    and the memory rows every head reads, the query product, attention,
    the output product (unless ``wo`` is None) and the residual add."""
    ops = chain_op_set(ops)
    h = ops.layer_norm(x, gain, bias)
    k, v = (ops.matmul(h, wk), ops.matmul(h, wv)) if len(wk.shape) == 2 else (wk, wv)
    if mem_k is not None:
        k, v = (ops.concat([t, ops.reshape(ops.concat([mem] * num_heads, axis=1),
                                           (1, mem.shape[0], num_heads * mem.shape[1]))],
                           axis=1)
                for t, mem in ((k, mem_k), (v, mem_v)))
    att = ops.multi_head_attention(ops.matmul(h, wq), k, v, num_heads, mask)
    return ops.add(x, att if wo is None else ops.matmul(att, wo))


def ffn_case(rows=5, blocks=1, d=8, hidden=12, seed=31):
    """Inputs of ``ffn_block``: rows (blocks, rows, d), then the layer norm,
    w1, b1, w2 and b2."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for shape in ((blocks, rows, d), (d,), (d,),
                                                 (d, hidden), (hidden,), (hidden, d), (d,))]


def attention_block_case(form, heads=2, slots=0, rows=5, n=4, head_dim=3, seed=32):
    """Inputs of ``attention_block`` in one of its forms, as (arrays, mask):
    "self" and "no-wo" project keys and values from the normed rows (the
    latter with no output projection), "cross" takes (1, n, d) keys and
    values, and "memory" adds ``slots`` memory slots to "self". A random
    mask blocks some (row, key) pairs, never a whole row."""
    rng = np.random.default_rng(seed)
    d = heads * head_dim
    x, gain, bias = rng.normal(size=(1, rows, d)), rng.normal(size=d), rng.normal(size=d)
    wq, wk, wv, wo = (rng.normal(size=(d, d)) for _ in range(4))
    mem_k = mem_v = None
    keys = rows
    if form == "cross":
        wk, wv = rng.normal(size=(1, n, d)), rng.normal(size=(1, n, d))
        keys = n
    if form == "no-wo":
        wo = None
    if form == "memory":
        mem_k, mem_v = rng.normal(size=(slots, head_dim)), rng.normal(size=(slots, head_dim))
        keys = rows + slots
    mask = rng.random((1, rows, keys)) < 0.5
    mask[0, np.arange(rows), rng.integers(keys, size=rows)] = False
    return [x, gain, bias, wq, wk, wv, wo, mem_k, mem_v], (heads, mask)


def taped_inputs(arrays):
    """Fresh leaf tensors of the arrays; None stays None."""
    return [None if a is None else Tensor(a.copy(), requires_grad=True) for a in arrays]


def fused_and_chain(fused, chain, arrays, args):
    """Output and input gradients of a weighted sum of ``fused`` and of
    ``chain`` (on the taped ops) over fresh tensors of the same arrays."""
    w = Tensor(np.random.default_rng(33).normal(size=arrays[0].shape))
    results = []
    for op in (fused, lambda *a: chain(nm, *a)):
        inputs = taped_inputs(arrays)
        out = op(*inputs, *args)
        nm.backward(nm.tsum(nm.mul(out, w)))
        results.append([out.data] + [t.grad for t in inputs if t is not None])
    return results


class TestFusedBlocks:
    """``ffn_block`` and ``attention_block``: one tape node each, with the
    output and every gradient bitwise those of the op chain they replace."""

    @pytest.mark.parametrize("blocks,rows", [(1, 5), (3, 2)])
    def test_ffn_block_is_bitwise_the_chain(self, blocks, rows):
        fused, chain = fused_and_chain(nm.ffn_block, chain_ffn,
                                       ffn_case(rows, blocks), ())
        assert len(fused) == 8
        for got, want in zip(fused, chain):
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("form,heads,slots", [
        ("self", 2, 0), ("cross", 2, 0), ("no-wo", 2, 0), ("memory", 1, 0),
        ("memory", 1, 4), ("memory", 2, 0), ("memory", 2, 4)])
    def test_attention_block_is_bitwise_the_chain(self, form, heads, slots):
        arrays, args = attention_block_case(form, heads, slots)
        fused, chain = fused_and_chain(nm.attention_block, chain_attention, arrays, args)
        assert len(fused) == 1 + sum(a is not None for a in arrays)
        for got, want in zip(fused, chain):
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_cross_blocks_sharing_an_encoder_output_are_bitwise_the_chain(self):
        # a (1, n, d) encoder output feeds the key and value products of 3
        # stacked layers, outside the op, so its gradient sums as the chain's
        rng = np.random.default_rng(34)
        d, heads = 6, 2
        x0, enc0 = rng.normal(size=(1, 5, d)), rng.normal(size=(1, 4, d))
        mask = rng.random((1, 5, 4)) < 0.5
        mask[0, np.arange(5), rng.integers(4, size=5)] = False
        layers = [[rng.normal(size=shape) for shape in ((d,), (d,)) + ((d, d),) * 4]
                  for _ in range(3)]  # gain, bias, wq, wk, wv, wo
        results = []
        for block in (nm.attention_block, lambda *a: chain_attention(nm, *a)):
            x, enc = leaves = taped_inputs([x0, enc0])
            for layer in layers:
                gain, bias, wq, wk, wv, wo = params = taped_inputs(layer)
                leaves += params
                x = block(x, gain, bias, wq, nm.matmul(enc, wk), nm.matmul(enc, wv), wo,
                          None, None, heads, mask)
            nm.backward(nm.tsum(nm.mul(x, Tensor(x0))))
            results.append([x.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_ffn_block_gradcheck(self):
        inputs = taped_inputs(ffn_case(rows=3, d=4, hidden=6))
        w = Tensor(np.random.default_rng(35).normal(size=(1, 3, 4)))
        check_grads(lambda: nm.tsum(nm.mul(nm.ffn_block(*inputs), w)), inputs, 1e-6)

    @pytest.mark.parametrize("form,slots", [("memory", 2), ("cross", 0), ("no-wo", 0)])
    def test_attention_block_gradcheck(self, form, slots):
        arrays, args = attention_block_case(form, slots=slots, rows=3, n=2, head_dim=2)
        inputs = taped_inputs(arrays)
        w = Tensor(np.random.default_rng(36).normal(size=arrays[0].shape))

        def loss():
            return nm.tsum(nm.mul(nm.attention_block(*inputs, *args), w))

        check_grads(loss, [t for t in inputs if t is not None], 1e-6)

    def test_one_tape_node_each(self):
        ffn_in = taped_inputs(ffn_case())
        arrays, args = attention_block_case("memory", slots=4)
        attention_in = taped_inputs(arrays)
        for out, inputs in ((nm.ffn_block(*ffn_in), ffn_in),
                            (nm.attention_block(*attention_in, *args), attention_in)):
            assert out._parents == tuple(t for t in inputs if t is not None)


def array_op_cases():
    """(op name, array inputs, further arguments) of the array op set:
    one-row query blocks (rows, 1, d) with per-row key blocks (rows, n, d),
    a boolean mask, and broadcast and scalar adds; and the encoder's,
    selector's and scorer's shapes. A list input is one list of arrays."""
    rng = np.random.default_rng(21)

    def r(*shape):
        return rng.normal(size=shape)

    mask = rng.random((3, 5, 5)) < 0.5
    mask[:, np.arange(5), rng.integers(5, size=5)] = False  # no row fully blocked
    return {
        "matmul": ("matmul", [r(5, 4), r(4, 3)], ()),
        "matmul-blocks": ("matmul", [r(6, 1, 8), r(8, 8)], ()),
        "matmul-transposed": ("matmul", [r(6, 1, 4), r(7, 4).T], ()),
        "add": ("add", [r(6, 1, 8), r(6, 1, 8)], ()),
        "add-bias": ("add", [r(6, 1, 8), r(8)], ()),
        "add-scalar": ("add", [r(3, 4), np.float64(0.7)], ()),
        "linear": ("linear", [r(6, 1, 8), r(8, 5), r(5)], ()),
        "layer_norm": ("layer_norm", [r(6, 1, 8), r(8), r(8)], ()),
        "relu": ("relu", [r(6, 1, 12)], ()),
        "gather_rows": ("gather_rows", [r(7, 4)], ([[3], [0], [3]],)),
        "transpose": ("transpose", [r(7, 4)], ()),
        "log_softmax": ("log_softmax", [r(6, 1, 9)], ()),
        "log_softmax-axis": ("log_softmax", [r(6, 9)], (0,)),
        "attention-row-blocks": ("multi_head_attention",
                                 [r(6, 1, 8), r(6, 4, 8), r(6, 4, 8)], (2,)),
        "attention-masked": ("multi_head_attention",
                             [r(3, 5, 8), r(3, 5, 8), r(3, 5, 4)], (4, mask)),
        "mul": ("mul", [r(7), r(7)], ()),
        "mul-scalar": ("mul", [r(3, 4), np.float64(-1.5)], ()),
        "neg": ("neg", [r(3, 4)], ()),
        "concat": ("concat", [[r(1, 3, 4), r(1, 2, 4)]], (1,)),
        "reshape": ("reshape", [r(1, 5, 6)], ((5, 6),)),
        "take": ("take", [r(5, 9)], ([4, 0, 4], [8, 2, 1])),
        "sigmoid": ("sigmoid", [np.array([-800.0, -3.0, 0.0, 2.5, 800.0])], ()),
        "tsum": ("tsum", [r(4, 3)], ()),
        "ffn_block": ("ffn_block", ffn_case(), ()),
        "ffn_block-blocks": ("ffn_block", ffn_case(rows=1, blocks=6), ()),
        **{f"attention_block-{form}": ("attention_block", *attention_block_case(form))
           for form in ("self", "cross", "no-wo")},
        "attention_block-memory": ("attention_block",
                                   *attention_block_case("memory", slots=4)),
    }


def taped(a):
    """The taped form of an ``array_op_cases`` input; None stays None."""
    if a is None:
        return None
    return [Tensor(x, requires_grad=True) for x in a] if isinstance(a, list) else \
        Tensor(a, requires_grad=True)


def bad_array_op_cases():
    """Inputs every op form must reject, as in ``array_op_cases``."""
    ones = np.ones
    blocked = np.zeros((1, 2, 3), dtype=bool)
    blocked[0, 1] = True
    return {
        "matmul-inner": ("matmul", [ones((2, 3)), ones((2, 3))], ()),
        "matmul-vector": ("matmul", [ones(3), ones((3, 2))], ()),
        "add-shapes": ("add", [ones((2, 3)), ones((3, 2))], ()),
        "add-broadcast": ("add", [ones((2, 3)), ones(4)], ()),
        "linear-bias": ("linear", [ones((2, 3)), ones((3, 4)), ones(3)], ()),
        "transpose-3d": ("transpose", [ones((2, 3, 4))], ()),
        "attention-2d": ("multi_head_attention",
                         [ones((2, 4)), ones((1, 3, 4)), ones((1, 3, 4))], (2,)),
        "attention-blocks": ("multi_head_attention",
                             [ones((4, 1, 4)), ones((3, 3, 4)), ones((3, 3, 4))], (2,)),
        "attention-one-kv-block": ("multi_head_attention",
                                   [ones((4, 1, 4)), ones((1, 3, 4)), ones((1, 3, 4))],
                                   (2,)),
        "attention-lengths": ("multi_head_attention",
                              [ones((4, 1, 4)), ones((4, 3, 4)), ones((4, 2, 4))], (2,)),
        "attention-heads": ("multi_head_attention",
                            [ones((1, 2, 4)), ones((1, 3, 4)), ones((1, 3, 5))], (2,)),
        "attention-mask-shape": ("multi_head_attention",
                                 [ones((1, 2, 4)), ones((1, 3, 4)), ones((1, 3, 4))],
                                 (2, np.zeros((1, 2, 4), dtype=bool))),
        "attention-blocked-row": ("multi_head_attention",
                                  [ones((1, 2, 4)), ones((1, 3, 4)), ones((1, 3, 4))],
                                  (2, blocked)),
        "mul-shapes": ("mul", [ones((2, 3)), ones(3)], ()),
        "concat-empty": ("concat", [[]], ()),
        "ffn_block-width": ("ffn_block", [ones((1, 2, 3)), ones(3), ones(3), ones((4, 5)),
                                          ones(5), ones((5, 3)), ones(3)], ()),
        "attention_block-width": ("attention_block",
                                  [ones((1, 3, 4)), ones(4), ones(4), ones((4, 4)),
                                   ones((3, 4)), ones((4, 4)), ones((4, 4)), None, None],
                                  (2, np.zeros((1, 3, 3), dtype=bool))),
        "attention_block-blocked-row": ("attention_block",
                                        [ones((1, 2, 4)), ones(4), ones(4), ones((4, 4)),
                                         ones((1, 3, 4)), ones((1, 3, 4)), ones((4, 4)),
                                         None, None], (2, blocked)),
    }


class TestArrayOps:
    """``nm.ARRAY_OPS``: the decoder's ops on plain arrays, and the chains'
    further ones (``CHAIN_ARRAY_OPS``), bitwise the taped ops' outputs, with
    the taped ops' errors."""

    def test_the_decoder_ops_and_only_they(self):
        # the cases cover the chains' array ops too, which ARRAY_OPS lacks
        names = {name for name, _, _ in array_op_cases().values()}
        assert set(vars(nm.ARRAY_OPS)) == names - CHAIN_ONLY_OPS
        assert set(vars(CHAIN_ARRAY_OPS)) == names

    @pytest.mark.parametrize("case", list(array_op_cases()))
    def test_equals_taped_op(self, case):
        name, arrays, args = array_op_cases()[case]
        out = getattr(nm, name)(*map(taped, arrays), *args)
        got = getattr(CHAIN_ARRAY_OPS, name)(*arrays, *args)
        assert type(got) is np.ndarray and got.shape == out.shape
        assert np.array_equal(got, out.data)

    @pytest.mark.parametrize("case", list(bad_array_op_cases()))
    def test_raises_as_taped_op(self, case):
        name, arrays, args = bad_array_op_cases()[case]
        with pytest.raises(NumericsError) as on_tape:
            getattr(nm, name)(*map(taped, arrays), *args)
        with pytest.raises(NumericsError) as plain:
            getattr(CHAIN_ARRAY_OPS, name)(*arrays, *args)
        assert type(plain.value) is type(on_tape.value)
        assert str(plain.value) == str(on_tape.value)
        assert (type(on_tape.value) is DegenerateMaskError) == case.endswith(
            "blocked-row")


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        nm.backward(nm.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gives_two_x(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        nm.backward(nm.tsum(nm.mul(x, x)))
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_accumulation_is_additive(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        loss = nm.tsum(nm.mul(x, x))
        nm.backward(loss)
        once = x.grad.copy()
        x.zero_grad()
        loss1 = nm.tsum(nm.mul(x, x))
        loss2 = nm.tsum(nm.mul(x, x))
        nm.backward(loss1)
        nm.backward(loss2)
        np.testing.assert_array_equal(x.grad, 2 * once)

    def test_intermediate_tensors_keep_no_grad(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = nm.mul(x, x)
        loss = nm.tsum(y)
        nm.backward(loss)
        assert y.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_second_backward_on_one_loss_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = nm.tsum(nm.mul(x, x))
        nm.backward(loss)
        with pytest.raises(NumericsError):
            nm.backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_new_graph_over_a_released_node_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = nm.mul(x, x)
        nm.backward(nm.tsum(y))
        with pytest.raises(NumericsError):
            nm.backward(nm.tsum(nm.mul(y, 2.0)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(NumericsError):
            nm.backward(nm.mul(x, x))

    def test_diamond_graph_fan_in(self):
        # y used twice: gradient contributions must add
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = nm.mul(x, 3.0)
        loss = nm.tsum(nm.add(y, y))
        nm.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_ops_are_deterministic(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(1, 6, 6))
        b = rng.normal(size=(1, 6, 6))
        r1 = nm.multi_head_attention(Tensor(a), Tensor(b), Tensor(b), 1).data
        r2 = nm.multi_head_attention(Tensor(a), Tensor(b), Tensor(b), 1).data
        assert (r1 == r2).all()


def moments(state: AdamState, p: Tensor):
    """Adam's first and second moments of parameter ``p``, read from the
    blocks of ``state`` at the place of ``p``'s values."""
    block, = (b for b in state.blocks if any(q is p for q in b.params))
    start = (p.data.ctypes.data - block.data.ctypes.data) // block.data.itemsize
    place = slice(start, start + p.data.size)
    return block.m[place].reshape(p.shape), block.v[place].reshape(p.shape)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        before = p.data.copy()
        adam_step({"p": p}, AdamState({"p": p}), lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_matches_hand_recurrence(self):
        # m=(1-b1)g=0.1, v=(1-b2)g^2=0.001, bias-corrected both become 1,
        # so the update is -lr/(1+eps)
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([1.0])
        adam_step({"p": p}, AdamState({"p": p}), lr=0.1)
        assert abs(p.data[0] + 0.1) < 1e-8

    def test_in_place_update_equals_out_of_place_recurrence(self):
        rng = np.random.default_rng(7)
        params = {"a": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                  "b": Tensor(rng.normal(size=5), requires_grad=True)}
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        state = AdamState(params)
        b1, b2, eps = nm.ADAM_BETA1, nm.ADAM_BETA2, nm.ADAM_EPS
        for t in (1, 2, 3):
            params["a"].grad = rng.normal(size=(4, 3))
            params["b"].grad = None if t == 2 else rng.normal(size=5)
            adam_step(params, state, lr=0.01 * t)
            for k, p in params.items():
                g = p.grad if p.grad is not None else np.zeros_like(ref[k])
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * (g * g)
                mhat = m[k] / (1 - b1 ** t)
                vhat = v[k] / (1 - b2 ** t)
                ref[k] = ref[k] - 0.01 * t * mhat / (np.sqrt(vhat) + eps)
                np.testing.assert_array_equal(p.data, ref[k])
                np.testing.assert_array_equal(moments(state, p)[0], m[k])
                np.testing.assert_array_equal(moments(state, p)[1], v[k])

    @staticmethod
    def reference_step(ref, m, v, grads, t, lr):
        """The out-of-place Adam recurrence on separate arrays, in place of
        ``ref``, ``m`` and ``v``; a missing gradient counts as zero."""
        b1, b2, eps = nm.ADAM_BETA1, nm.ADAM_BETA2, nm.ADAM_EPS
        for k in ref:
            g = grads[k] if grads[k] is not None else np.zeros_like(ref[k])
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * (g * g)
            mhat = m[k] / (1 - b1 ** t)
            vhat = v[k] / (1 - b2 ** t)
            ref[k] = ref[k] - lr * mhat / (np.sqrt(vhat) + eps)

    def test_blocks_hold_whole_parameters(self):
        # two parameters share a block up to its size, a larger one is a
        # block alone, and one without a gradient on a step counts as zero
        n = nm.ADAM_BLOCK_VALUES
        sizes = {"a": (n // 2, 1), "b": (n // 4,), "big": (2, n // 2 + 1),
                 "c": (3,), "d": (n - 3,), "e": (5, 2)}
        rng = np.random.default_rng(3)
        params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                  for k, s in sizes.items()}
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        state = AdamState(params)
        for t in (1, 2, 3):
            grads = {k: None if (k, t) in (("big", 2), ("c", 1)) else rng.normal(size=s)
                     for k, s in sizes.items()}
            for k, p in params.items():
                p.grad = grads[k]
            adam_step(params, state, lr=0.01 * t)
            self.reference_step(ref, m, v, grads, t, 0.01 * t)
            for k, p in params.items():
                np.testing.assert_array_equal(p.data, ref[k])
                np.testing.assert_array_equal(moments(state, p)[0], m[k])
                np.testing.assert_array_equal(moments(state, p)[1], v[k])
        assert [[q for q in params if params[q] in b.params] for b in state.blocks] == [
            ["a", "b"], ["big"], ["c", "d"], ["e"]]
        for block in state.blocks:
            assert block.data.size <= n or len(block.params) == 1
            assert all(np.shares_memory(p.data, block.data) for p in block.params)

    def test_two_backwards_then_one_step_equal_unblocked_tensors(self):
        # SCST's pattern: two graphs over the same parameters, one update,
        # on tensors laid out in blocks and on plain ones stepped by the
        # out-of-place recurrence
        rng = np.random.default_rng(11)
        x1, x2 = rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
        init = {"w": rng.normal(size=(4, 6)), "b": rng.normal(size=6),
                "u": rng.normal(size=(6, 2))}

        def loss(params, x, t):
            h = nm.matmul(Tensor(x), params["w"])
            if t != 2:  # b gets no gradient on step 2
                h = nm.add(h, params["b"])
            return nm.tsum(nm.mul(nm.matmul(h, params["u"]),
                                  nm.matmul(h, params["u"])))

        blocked = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        ref = {k: a.copy() for k, a in init.items()}
        m = {k: np.zeros_like(a) for k, a in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        state = AdamState(blocked)
        for t in (1, 2, 3):
            plain = {k: Tensor(a.copy(), requires_grad=True) for k, a in ref.items()}
            for params in (blocked, plain):
                nm.backward(loss(params, x1, t))
                nm.backward(loss(params, x2, t))
            adam_step(blocked, state, lr=0.05)
            self.reference_step(ref, m, v, {k: p.grad for k, p in plain.items()},
                                t, 0.05)
            nm.zero_grads(blocked)
            for k, p in blocked.items():
                np.testing.assert_array_equal(p.data, ref[k])
                np.testing.assert_array_equal(moments(state, p)[0], m[k])
                np.testing.assert_array_equal(moments(state, p)[1], v[k])

    def test_other_parameters_are_rejected(self):
        p, q = (Tensor(np.ones(2), requires_grad=True) for _ in range(2))
        state = AdamState({"p": p})
        with pytest.raises(NumericsError, match="other parameters"):
            adam_step({"q": q}, state, lr=0.1)
        with pytest.raises(NumericsError, match="other parameters"):
            adam_step({"p": p, "q": q}, state, lr=0.1)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState({"p": p})
        for _ in range(200):
            p.zero_grad()
            loss = nm.tsum(nm.mul(p, p))
            nm.backward(loss)
            adam_step({"p": p}, state, lr=0.05)
        assert abs(p.data[0]) < 0.05


class TestNoam:
    def test_branches_equal_at_warmup(self):
        assert 700 ** -0.5 == pytest.approx(700 * 700 ** -1.5, rel=1e-12)
        assert noam_lr(700, 32, 700) == pytest.approx(32 ** -0.5 * 700 ** -0.5, rel=1e-12)

    def test_monotone_up_then_down(self):
        values = [noam_lr(t, 64, 50) for t in range(1, 200)]
        for t in range(1, 49):
            assert values[t] > values[t - 1]
        for t in range(50, 199):
            assert values[t] < values[t - 1]

    def test_reference_value(self):
        assert noam_lr(400, 64, 400) == pytest.approx(
            0.125 * 400 ** -0.5, rel=1e-12)

    def test_step_zero_rejected(self):
        with pytest.raises(NumericsError):
            noam_lr(0, 64, 400)


def one_document_checkpoint(params) -> bytes:
    """The checkpoint bytes as one JSON document, the reference the streamed
    bytes must equal."""
    payload = {"format": "gridcap-checkpoint-v1", "params": {
        name: {"shape": list(p.data.shape),
               "data": base64.b64encode(np.ascontiguousarray(
                   p.data, dtype="<f8").tobytes()).decode("ascii")}
        for name, p in params.items()}}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


class TestCheckpoint:
    @pytest.fixture
    def awkward_params(self):
        rng = np.random.default_rng(4)
        return {
            'say "hi"': Tensor(rng.normal(size=(2, 3)), requires_grad=True),
            "back\\slash": Tensor(rng.normal(size=5), requires_grad=True),
            "caf\u00e9 \u2603": Tensor(rng.normal(size=(1, 2)), requires_grad=True),
            "a.scalar": Tensor(np.array(-1.25), requires_grad=True),
            "empty": Tensor(np.zeros((0, 4)), requires_grad=True),
            "strided": Tensor(rng.normal(size=(4, 6))[:, ::2], requires_grad=True),
        }

    def test_bytes_equal_the_one_document_reference(self, tmp_path, awkward_params):
        for params in (awkward_params, {}):
            path = tmp_path / "model.ckpt"
            nm.save_checkpoint(path, params)
            assert path.read_bytes() == one_document_checkpoint(params)

    def test_save_digest_is_the_file_hash_and_checkpoint_hash(self, tmp_path,
                                                              awkward_params):
        path = tmp_path / "model.ckpt"
        digest = nm.save_checkpoint(path, awkward_params)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == nm.checkpoint_hash(awkward_params)
        loaded = nm.load_checkpoint(path)
        assert nm.checkpoint_hash(loaded) == digest
        assert loaded["a.scalar"].shape == () and loaded["empty"].shape == (0, 4)
        assert all(p.data.flags.writeable for p in loaded.values())

    def test_hash_holds_one_parameter_at_a_time(self):
        data_cfg = DatasetConfig()
        params = init_captioner_params(
            CaptionerConfig(vocab=build_vocabulary(data_cfg),
                            visual_dim=data_cfg.visual_dim),
            np.random.default_rng(0))
        total = sum(p.data.nbytes for p in params.values())
        tracemalloc.start()
        try:
            nm.checkpoint_hash(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < total / 2, (peak, total)

    def test_load_holds_one_parameter_at_a_time(self, tmp_path):
        data_cfg = DatasetConfig()
        params = init_captioner_params(
            CaptionerConfig(vocab=build_vocabulary(data_cfg),
                            visual_dim=data_cfg.visual_dim),
            np.random.default_rng(0))
        total = sum(p.data.nbytes for p in params.values())
        largest = max(p.data.nbytes for p in params.values())
        path = tmp_path / "captioner.ckpt"
        nm.save_checkpoint(path, params)
        tracemalloc.start()
        try:
            nm.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the loaded arrays, plus one parameter's payload, bytes and array
        assert peak < total + 4 * largest, (peak, total, largest)

    def test_loads_the_arrays_of_the_one_document_parse(self, tmp_path,
                                                         awkward_params):
        path = tmp_path / "model.ckpt"
        nm.save_checkpoint(path, awkward_params)
        payload = json.loads(path.read_bytes())["params"]
        loaded = nm.load_checkpoint(path)
        assert list(loaded) == list(payload)
        for name, entry in payload.items():
            want = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").astype(
                np.float64).reshape(entry["shape"])
            got = loaded[name].data
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.writeable
            assert loaded[name].requires_grad

    @pytest.mark.parametrize("damage", [
        lambda doc: b"",
        lambda doc: doc[:-1],
        lambda doc: doc + b"\n",
        lambda doc: json.dumps(json.loads(doc), indent=1).encode(),
        lambda doc: doc.replace(b'"data":"', b'"data": "', 1),
        lambda doc: doc.replace(b'"shape":[2,3]', b'"shape":[3,3]'),
        lambda doc: doc.replace(b'=","shape"', b'","shape"', 1),
        lambda doc: doc.replace(b'"w"', b'"\\q"'),
        lambda doc: doc.replace(b'"w"', b'"v"'),
        lambda doc: doc.replace(b"gridcap-checkpoint-v1", b"gridcap-checkpoint-v2"),
    ], ids=["empty", "truncated", "trailing-newline", "indented", "spaced",
            "shape-size", "padding", "bad-escape", "duplicate-name", "format"])
    def test_other_layouts_and_damage_rejected(self, tmp_path, damage):
        path = tmp_path / "model.ckpt"
        rng = np.random.default_rng(2)
        nm.save_checkpoint(path, {
            "v": Tensor(rng.normal(size=5), requires_grad=True),  # base64 ends "=="
            "w": Tensor(rng.normal(size=(2, 3)), requires_grad=True)})
        doc = path.read_bytes()
        path.write_bytes(damage(doc))
        assert path.read_bytes() != doc
        with pytest.raises(NumericsError):
            nm.load_checkpoint(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        params = {
            "w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            "b": Tensor(rng.normal(size=4), requires_grad=True),
        }
        path = tmp_path / "model.ckpt"
        h1 = nm.save_checkpoint(path, params)
        loaded = nm.load_checkpoint(path)
        assert set(loaded) == {"w", "b"}
        for name in params:
            assert (loaded[name].data == params[name].data).all()
            assert loaded[name].requires_grad
        assert nm.checkpoint_hash(loaded) == h1

    def test_hash_changes_with_content(self, tmp_path):
        params = {"w": Tensor(np.ones((2, 2)), requires_grad=True)}
        h1 = nm.checkpoint_hash(params)
        params["w"].data[0, 0] = 2.0
        assert nm.checkpoint_hash(params) != h1

    def test_interrupted_save_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        nm.save_checkpoint(path, {"w": Tensor(np.ones((8, 8)), requires_grad=True)})
        before = path.read_bytes()

        class TornFile:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        real_open = open

        def torn_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return TornFile(fh) if "w" in mode else fh

        monkeypatch.setattr(nm, "open", torn_open, raising=False)
        with pytest.raises(OSError, match="no space"):
            nm.save_checkpoint(path, {"w": Tensor(np.zeros((8, 8)),
                                                  requires_grad=True)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
