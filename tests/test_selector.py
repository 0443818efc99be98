import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcap import numerics as nm
from gridcap.numerics import Tensor
from gridcap.data import SceneRecord
from gridcap.decoder import MAX_CONSTRAINTS
from gridcap.selector import (Detection, SelectorConfig, build_ground_truth,
                              extract_features, init_selector_params,
                              inner_attention, select_constraints,
                              selector_forward, self_attention, weighted_bce)

from test_numerics import check_grads


def det(word, box=(50.0, 50.0, 20.0, 20.0), score=0.9, class_id=None):
    cid = class_id if class_id is not None else abs(hash(word)) % 1000
    return Detection(class_id=cid, class_word=word, box=box, score=score)


def scene_with(classes, references, W=100, H=100):
    dets = [det(w, class_id=i) for i, w in enumerate(classes)]
    return SceneRecord(scene_id="t0", W=W, H=H, detections=dets,
                       region_visual=[], references=references, split="test")


class TestExtractFeatures:
    def test_full_image_box(self):
        d = det("lamp", box=(50.0, 50.0, 100.0, 100.0), score=1.0)
        np.testing.assert_array_equal(extract_features(d, 100, 100),
                                      [0.5, 0.5, 1.0, 1.0, 1.0, 1.0])

    def test_direct_substitution(self):
        d = det("lamp", box=(25.0, 25.0, 50.0, 20.0), score=0.8)
        np.testing.assert_allclose(extract_features(d, 100, 100),
                                   [0.25, 0.25, 0.5, 0.2, 0.1, 0.8], atol=1e-15)

    def test_area_is_exact_product_of_sides(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            W = rng.uniform(100, 800)
            H = rng.uniform(100, 800)
            w = rng.uniform(1, W)
            h = rng.uniform(1, H)
            x = rng.uniform(w / 2, W - w / 2)
            y = rng.uniform(h / 2, H - h / 2)
            f = extract_features(det("lamp", box=(x, y, w, h), score=0.5), W, H)
            assert f[4] == f[2] * f[3]
            assert ((0 <= f) & (f <= 1)).all()

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            extract_features(det("lamp"), 0, 100)

    def test_out_of_bounds_box(self):
        with pytest.raises(ValueError):
            extract_features(det("lamp", box=(95.0, 50.0, 20.0, 10.0)), 100, 100)


def proj(rng, d):
    return Tensor(rng.normal(size=(d, d)), requires_grad=True)


class TestInnerAttention:
    def test_unique_class_gets_its_value_projection(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 8)))
        wq, wk, wv = (proj(rng, 8) for _ in range(3))
        out = inner_attention(x, [3, 7, 3, 3], wq, wk, wv, num_heads=2)
        expected = (x.data @ wv.data)[1:2]  # its only unmasked weight is 1
        np.testing.assert_array_equal(out.data[1:2], expected)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(classes=st.lists(st.integers(0, 3), min_size=1, max_size=8),
           num_heads=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_class_reference(self, classes, num_heads, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(len(classes), 8))
        wq, wk, wv = (proj(rng, 8) for _ in range(3))
        out = inner_attention(Tensor(x), classes, wq, wk, wv,
                              num_heads=num_heads).data
        # plain numpy: each class attended over in isolation
        cls = np.asarray(classes)
        hd = 8 // num_heads
        expected = np.empty_like(x)
        for c in set(classes):
            rows = cls == c
            q, k, v = (x[rows] @ w.data for w in (wq, wk, wv))
            for h in range(num_heads):
                cols = slice(h * hd, (h + 1) * hd)
                s = q[:, cols] @ k[:, cols].T / math.sqrt(hd)
                e = np.exp(s - s.max(axis=1, keepdims=True))
                expected[rows, cols] = (
                    e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_class_isolation_is_bitwise(self):
        rng = np.random.default_rng(12)
        wq, wk, wv = (proj(rng, 8) for _ in range(3))
        classes = [0, 1, 0, 1, 2]
        base = rng.normal(size=(5, 8))
        ref = inner_attention(Tensor(base), classes, wq, wk, wv, num_heads=2).data
        for _ in range(100):
            perturbed = base.copy()
            rows_b = [i for i, c in enumerate(classes) if c == 1]
            perturbed[rows_b] = rng.normal(scale=10.0, size=(len(rows_b), 8))
            out = inner_attention(Tensor(perturbed), classes, wq, wk, wv,
                                  num_heads=2).data
            rows_a = [i for i, c in enumerate(classes) if c != 1]
            assert (out[rows_a] == ref[rows_a]).all()

    def test_single_class_equals_dense_self_attention(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(6, 8)))
        wq, wk, wv = (proj(rng, 8) for _ in range(3))
        inner = inner_attention(x, [5] * 6, wq, wk, wv, num_heads=2)
        dense = self_attention(x, wq, wk, wv, num_heads=2)
        np.testing.assert_allclose(inner.data, dense.data, atol=1e-12)

    def test_empty_input(self):
        rng = np.random.default_rng(14)
        wq, wk, wv = (proj(rng, 8) for _ in range(3))
        out = inner_attention(Tensor(np.zeros((0, 8))), [], wq, wk, wv)
        assert out.shape == (0, 8)


class TestSelfAttention:
    def test_single_region_is_value_projection(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(1, 8)))
        wq, wk, wv = (proj(rng, 8) for _ in range(3))
        out = self_attention(x, wq, wk, wv, num_heads=2)
        np.testing.assert_array_equal(out.data, x.data @ wv.data)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(7, 8))
        wq, wk, wv = (proj(rng, 8) for _ in range(3))
        out = self_attention(Tensor(x), wq, wk, wv, num_heads=2).data
        perm = rng.permutation(7)
        out_p = self_attention(Tensor(x[perm]), wq, wk, wv, num_heads=2).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)

    def test_gradcheck_through_inner_and_self_stack(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        mats = [proj(rng, 6) for _ in range(6)]
        w = rng.normal(size=(4, 6))

        def loss():
            h = inner_attention(x, [0, 1, 0, 1], *mats[:3], num_heads=2)
            h = self_attention(h, *mats[3:], num_heads=2)
            return nm.tsum(nm.mul(h, Tensor(w)))

        check_grads(loss, [x] + mats, 1e-4)


class TestSelectorForward:
    def test_zero_parameters_score_half(self):
        cfg = SelectorConfig(embed_dim=8, num_layers=2, num_heads=2, ffn_dim=16)
        params = init_selector_params(cfg, np.random.default_rng(0))
        for p in params.values():
            p.data[...] = 0.0
        feats = np.random.default_rng(18).uniform(size=(4, 6))
        scores = selector_forward(feats, [0, 1, 1, 2], cfg, params)
        np.testing.assert_array_equal(scores.data, [0.5] * 4)

    def test_scores_in_open_interval(self):
        cfg = SelectorConfig(embed_dim=8, num_layers=2, num_heads=2, ffn_dim=16)
        params = init_selector_params(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            scores = selector_forward(rng.uniform(size=(n, 6)),
                                      rng.integers(0, 3, size=n), cfg, params)
            assert ((scores.data > 0) & (scores.data < 1)).all()

    def test_duplicate_regions_get_equal_scores(self):
        cfg = SelectorConfig(embed_dim=8, num_layers=2, num_heads=2, ffn_dim=16)
        params = init_selector_params(cfg, np.random.default_rng(2))
        rng = np.random.default_rng(20)
        feats = rng.uniform(size=(3, 6))
        feats = np.vstack([feats, feats[1]])  # duplicate region 1
        scores = selector_forward(feats, [0, 1, 2, 1], cfg, params)
        assert scores.data[1] == pytest.approx(scores.data[3], abs=1e-12)

    def test_whole_selector_permutation_equivariance(self):
        cfg = SelectorConfig(embed_dim=8, num_layers=2, num_heads=2, ffn_dim=16)
        params = init_selector_params(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(21)
        feats = rng.uniform(size=(6, 6))
        classes = np.array([0, 1, 0, 2, 1, 2])
        base = selector_forward(feats, classes, cfg, params).data
        perm = rng.permutation(6)
        permuted = selector_forward(feats[perm], classes[perm], cfg, params).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)

    def test_forward_plus_bce_gradcheck(self):
        cfg = SelectorConfig(embed_dim=8, num_layers=1, num_heads=2, ffn_dim=12)
        params = init_selector_params(cfg, np.random.default_rng(4))
        rng = np.random.default_rng(22)
        feats = rng.uniform(size=(3, 6))
        targets = np.array([1.0, 0.0, 1.0])
        tensors = list(params.values())

        def loss():
            scores = selector_forward(feats, [0, 0, 1], cfg, params)
            return weighted_bce(scores, targets, 0.2, 0.8)

        check_grads(loss, tensors, 1e-4)

    def test_too_many_proposals_rejected(self):
        cfg = SelectorConfig(embed_dim=8, num_heads=2, max_proposals=3)
        params = init_selector_params(cfg, np.random.default_rng(5))
        with pytest.raises(ValueError):
            selector_forward(np.zeros((4, 6)), [0, 1, 2, 3], cfg, params)


class TestWeightedBce:
    def test_positive_at_half(self):
        loss = weighted_bce(Tensor([0.5]), [1.0], 0.2, 0.8)
        assert loss.item() == pytest.approx(0.8 * math.log(2), rel=1e-12)

    def test_negative_at_half(self):
        loss = weighted_bce(Tensor([0.5]), [0.0], 0.2, 0.8)
        assert loss.item() == pytest.approx(0.2 * math.log(2), rel=1e-12)

    def test_unit_weights_reduce_to_plain_bce(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            y = rng.uniform(0.01, 0.99, size=12)
            t = rng.integers(0, 2, size=12).astype(float)
            ours = weighted_bce(Tensor(y), t, 1.0, 1.0).item()
            reference = -np.mean(t * np.log(y) + (1 - t) * np.log(1 - y))
            assert ours == pytest.approx(reference, abs=1e-12)

    def test_monotone_decreasing_in_score_for_positive(self):
        values = [weighted_bce(Tensor([y]), [1.0], 0.2, 0.8).item()
                  for y in np.linspace(0.05, 0.95, 19)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_saturated_scores_are_clamped_not_fatal(self):
        loss = weighted_bce(Tensor([1.0, 0.0]), [1.0, 0.0], 0.2, 0.8)
        assert np.isfinite(loss.item())


class TestGroundTruth:
    def test_basic_mention(self):
        scene = scene_with(["dog", "car"], [["a", "dog", "runs"]])
        np.testing.assert_array_equal(build_ground_truth(scene, {}), [1.0, 0.0])

    def test_plural_via_synonyms(self):
        scene = scene_with(["dog"], [["two", "dogs", "play"]])
        np.testing.assert_array_equal(
            build_ground_truth(scene, {"dog": ["dogs"]}), [1.0])

    def test_case_insensitive_exact_token(self):
        scene = scene_with(["dog"], [["A", "DOG", "runs"]])
        np.testing.assert_array_equal(build_ground_truth(scene, {}), [1.0])
        scene2 = scene_with(["dog"], [["a", "doghouse", "stands"]])
        np.testing.assert_array_equal(build_ground_truth(scene2, {}), [0.0])

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(24)
        words = ["lamp", "chair", "vase", "drum", "fence"]
        synonyms = {w: [w + "s"] for w in words}
        for _ in range(50):
            classes = list(rng.choice(words, size=rng.integers(2, 6)))
            refs = []
            for _ in range(rng.integers(1, 4)):
                n = int(rng.integers(2, 7))
                refs.append(list(rng.choice(words + ["a", "sits", "near"], size=n)))
            scene = scene_with(classes, refs)
            got = build_ground_truth(scene, synonyms)
            # independent scan: loop every token of every reference
            expected = []
            for w in classes:
                hit = 0.0
                for ref in refs:
                    for tok in ref:
                        if tok == w or tok == w + "s":
                            hit = 1.0
                expected.append(hit)
            np.testing.assert_array_equal(got, expected)

    def test_no_references_rejected(self):
        scene = scene_with(["dog"], [])
        with pytest.raises(ValueError):
            build_ground_truth(scene, {})


class TestSelectConstraints:
    def test_threshold(self):
        dets = [det("bus"), det("car")]
        assert select_constraints([0.9, 0.4], dets) == ["bus"]

    def test_dedup_by_word(self):
        dets = [det("zebra"), det("zebra")]
        assert select_constraints([0.8, 0.7], dets) == ["zebra"]

    def test_truncation_keeps_top_scores(self):
        words = ["w%d" % i for i in range(7)]
        scores = [0.55, 0.95, 0.6, 0.8, 0.7, 0.9, 0.65]
        dets = [det(w) for w in words]
        got = select_constraints(scores, dets)
        ranked = sorted(zip(scores, words), key=lambda p: (-p[0], p[1]))
        assert got == [w for _, w in ranked[:MAX_CONSTRAINTS]]
        assert len(got) == MAX_CONSTRAINTS

    def test_subthreshold_addition_changes_nothing(self):
        dets = [det("bus"), det("car")]
        base = select_constraints([0.9, 0.8], dets)
        extended = select_constraints([0.9, 0.8, 0.2], dets + [det("cat")])
        assert base == extended
