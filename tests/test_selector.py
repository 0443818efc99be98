import json
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
                              load_synonyms, select_constraints,
                              selector_forward, weighted_bce)

from test_numerics import check_grads


def det(word, box=(50.0, 50.0, 20.0, 20.0), score=0.9):
    return Detection(class_word=word, box=box, score=score)


def scene_with(classes, references, W=100, H=100):
    dets = [det(w) for w in classes]
    return SceneRecord(scene_id="t0", W=W, H=H, detections=dets,
                       region_visual=[], references=references, split="test")


class TestSelectorConfig:
    @settings(max_examples=40, deadline=None)
    @given(heads=st.integers(1, 3), head_dim=st.integers(1, 4), layers=st.integers(0, 3),
           ffn=st.integers(1, 9))
    def test_param_count_is_the_initialised_size(self, heads, head_dim, layers, ffn):
        cfg = SelectorConfig(embed_dim=heads * head_dim, num_layers=layers,
                             num_heads=heads, ffn_dim=ffn)
        params = init_selector_params(cfg, np.random.default_rng(0))
        assert cfg.param_count == sum(p.data.size for p in params.values())

    @pytest.mark.parametrize("field", ["embed_dim", "num_layers", "ffn_dim"])
    def test_huge_model_is_rejected(self, field):
        with pytest.raises(ValueError, match="values in its parameters, more than"):
            SelectorConfig(**{field: 10 ** 30, "num_heads": 1})


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

    @pytest.mark.parametrize("box, width", [
        ((math.nan, 50.0, 20.0, 10.0), 100),
        ((50.0, 50.0, 20.0, 10.0), math.inf),
    ], ids=["nan-box", "infinite-width"])
    def test_non_finite_values_rejected(self, box, width):
        with pytest.raises(ValueError, match="non-finite"):
            extract_features(det("lamp", box=box), width, 100)


def small_selector(seed, num_layers=2, num_heads=2):
    cfg = SelectorConfig(embed_dim=8, num_layers=num_layers, num_heads=num_heads,
                         ffn_dim=16)
    return cfg, init_selector_params(cfg, np.random.default_rng(seed))


def packed(rng, scene_classes):
    """Features, class ids and segments of scenes given as class-id lists."""
    classes = np.concatenate([np.asarray(c, dtype=np.intp) for c in scene_classes])
    segments = np.repeat(np.arange(len(scene_classes)),
                         [len(c) for c in scene_classes])
    return rng.uniform(size=(len(classes), 6)), classes, segments


def _np_layer_norm(x, p, pre):
    xhat = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(
        x.var(axis=-1, keepdims=True) + nm.LN_EPS)
    return p[f"{pre}.ln_gain"] * xhat + p[f"{pre}.ln_bias"]


def _np_grouped_attention(h, p, pre, num_heads, groups):
    """Multi-head attention where each row attends to the rows of its group,
    one group at a time."""
    hd = h.shape[1] // num_heads
    q, k, v = (h @ p[f"{pre}.{w}"] for w in ("wq", "wk", "wv"))
    out = np.empty_like(h)
    for g in set(groups):
        rows = np.array([x == g for x in groups])
        for head in range(num_heads):
            cols = slice(head * hd, (head + 1) * hd)
            sc = q[rows, cols] @ k[rows, cols].T / math.sqrt(hd)
            e = np.exp(sc - sc.max(axis=1, keepdims=True))
            out[np.ix_(rows, np.arange(cols.start, cols.stop))] = (
                e / e.sum(axis=1, keepdims=True)) @ v[rows, cols]
    return out


def reference_scores(feats, inner_groups, self_groups, cfg, params):
    """The selector in plain numpy, attention computed group by group."""
    p = {k: v.data for k, v in params.items()}
    x = feats @ p["input.w"] + p["input.b"]
    for i in range(cfg.num_layers):
        for block, groups in (("inner", inner_groups), ("self", self_groups)):
            pre = f"layer{i}.{block}"
            x = x + _np_grouped_attention(_np_layer_norm(x, p, pre), p, pre,
                                          cfg.num_heads, groups)
        pre = f"layer{i}.ffn"
        h = np.maximum(_np_layer_norm(x, p, pre) @ p[f"{pre}.w1"] + p[f"{pre}.b1"], 0)
        x = x + h @ p[f"{pre}.w2"] + p[f"{pre}.b2"]
    x = _np_layer_norm(x, p, "final")
    return 1.0 / (1.0 + np.exp(-(x @ p["head.w"] + p["head.b"])[:, 0]))


def redrawn(params, rng, names):
    """A copy of params with the named matrices drawn afresh."""
    out = dict(params)
    for name in names:
        out[name] = Tensor(rng.normal(size=params[name].shape))
    return out


class TestInnerAttention:
    def test_unique_class_gets_its_value_projection(self):
        # each class occurs once per scene (class ids repeat across scenes),
        # so every inner-attention row reads only its own value projection
        # and the inner query and key projections cannot matter
        cfg, params = small_selector(11)
        rng = np.random.default_rng(11)
        feats, classes, segments = packed(rng, [[3, 7, 1], [3, 7]])
        base = selector_forward(feats, classes, cfg, params, segments).data
        other = redrawn(params, rng, [f"layer{i}.inner.{w}" for i in range(2)
                                      for w in ("wq", "wk")])
        out = selector_forward(feats, classes, cfg, other, segments).data
        np.testing.assert_array_equal(out, base)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(scene_classes=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=8),
                                  min_size=1, max_size=3),
           num_heads=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_class_reference(self, scene_classes, num_heads, seed):
        cfg, params = small_selector(seed % 1000, num_heads=num_heads)
        feats, classes, segments = packed(np.random.default_rng(seed), scene_classes)
        out = selector_forward(feats, classes, cfg, params, segments).data
        inner = list(zip(segments.tolist(), classes.tolist()))
        expected = reference_scores(feats, inner, segments.tolist(), cfg, params)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_class_isolation_is_bitwise(self):
        # with the self blocks' value projection zeroed only inner attention
        # mixes rows, so rows of other classes cannot reach a class's scores
        cfg, params = small_selector(12, num_layers=1)
        params["layer0.self.wv"].data[...] = 0.0
        rng = np.random.default_rng(12)
        classes = [0, 1, 0, 1, 2]
        base = rng.uniform(size=(5, 6))
        ref = selector_forward(base, classes, cfg, params).data
        rows_b = [i for i, c in enumerate(classes) if c == 1]
        rows_a = [i for i, c in enumerate(classes) if c != 1]
        for _ in range(100):
            perturbed = base.copy()
            perturbed[rows_b] = rng.normal(scale=10.0, size=(len(rows_b), 6))
            out = selector_forward(perturbed, classes, cfg, params).data
            assert (out[rows_a] == ref[rows_a]).all()

    def test_single_class_equals_dense_self_attention(self):
        cfg, params = small_selector(13)
        feats = np.random.default_rng(13).uniform(size=(6, 6))
        out = selector_forward(feats, [5] * 6, cfg, params).data
        dense = [0] * 6  # inner attention over the whole scene
        np.testing.assert_allclose(
            out, reference_scores(feats, dense, dense, cfg, params), atol=1e-12)

    def test_empty_input(self):
        cfg, params = small_selector(14)
        with pytest.raises(ValueError):
            selector_forward(np.zeros((0, 6)), [], cfg, params)


class TestSelfAttention:
    def test_single_region_is_value_projection(self):
        # one region per scene: every attention row reads only itself, so no
        # query or key projection can matter, nor can the other scenes
        cfg, params = small_selector(15)
        rng = np.random.default_rng(15)
        feats, classes, segments = packed(rng, [[0], [0], [1]])
        base = selector_forward(feats, classes, cfg, params, segments).data
        other = redrawn(params, rng, [f"layer{i}.{b}.{w}" for i in range(2)
                                      for b in ("inner", "self")
                                      for w in ("wq", "wk")])
        out = selector_forward(feats, classes, cfg, other, segments).data
        np.testing.assert_array_equal(out, base)

    def test_permutation_equivariance(self):
        cfg, params = small_selector(16)
        rng = np.random.default_rng(16)
        feats, classes, segments = packed(rng, [[0, 1, 0], [2, 1, 1, 2]])
        out = selector_forward(feats, classes, cfg, params, segments).data
        perm = rng.permutation(7)
        out_p = selector_forward(feats[perm], classes[perm], cfg, params,
                                 segments[perm]).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)

    def test_gradcheck_through_inner_and_self_stack(self):
        cfg = SelectorConfig(embed_dim=6, num_layers=1, num_heads=2, ffn_dim=8)
        params = init_selector_params(cfg, np.random.default_rng(17))
        rng = np.random.default_rng(17)
        feats, classes, segments = packed(rng, [[0, 1, 0], [1, 1]])
        x = Tensor(feats, requires_grad=True)
        targets = np.array([1.0, 0.0, 1.0, 0.0, 1.0])

        def loss():
            scores = selector_forward(x, classes, cfg, params, segments)
            return weighted_bce(scores, targets, 0.2, 0.8, segments)

        check_grads(loss, [x] + list(params.values()), 1e-4)


class TestSelectorPacking:
    def scenes(self, rng, sizes):
        return [(rng.uniform(size=(n, 6)), rng.integers(0, 3, size=n),
                 rng.integers(0, 2, size=n).astype(float)) for n in sizes]

    def test_packed_scores_equal_each_scene_alone(self):
        cfg, params = small_selector(30)
        scenes = self.scenes(np.random.default_rng(30), [4, 1, 7, 3])
        feats, classes, _ = (np.concatenate(part) for part in zip(*scenes))
        segments = np.repeat(np.arange(4), [4, 1, 7, 3])
        out = selector_forward(feats, classes, cfg, params, segments).data
        alone = np.concatenate([selector_forward(f, c, cfg, params).data
                                for f, c, _ in scenes])
        np.testing.assert_allclose(out, alone, rtol=0, atol=1e-12)

    def test_other_scenes_rows_leave_scores_bitwise_unchanged(self):
        cfg, params = small_selector(31)
        rng = np.random.default_rng(31)
        feats, classes, segments = packed(rng, [[0, 1, 0], [0, 1, 1, 2], [2]])
        ref = selector_forward(feats, classes, cfg, params, segments).data
        mine = segments == 1
        for _ in range(20):
            perturbed = feats.copy()
            perturbed[~mine] = rng.normal(scale=10.0, size=(int((~mine).sum()), 6))
            out = selector_forward(perturbed, classes, cfg, params, segments).data
            assert (out[mine] == ref[mine]).all()

    def test_minibatch_loss_and_gradients_equal_per_scene_loop(self):
        cfg, params = small_selector(32)
        scenes = self.scenes(np.random.default_rng(32), [3, 5, 2])
        feats, classes, targets = (np.concatenate(part) for part in zip(*scenes))
        segments = np.repeat(np.arange(3), [3, 5, 2])
        nm.zero_grads(params)
        looped = 0.0
        for f, c, t in scenes:
            loss = weighted_bce(selector_forward(f, c, cfg, params), t, 0.2, 0.8)
            looped += loss.item() / len(scenes)
            nm.backward(nm.mul(loss, 1.0 / len(scenes)))
        grads = {k: p.grad.copy() for k, p in params.items()}
        nm.zero_grads(params)
        loss = weighted_bce(selector_forward(feats, classes, cfg, params, segments),
                            targets, 0.2, 0.8, segments)
        nm.backward(loss)
        assert loss.item() == pytest.approx(looped, rel=0, abs=1e-12)
        for k, p in params.items():
            np.testing.assert_allclose(p.grad, grads[k], rtol=0, atol=1e-12)

    def test_segments_shape_mismatch_raises(self):
        cfg, params = small_selector(33)
        feats, classes, _ = packed(np.random.default_rng(33), [[0, 1, 2]])
        with pytest.raises(ValueError):
            selector_forward(feats, classes, cfg, params, [0, 0])
        with pytest.raises(ValueError):
            weighted_bce(Tensor([0.5, 0.5, 0.5]), [1.0, 0.0, 1.0], 0.2, 0.8, [0, 1])

    def test_max_proposals_is_checked_per_scene(self):
        cfg = SelectorConfig(embed_dim=8, num_heads=2, max_proposals=3)
        params = init_selector_params(cfg, np.random.default_rng(34))
        feats, classes, segments = packed(np.random.default_rng(34),
                                          [[0, 1, 2], [0, 1, 2]])
        assert selector_forward(feats, classes, cfg, params, segments).shape == (6,)
        with pytest.raises(ValueError):
            selector_forward(feats[:4], classes[:4], cfg, params, [0, 0, 0, 0])


class TestSelectorForward:
    def test_array_forward_equals_taped(self):
        cfg, params = small_selector(33)
        feats, classes, segments = packed(np.random.default_rng(33),
                                          [[0, 1, 0], [2], [1, 1, 2, 0]])
        got = selector_forward(feats, classes, cfg, nm.arrays_of(params), segments)
        assert type(got) is np.ndarray
        assert np.array_equal(
            got, selector_forward(feats, classes, cfg, params, segments).data)

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


class TestSynonymTable:
    def test_round_trip(self, tmp_path):
        table = {"lamp": ["lamps", "Lanterns"], "vase": []}
        (tmp_path / "s.json").write_text(json.dumps(table))
        assert load_synonyms(tmp_path / "s.json") == table

    @pytest.mark.parametrize("forms", ['"lamps"', '["lamps", 3]', "null", '{"a": 1}'],
                             ids=["string", "int-form", "null", "object"])
    def test_forms_that_are_not_a_list_of_strings_rejected(self, tmp_path, forms):
        # a bare string would read as its letters, and the filler "a" would
        # then count as a lamp mention
        path = tmp_path / "s.json"
        path.write_text(f'{{"vase": ["vases"], "lamp": {forms}}}')
        with pytest.raises(ValueError, match="'lamp'"):
            load_synonyms(path)


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
