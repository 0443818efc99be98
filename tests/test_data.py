import json

import numpy as np
import pytest

from gridcap.data import (CLASS_WORDS, FILLERS, DatasetConfig, SceneRecord,
                          apply_heldout, build_vocabulary, default_synonyms,
                          gen_dataset, read_jsonl, write_jsonl)
from gridcap.metrics import EvalRecord, eval_report
from gridcap.selector import build_ground_truth, mentions_any


def refs_mention(scene, words, synonyms):
    return mentions_any([t for ref in scene.references for t in ref], words, synonyms)


@pytest.fixture(scope="module")
def corpus():
    cfg = DatasetConfig(num_train=60, num_eval=40, seed=11)
    return cfg, gen_dataset(cfg)


def spearman(x, y):
    """Rank correlation, computed here independently of any library."""
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r

    rx, ry = ranks(np.asarray(x)), ranks(np.asarray(y))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


class TestGenScene:
    def test_fixed_seed_is_bit_reproducible(self):
        cfg = DatasetConfig(num_train=5, num_eval=3, seed=21)
        a = gen_dataset(cfg)
        b = gen_dataset(cfg)
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]

    def test_boxes_inside_image_bounds(self):
        cfg = DatasetConfig(num_train=10000, num_eval=0, seed=5)
        for scene in gen_dataset(cfg):
            for d in scene.detections:
                x, y, w, h = d.box
                assert w > 0 and h > 0
                assert x - w / 2 >= -1e-9 and x + w / 2 <= scene.W + 1e-9
                assert y - h / 2 >= -1e-9 and y + h / 2 <= scene.H + 1e-9
                assert 0.0 <= d.score <= 1.0

    def test_detection_count_in_contract(self, corpus):
        _, scenes = corpus
        for s in scenes:
            assert 2 <= len(s.detections) <= 10
            assert len(s.region_visual) == len(s.detections)

    def test_confidence_tracks_area(self, corpus):
        _, scenes = corpus
        areas, scores = [], []
        for s in scenes:
            for d in s.detections:
                areas.append(d.box[2] * d.box[3] / (s.W * s.H))
                scores.append(d.score)
        assert spearman(areas, scores) > 0.3

    def test_duplicate_classes_occur(self, corpus):
        _, scenes = corpus
        dup = sum(1 for s in scenes
                  if len({d.class_word for d in s.detections}) < len(s.detections))
        assert dup > len(scenes) * 0.3


class TestGenCaptions:
    def test_at_least_two_references(self, corpus):
        _, scenes = corpus
        assert all(len(s.references) >= 2 for s in scenes)

    def test_largest_object_in_every_reference(self, corpus):
        _, scenes = corpus
        for s in scenes:
            biggest = max(s.detections, key=lambda d: d.box[2] * d.box[3])
            word = biggest.class_word
            for ref in s.references:
                assert word in ref or word + "s" in ref

    def test_mentions_are_detections_or_fillers(self, corpus):
        cfg, scenes = corpus
        plurals = {w + "s" for w in cfg.classes}
        for s in scenes:
            scene_words = {d.class_word for d in s.detections}
            scene_words |= {w + "s" for w in scene_words}
            for ref in s.references:
                for tok in ref:
                    assert tok in FILLERS or tok in scene_words or tok in plurals

    def test_ground_truth_has_a_positive_region(self, corpus):
        cfg, scenes = corpus
        synonyms = default_synonyms(cfg.classes)
        for s in scenes:
            assert build_ground_truth(s, synonyms).sum() >= 1

    def test_captions_fit_the_decoder_budget(self, corpus):
        _, scenes = corpus
        assert max(len(r) for s in scenes for r in s.references) <= 14

    def test_plural_mentions_exist(self, corpus):
        _, scenes = corpus
        plural_refs = [r for s in scenes for r in s.references if r[0] == "two"]
        assert plural_refs, "expected some plural-form captions"


class TestHeldout:
    def test_captioner_split_filtered(self, corpus):
        cfg, scenes = corpus
        synonyms = default_synonyms(cfg.classes)
        splits = apply_heldout(scenes, cfg, synonyms)
        for s in splits.captioner_train:
            assert not refs_mention(s, cfg.held_out, synonyms)

    def test_selector_trains_on_captioner_split(self, corpus):
        cfg, scenes = corpus
        splits = apply_heldout(scenes, cfg, default_synonyms(cfg.classes))
        assert splits.selector_train == splits.captioner_train

    def test_mixed_case_mention_is_held_out_as_eval_counts_it(self, corpus):
        # training filters with the check eval uses to call a scene out-domain
        cfg, scenes = corpus
        synonyms = default_synonyms(cfg.classes)
        scene = SceneRecord.from_dict({**scenes[0].to_dict(),
                                       "references": [["a", "Vase", "sits"]]}, cfg)
        assert scene.split == "train"
        assert apply_heldout([scene], cfg, synonyms).captioner_train == []
        record = EvalRecord(scene.scene_id, ["a", "vase"], scene.references)
        assert eval_report([record], list(cfg.held_out),
                           synonyms)["out_domain"]["count"] == 1

    def test_val_test_sizes_balanced(self, corpus):
        cfg, scenes = corpus
        splits = apply_heldout(scenes, cfg, default_synonyms(cfg.classes))
        assert abs(len(splits.val) - len(splits.test)) <= 1
        assert len(splits.val) + len(splits.test) == cfg.num_eval

    def test_out_domain_fraction_positive(self, corpus):
        cfg, scenes = corpus
        synonyms = default_synonyms(cfg.classes)
        splits = apply_heldout(scenes, cfg, synonyms)
        out = [s for s in splits.test if refs_mention(s, cfg.held_out, synonyms)]
        assert 0 < len(out) < len(splits.test)

    def test_heldout_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            DatasetConfig(classes=("lamp", "chair"), held_out=("zebra",))

    def test_multiword_class_rejected(self):
        with pytest.raises(ValueError):
            DatasetConfig(classes=("coffee table",), held_out=())

    @pytest.mark.parametrize("word", ["a", "two", "sit"])  # "sits" is a filler
    def test_template_word_class_rejected(self, word):
        with pytest.raises(ValueError, match="template word"):
            DatasetConfig(classes=(word, "lamp"), held_out=())

    @pytest.mark.parametrize("classes", [("lamp", "lamp", "chair"),
                                         ("lamp", "lamps", "chair"),
                                         ("lamps", "chair", "lamp")],
                             ids=["repeated", "plural-after", "plural-before"])
    def test_repeated_or_plural_class_word_rejected(self, classes):
        # a class is its word, and default_synonyms reads "lamps" as "lamp"
        with pytest.raises(ValueError, match="repeats or its plural"):
            DatasetConfig(classes=classes, held_out=())


class TestVocabulary:
    def test_contains_heldout_words(self):
        cfg = DatasetConfig()
        vocab = build_vocabulary(cfg)
        for w in cfg.held_out:
            assert w in vocab.token_to_id
            assert w + "s" in vocab.token_to_id

    def test_covers_all_caption_tokens(self, corpus):
        cfg, scenes = corpus
        vocab = build_vocabulary(cfg)
        for s in scenes:
            for ref in s.references:
                ids = vocab.encode(ref)
                assert vocab.unk_id not in ids


class TestSerialization:
    def test_jsonl_round_trip_byte_identical(self, corpus, tmp_path):
        cfg, scenes = corpus
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_jsonl(p1, [s.to_dict() for s in scenes])
        write_jsonl(p2, [s.to_dict() for s in read_jsonl(p1, cfg)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_field_names(self, corpus):
        cfg, scenes = corpus
        obj = scenes[0].to_dict()
        assert list(obj) == ["scene_id", "W", "H", "detections",
                             "region_visual", "references", "split"]
        line = json.dumps(obj)
        back = SceneRecord.from_dict(json.loads(line), cfg)
        assert back.to_dict() == obj
        for det in obj["detections"]:
            assert list(det) == ["class_word", "box", "score"]

    def test_record_with_class_ids_reads_unchanged(self, corpus):
        # scene files written before detections dropped their class index
        cfg, scenes = corpus
        obj = scenes[0].to_dict()
        old = obj | {"detections": [{"class_id": cfg.classes.index(d["class_word"])} | d
                                    for d in obj["detections"]]}
        assert SceneRecord.from_dict(old, cfg) == SceneRecord.from_dict(obj, cfg)
