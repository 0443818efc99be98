"""Synthetic held-out-object captioning data.

Each scene is a fake image: dimensions, a handful of detected boxes with
confidence scores, a visual feature vector per box, and template reference
captions that mention the salient objects. Salience is a pure function of
geometry (largest boxes plus anything over an area threshold), which gives
the selector a learnable signal, while confidence is only noisily tied to
area so confidence-ranked baselines stay beatable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .captioner import RESERVED, Vocabulary
from .numerics import check_at_least
from .selector import Detection, extract_features, mentions_any

CLASS_WORDS = (
    "lamp", "chair", "table", "vase", "clock", "mirror", "plant", "shelf",
    "stool", "bench", "kettle", "basket", "pillow", "ladder", "drum",
    "crate", "barrel", "bucket", "helmet", "banner", "fence", "cart",
    "anvil", "torch", "rug", "easel", "tripod", "globe", "harp", "flask",
)
HELD_OUT_DEFAULT = ("vase", "ladder", "drum", "anvil", "torch", "globe", "harp", "flask")

ADJECTIVES = ("big", "small", "old", "new", "bright", "dark")
VERBS_SG = ("sits", "stands", "rests", "leans", "waits")
VERBS_PL = ("sit", "stand", "rest", "lean", "wait")
PREPS = ("near", "beside", "behind", "under")
FILLERS = ("a", "two", "and") + ADJECTIVES + VERBS_SG + VERBS_PL + PREPS

MIN_DETECTIONS, MAX_DETECTIONS = 2, 10  # detections per scene, inclusive
SALIENCE_TAU = 0.14  # area fraction past which an object beyond the two largest is salient
MENTION_DROPOUT = 0.3  # chance a reference drops one non-primary mention
SPLITS = ("train", "val", "test")


@dataclass
class DatasetConfig:
    num_train: int = 160
    num_eval: int = 140  # split evenly into val and test
    classes: tuple[str, ...] = CLASS_WORDS
    held_out: tuple[str, ...] = HELD_OUT_DEFAULT
    visual_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        # region features are 4 geometry values after at least one class value
        check_at_least(self, num_train=0, num_eval=0, visual_dim=5, seed=0)
        if not self.classes:
            raise ValueError("classes must not be empty")
        for w in self.classes:
            if not w or " " in w or w != w.lower() or w in RESERVED:
                raise ValueError(f"class word {w!r} must be one lowercase token "
                                 f"and not a reserved one")
            # a template word in a reference would read as a mention
            if w in FILLERS or w + "s" in FILLERS:
                raise ValueError(f"class word {w!r} or its plural is a caption "
                                 f"template word")
        missing = set(self.held_out) - set(self.classes)
        if missing:
            raise ValueError(f"held-out classes {sorted(missing)} not in the class vocabulary")


@dataclass
class SceneRecord:
    scene_id: str
    W: int
    H: int
    detections: list[Detection]
    region_visual: list[list[float]]
    references: list[list[str]]
    split: str

    def to_dict(self) -> dict:
        return {
            "scene_id": self.scene_id,
            "W": self.W,
            "H": self.H,
            "detections": [asdict(d) | {"box": list(d.box)} for d in self.detections],
            "region_visual": self.region_visual,
            "references": self.references,
            "split": self.split,
        }

    @classmethod
    def from_dict(cls, obj: dict, cfg: DatasetConfig) -> "SceneRecord":
        """A scene from ``to_dict`` output, checked against ``cfg``.

        ValueError unless, in this order: the scene has a detection, one
        region row per detection and a reference; each region row is
        ``cfg.visual_dim`` finite numbers; each class id numbers its class
        word in ``cfg.classes``; ``extract_features`` accepts the image size
        and each box and score; each reference is a non-empty list of
        strings, none of them a reserved vocabulary token; and ``split`` is
        one of ``SPLITS``. A missing key raises KeyError.
        """
        dets = [Detection(class_id=d["class_id"], class_word=d["class_word"],
                          box=tuple(d["box"]), score=d["score"])
                for d in obj["detections"]]
        where = f"scene {obj['scene_id']!r}"
        if not dets:
            raise ValueError(f"{where} has no detections")
        if len(obj["region_visual"]) != len(dets):
            raise ValueError(f"{where} has {len(obj['region_visual'])} region "
                             f"rows for {len(dets)} detections")
        if not obj["references"]:
            raise ValueError(f"{where} has no references")
        dim, classes = cfg.visual_dim, cfg.classes
        for det, row in zip(dets, obj["region_visual"]):
            row = np.asarray(row, dtype=np.float64)
            if row.shape != (dim,) or not np.isfinite(row).all():
                raise ValueError(f"{where} has a region row that is not "
                                 f"{dim} finite numbers")
            if not (0 <= det.class_id < len(classes)
                    and classes[det.class_id] == det.class_word):
                raise ValueError(f"{where} has class id {det.class_id!r} with "
                                 f"word {det.class_word!r}, not in data.classes")
            extract_features(det, obj["W"], obj["H"])
        for ref in obj["references"]:
            if not (isinstance(ref, list) and ref
                    and all(isinstance(t, str) for t in ref)):
                raise ValueError(f"{where} has a reference that is not a "
                                 f"non-empty list of strings")
            if any(t in RESERVED for t in ref):
                raise ValueError(f"{where} has a reference holding a reserved token")
        if obj["split"] not in SPLITS:
            raise ValueError(f"{where} has split {obj['split']!r}, not one of {SPLITS}")
        return cls(scene_id=obj["scene_id"], W=obj["W"], H=obj["H"],
                   detections=dets, region_visual=obj["region_visual"],
                   references=obj["references"], split=obj["split"])


def default_synonyms(classes) -> dict[str, list[str]]:
    """Plural forms; the synthetic class words all pluralize with -s."""
    return {w: [w + "s"] for w in classes}


def build_vocabulary(cfg: DatasetConfig) -> Vocabulary:
    words = list(cfg.classes)
    words += [w + "s" for w in cfg.classes]
    words += list(FILLERS)
    return Vocabulary(words)


def _class_embeddings(cfg: DatasetConfig) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(10 ** 6,)))
    return rng.normal(0.0, 1.0, size=(len(cfg.classes), cfg.visual_dim - 4))


def _salient_words(scene_dets: list[Detection], area_frac: list[float]) -> list[str]:
    order = sorted(range(len(scene_dets)), key=lambda i: (-area_frac[i], i))
    chosen = list(order[:2]) + [i for i in order[2:] if area_frac[i] >= SALIENCE_TAU]
    words = []
    for i in chosen:
        w = scene_dets[i].class_word
        if w not in words:
            words.append(w)
    return words


def gen_captions(scene: SceneRecord, rng: np.random.Generator) -> list[list[str]]:
    """Template references mentioning the salient objects.

    Grammar: "a <adj>? <class> <verb> [<prep> a <class> [and a <class>]]".
    Each caption may drop one non-primary mention; the largest object is
    always kept, so a dominant object appears in every reference.
    """
    area_frac = [(d.box[2] * d.box[3]) / (scene.W * scene.H) for d in scene.detections]
    salient = _salient_words(scene.detections, area_frac)[:3]
    counts = {w: sum(1 for d in scene.detections if d.class_word == w) for w in salient}
    refs = []
    for _ in range(int(rng.integers(2, 4))):
        mentions = list(salient)
        if len(mentions) > 1 and rng.random() < MENTION_DROPOUT:
            drop = 1 + int(rng.integers(0, len(mentions) - 1))
            mentions.pop(drop)
        first = mentions[0]
        v = int(rng.integers(0, len(VERBS_SG)))
        if counts[first] >= 2 and rng.random() < 0.5:
            tokens = ["two", first + "s", VERBS_PL[v]]
        else:
            tokens = ["a"]
            if rng.random() < 0.5:
                tokens.append(ADJECTIVES[int(rng.integers(0, len(ADJECTIVES)))])
            tokens += [first, VERBS_SG[v]]
        for j, w in enumerate(mentions[1:]):
            if j == 0:
                tokens += [PREPS[int(rng.integers(0, len(PREPS)))], "a", w]
            else:
                tokens += ["and", "a", w]
        refs.append(tokens)
    return refs


def gen_scene(rng: np.random.Generator, cfg: DatasetConfig, scene_id: str,
              split: str, class_emb: np.ndarray) -> SceneRecord:
    width = int(rng.integers(240, 641))
    height = int(rng.integers(240, 641))
    n_det = int(rng.integers(MIN_DETECTIONS, MAX_DETECTIONS + 1))

    # draw classes from a per-scene subset so duplicates actually occur
    subset_size = max(2, n_det - int(rng.integers(0, n_det // 2 + 1)))
    subset = rng.choice(len(cfg.classes), size=min(subset_size, len(cfg.classes)),
                        replace=False)
    class_ids = rng.choice(subset, size=n_det, replace=True)

    detections = []
    visual = []
    for cid in class_ids:
        wf = rng.uniform(0.1, 0.6)
        hf = rng.uniform(0.1, 0.6)
        w = wf * width
        h = hf * height
        x_c = rng.uniform(w / 2, width - w / 2)
        y_c = rng.uniform(h / 2, height - h / 2)
        af = wf * hf
        score = float(np.clip(0.25 + 0.9 * np.sqrt(af) + rng.normal(0.0, 0.12),
                              0.02, 0.98))
        detections.append(Detection(class_id=int(cid),
                                    class_word=cfg.classes[int(cid)],
                                    box=(float(x_c), float(y_c), float(w), float(h)),
                                    score=score))
        feat = np.concatenate([
            class_emb[int(cid)],
            [x_c / width, y_c / height, af, score],
        ]) + rng.normal(0.0, 0.05, size=cfg.visual_dim)
        visual.append([float(v) for v in feat])

    scene = SceneRecord(scene_id=scene_id, W=width, H=height,
                        detections=detections, region_visual=visual,
                        references=[], split=split)
    scene.references = gen_captions(scene, rng)
    return scene


def gen_dataset(cfg: DatasetConfig) -> list[SceneRecord]:
    """All scenes, deterministically, with per-scene derived seeds."""
    class_emb = _class_embeddings(cfg)
    scenes = []
    total = cfg.num_train + cfg.num_eval
    for i in range(total):
        if i < cfg.num_train:
            split = "train"
        else:
            split = "val" if (i - cfg.num_train) % 2 == 0 else "test"
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        scenes.append(gen_scene(rng, cfg, scene_id=f"s{i:05d}", split=split,
                                class_emb=class_emb))
    return scenes


@dataclass
class HeldoutSplits:
    captioner_train: list[SceneRecord]
    selector_train: list[SceneRecord]
    val: list[SceneRecord]
    test: list[SceneRecord]


def apply_heldout(scenes: list[SceneRecord], cfg: DatasetConfig,
                  synonyms: dict[str, list[str]]) -> HeldoutSplits:
    """Drop image-caption pairs mentioning a held-out class from training.

    Neither the captioner nor the selector trains on them. Validation and
    test keep everything, tagged in/out-domain downstream by their
    references.
    """
    train = [s for s in scenes if s.split == "train"]
    cap_train = [s for s in train if not mentions_any(
        [t for ref in s.references for t in ref], cfg.held_out, synonyms)]
    return HeldoutSplits(
        captioner_train=cap_train,
        selector_train=cap_train,
        val=[s for s in scenes if s.split == "val"],
        test=[s for s in scenes if s.split == "test"],
    )


def write_jsonl(path, rows) -> None:
    """One compact JSON object per line, e.g. ``SceneRecord.to_dict()`` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")))
            fh.write("\n")


def read_jsonl(path, cfg: DatasetConfig) -> list[SceneRecord]:
    """The scenes of a ``write_jsonl`` file; blank lines are skipped. Each
    record passes ``SceneRecord.from_dict``'s checks against ``cfg`` (its
    structure, region rows, class ids, image and boxes, references and
    split), or the read raises ValueError, KeyError, TypeError or
    OverflowError."""
    scenes = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                scenes.append(SceneRecord.from_dict(json.loads(line), cfg))
    return scenes
