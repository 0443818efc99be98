"""Class-independent region selector.

Scores each detected region for "must this object be mentioned in the
caption", using only geometry and detector confidence, never the class
identity itself. Class words drive one thing only: the block mask that
lets regions of the same class and scene exchange information before the
self-attention pass over the scene. Like the encoder, a minibatch packs
its scenes as stacked rows, and one scene is the one-segment case.

Each layer's sub-blocks are the captioner's: its inner and self attention
are ``captioner._attention`` with no output projection, one
``numerics.attention_block`` each, and its feed-forward block is
``captioner.ffn``, one ``numerics.ffn_block``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .captioner import (_attention, ffn, init_ffn, init_layer_norm, init_matrix,
                        init_vector)
from .decoder import MAX_CONSTRAINTS
from .numerics import Tensor, check_at_least

log = logging.getLogger(__name__)

BCE_LAMBDA0, BCE_LAMBDA1 = 0.2, 0.8  # weighted-BCE weights of negatives, positives
SELECT_THRESHOLD = 0.5  # a class word is selected when a region scores this high


@dataclass
class Detection:
    """One detected box: its class word, center-based box in pixels, confidence."""

    class_word: str
    box: tuple[float, float, float, float]  # (x_c, y_c, w, h)
    score: float


@dataclass
class SelectorConfig:
    embed_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int = 128
    max_proposals: int = 10

    def __post_init__(self):
        check_at_least(self, embed_dim=1, num_layers=0, num_heads=1, ffn_dim=1,
                       max_proposals=1)
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")


def extract_features(d: Detection, width: float, height: float) -> np.ndarray:
    """6-vector (x_c/W, y_c/H, w/W, h/H, area fraction, confidence).

    The area fraction is computed as the product of the two normalized box
    sides so it equals components 3 x 4 exactly, not merely to rounding.
    A non-finite image size or box value raises ``ValueError``.
    """
    x_c, y_c, w, h = d.box
    if not all(map(math.isfinite, (width, height, x_c, y_c, w, h))):
        raise ValueError(f"non-finite image size {width}x{height} or box {d.box}")
    if width <= 0 or height <= 0:
        raise ValueError(f"image dimensions must be positive, got {width}x{height}")
    if w <= 0 or h <= 0:
        raise ValueError(f"degenerate box size {w}x{h}")
    if not (0.0 <= d.score <= 1.0):
        raise ValueError(f"confidence {d.score} outside [0, 1]")
    tol = 1e-9
    if (x_c - w / 2 < -tol or x_c + w / 2 > width + tol
            or y_c - h / 2 < -tol or y_c + h / 2 > height + tol):
        raise ValueError(f"box {d.box} exceeds image bounds {width}x{height}")
    nw = w / width
    nh = h / height
    return np.array([x_c / width, y_c / height, nw, nh, nw * nh, d.score])


def init_selector_params(cfg: SelectorConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    d = cfg.embed_dim
    params = {"input.w": init_matrix(rng, 6, d), "input.b": init_vector(d)}
    for i in range(cfg.num_layers):
        for block in ("inner", "self"):
            pre = f"layer{i}.{block}"
            params |= init_layer_norm(pre, d)
            for w in ("wq", "wk", "wv"):
                params[f"{pre}.{w}"] = init_matrix(rng, d, d)
        params |= init_ffn(rng, f"layer{i}.ffn", d, cfg.ffn_dim)
    params |= init_layer_norm("final", d)
    params["head.w"] = init_matrix(rng, d, 1)
    params["head.b"] = init_vector(1)
    return params


def selector_forward(features: Tensor | np.ndarray, classes, cfg: SelectorConfig,
                     params: dict[str, Tensor], segments=None) -> Tensor:
    """Per-region selection scores in (0, 1), aligned with the input rows,
    on the parameters' op set (``numerics.op_set``): parameter arrays give
    an array, tensors a taped result.

    Pipeline: input projection, then num_layers blocks of inner attention,
    self attention, and feed-forward, each as a pre-norm residual sub-block,
    then a final norm and a sigmoid scoring head. ``classes`` (n,) holds each
    row's class word and ``segments`` (n,) its scene (default: one). Inner
    attention blocks other scenes and words, self attention other scenes; a
    region always sees itself.
    """
    x = features if isinstance(features, Tensor) else np.asarray(features, np.float64)
    n = x.shape[0]
    seg = np.zeros(n, dtype=np.intp) if segments is None else np.asarray(segments)
    classes = np.asarray(classes)
    if n < 1 or seg.shape != (n,) or classes.shape != (n,):
        raise ValueError(f"{n} regions, segments {seg.shape}, classes {classes.shape}")
    if (most := np.unique(seg, return_counts=True)[1].max()) > cfg.max_proposals:
        raise ValueError(f"{most} regions exceed max_proposals={cfg.max_proposals}")
    other_scene = seg[None, :, None] != seg[None, None, :]  # one (1, n, n) block
    masks = {"inner": other_scene | (classes[:, None] != classes[None, :]),
             "self": other_scene}
    ops = nm.op_set(params)
    x = ops.linear(ops.reshape(x, (1,) + x.shape), params["input.w"], params["input.b"])
    for i in range(cfg.num_layers):
        for block, mask in masks.items():
            x = _attention(x, params, f"layer{i}.{block}", cfg.num_heads, mask)
        x = ffn(x, params, f"layer{i}.ffn")
    x = ops.layer_norm(x, params["final.ln_gain"], params["final.ln_bias"])
    logits = ops.linear(x, params["head.w"], params["head.b"])
    return ops.reshape(ops.sigmoid(logits), (n,))


_BCE_EPS = 1e-12


def weighted_bce(scores: Tensor, targets, lambda0: float, lambda1: float,
                 segments=None) -> Tensor:
    """Mean over scenes (``segments`` as for ``selector_forward``) of each
    scene's mean of -[l1*t*log y + l0*(1-t)*log(1-y)] over its regions.

    Scores landing exactly on 0 or 1 (sigmoid saturation) are clamped to
    [eps, 1-eps]; that is logged, not fatal.
    """
    t = np.asarray(targets, dtype=np.float64)
    seg = np.zeros(t.shape, dtype=np.intp) if segments is None else np.asarray(segments)
    if not scores.data.shape == t.shape == seg.shape:
        raise ValueError(f"scores {scores.data.shape}, targets {t.shape}, "
                         f"segments {seg.shape}")
    _, scene, sizes = np.unique(seg, return_inverse=True, return_counts=True)
    w = 1.0 / (sizes[scene] * len(sizes))
    if np.any((scores.data <= 0.0) | (scores.data >= 1.0)):
        log.warning("clamping saturated selection scores before BCE")
    y = nm.clip(scores, _BCE_EPS, 1.0 - _BCE_EPS)
    pos = nm.mul(Tensor(lambda1 * t * w), nm.log(y))
    neg = nm.mul(Tensor(lambda0 * (1.0 - t) * w), nm.log(nm.add(nm.neg(y), 1.0)))
    return nm.neg(nm.tsum(nm.add(pos, neg)))


def surface_forms(word: str, synonyms: dict[str, list[str]]) -> set[str]:
    """The word plus its listed synonyms/plurals, lowercased."""
    forms = {word.lower()}
    forms.update(s.lower() for s in synonyms.get(word, ()))
    return forms


def mentions_any(tokens: list[str], words, synonyms: dict[str, list[str]]) -> bool:
    """Whether any token is a surface form of any of the words, ignoring case."""
    toks = {t.lower() for t in tokens}
    return any(surface_forms(w, synonyms) & toks for w in words)


def build_ground_truth(scene, synonyms: dict[str, list[str]]) -> np.ndarray:
    """Binary selection target per region of a scene.

    A region is positive when its class word, or any listed synonym or
    plural form, occurs as a token in at least one reference caption.
    Matching is case-insensitive and exact-token.
    """
    if not scene.references:
        raise ValueError(f"scene {scene.scene_id} has no reference captions")
    tokens = [tok for ref in scene.references for tok in ref]
    return np.array([float(mentions_any(tokens, [det.class_word], synonyms))
                     for det in scene.detections])


def rank_class_words(detections: list[Detection], scores) -> list[str]:
    """Distinct lowercase class words of ``detections``, ordered by their best
    score descending (word order breaks ties), capped at MAX_CONSTRAINTS."""
    best: dict[str, float] = {}
    for det, y in zip(detections, scores):
        word = det.class_word.lower()
        best[word] = max(y, best.get(word, y))
    return sorted(best, key=lambda w: (-best[w], w))[:MAX_CONSTRAINTS]


def select_constraints(scores, detections: list[Detection]) -> list[str]:
    """Ranked class words of the regions that clear the threshold.

    An empty list is valid and means unconstrained decoding.
    """
    values = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    if len(values) != len(detections):
        raise ValueError("scores and detections are misaligned")
    keep = values >= SELECT_THRESHOLD
    return rank_class_words([d for d, k in zip(detections, keep) if k], values[keep])


def load_synonyms(path) -> dict[str, list[str]]:
    """JSON object mapping class word -> list of accepted surface forms."""
    with open(path, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    if not isinstance(table, dict):
        raise ValueError(f"synonym table {path} must be a JSON object")
    for word, forms in table.items():
        if not (isinstance(forms, list) and all(isinstance(f, str) for f in forms)):
            raise ValueError(f"synonym table {path} maps {word!r} to {forms!r}, "
                             f"not a list of strings")
    return table
