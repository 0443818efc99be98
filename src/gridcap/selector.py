"""Class-independent region selector.

Scores each detected region for "must this object be mentioned in the
caption", using only geometry and detector confidence, never the class
identity itself. Class ids drive one thing only: the block mask used by
the inner-attention operator, which lets regions of the same class exchange
information before the fully connected self-attention pass.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .decoder import MAX_CONSTRAINTS
from .numerics import Tensor

log = logging.getLogger(__name__)

BCE_LAMBDA0, BCE_LAMBDA1 = 0.2, 0.8  # weighted-BCE weights of negatives, positives
SELECT_THRESHOLD = 0.5  # a class word is selected when a region scores this high


@dataclass
class Detection:
    """One detected box: center-based geometry in pixels plus confidence."""

    class_id: int
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
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")


def extract_features(d: Detection, width: float, height: float) -> np.ndarray:
    """6-vector (x_c/W, y_c/H, w/W, h/H, area fraction, confidence).

    The area fraction is computed as the product of the two normalized box
    sides so it equals components 3 x 4 exactly, not merely to rounding.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"image dimensions must be positive, got {width}x{height}")
    x_c, y_c, w, h = d.box
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


def inner_attention(x: Tensor, classes, wq: Tensor, wk: Tensor, wv: Tensor,
                    num_heads: int = 1) -> Tensor:
    """Attention restricted to regions of one class.

    One attention pass under the mask ``class_i != class_j``: blocked
    weights underflow to exactly 0, so a row never reads another class's
    values, and a region always sees itself, so no row is fully masked.
    Output order matches input order.
    """
    if x.shape[0] == 0:  # softmax over an empty key axis raises
        return Tensor(np.zeros((0, x.shape[1])))
    classes = np.asarray(classes)
    return nm.multi_head_attention(
        nm.matmul(x, wq), nm.matmul(x, wk), nm.matmul(x, wv), num_heads,
        mask=classes[:, None] != classes[None, :])


def self_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                   num_heads: int = 1) -> Tensor:
    """Full attention over all regions, no class restriction."""
    return nm.multi_head_attention(
        nm.matmul(x, wq), nm.matmul(x, wk), nm.matmul(x, wv), num_heads)


def init_selector_params(cfg: SelectorConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    d, f = cfg.embed_dim, cfg.ffn_dim

    def mat(rows, cols):
        scale = (2.0 / (rows + cols)) ** 0.5
        return Tensor(rng.normal(0.0, scale, size=(rows, cols)), requires_grad=True)

    params: dict[str, Tensor] = {
        "input.w": mat(6, d),
        "input.b": Tensor(np.zeros(d), requires_grad=True),
    }
    for i in range(cfg.num_layers):
        for block in ("inner", "self"):
            pre = f"layer{i}.{block}"
            params[f"{pre}.ln_gain"] = Tensor(np.ones(d), requires_grad=True)
            params[f"{pre}.ln_bias"] = Tensor(np.zeros(d), requires_grad=True)
            for w in ("wq", "wk", "wv"):
                params[f"{pre}.{w}"] = mat(d, d)
        pre = f"layer{i}.ffn"
        params[f"{pre}.ln_gain"] = Tensor(np.ones(d), requires_grad=True)
        params[f"{pre}.ln_bias"] = Tensor(np.zeros(d), requires_grad=True)
        params[f"{pre}.w1"] = mat(d, f)
        params[f"{pre}.b1"] = Tensor(np.zeros(f), requires_grad=True)
        params[f"{pre}.w2"] = mat(f, d)
        params[f"{pre}.b2"] = Tensor(np.zeros(d), requires_grad=True)
    params["final.ln_gain"] = Tensor(np.ones(d), requires_grad=True)
    params["final.ln_bias"] = Tensor(np.zeros(d), requires_grad=True)
    params["head.w"] = mat(d, 1)
    params["head.b"] = Tensor(np.zeros(1), requires_grad=True)
    return params


def selector_forward(features: Tensor | np.ndarray, classes, cfg: SelectorConfig,
                     params: dict[str, Tensor]) -> Tensor:
    """Per-region selection scores in (0, 1), aligned with the input rows.

    Pipeline: input projection, then num_layers blocks of inner attention,
    self attention, and feed-forward, each as a pre-norm residual sub-block,
    then a final norm and a sigmoid scoring head.
    """
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.shape[0] > cfg.max_proposals:
        raise ValueError(f"{x.shape[0]} regions exceed max_proposals={cfg.max_proposals}")
    x = nm.linear(x, params["input.w"], params["input.b"])
    for i in range(cfg.num_layers):
        pre = f"layer{i}.inner"
        h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
        x = nm.add(x, inner_attention(h, classes, params[f"{pre}.wq"],
                                      params[f"{pre}.wk"], params[f"{pre}.wv"],
                                      cfg.num_heads))
        pre = f"layer{i}.self"
        h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
        x = nm.add(x, self_attention(h, params[f"{pre}.wq"], params[f"{pre}.wk"],
                                     params[f"{pre}.wv"], cfg.num_heads))
        pre = f"layer{i}.ffn"
        h = nm.layer_norm(x, params[f"{pre}.ln_gain"], params[f"{pre}.ln_bias"])
        h = nm.linear(nm.relu(nm.linear(h, params[f"{pre}.w1"], params[f"{pre}.b1"])),
                      params[f"{pre}.w2"], params[f"{pre}.b2"])
        x = nm.add(x, h)
    x = nm.layer_norm(x, params["final.ln_gain"], params["final.ln_bias"])
    logits = nm.linear(x, params["head.w"], params["head.b"])
    return nm.reshape(nm.sigmoid(logits), (x.shape[0],))


_BCE_EPS = 1e-12


def weighted_bce(scores: Tensor, targets, lambda0: float, lambda1: float) -> Tensor:
    """Mean of -[l1*t*log y + l0*(1-t)*log(1-y)] over regions.

    Scores landing exactly on 0 or 1 (sigmoid saturation) are clamped to
    [eps, 1-eps]; that is logged, not fatal.
    """
    t = np.asarray(targets, dtype=np.float64)
    if scores.data.shape != t.shape:
        raise ValueError(f"scores {scores.data.shape} vs targets {t.shape}")
    if np.any((scores.data <= 0.0) | (scores.data >= 1.0)):
        log.warning("clamping saturated selection scores before BCE")
    y = nm.clip(scores, _BCE_EPS, 1.0 - _BCE_EPS)
    pos = nm.mul(Tensor(lambda1 * t), nm.log(y))
    neg = nm.mul(Tensor(lambda0 * (1.0 - t)), nm.log(nm.add(nm.neg(y), 1.0)))
    return nm.neg(nm.tmean(nm.add(pos, neg)))


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


def select_constraints(scores, detections: list[Detection]) -> list[str]:
    """Class words whose best region clears the threshold.

    Deduplicated by word, ordered by max region score descending (word
    order breaks ties), truncated to the constraint cap. An empty list is
    valid and means unconstrained decoding.
    """
    values = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    if len(values) != len(detections):
        raise ValueError("scores and detections are misaligned")
    best: dict[str, float] = {}
    for y, det in zip(values, detections):
        word = det.class_word.lower()
        if y >= SELECT_THRESHOLD and y > best.get(word, -1.0):
            best[word] = float(y)
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return [word for word, _ in ranked[:MAX_CONSTRAINTS]]


def load_synonyms(path) -> dict[str, list[str]]:
    """JSON object mapping class word -> accepted surface forms."""
    with open(path, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    if not isinstance(table, dict):
        raise ValueError(f"synonym table {path} must be a JSON object")
    return {str(k): [str(v) for v in vs] for k, vs in table.items()}


def save_synonyms(path, table: dict[str, list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
