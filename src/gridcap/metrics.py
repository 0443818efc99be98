"""Caption quality and novel-object mention metrics.

All functions score whitespace-tokenized, lowercased captions. The
consensus metric here is also the reinforcement reward during fine-tuning,
so there is exactly one implementation of it.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from .selector import mentions_any

MAX_N = 4  # CIDEr-D n-gram orders 1..MAX_N
CIDER_SIGMA = 6.0  # CIDEr-D length-penalty width


@dataclass
class EvalRecord:
    scene_id: str
    generated: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise ValueError(f"record {self.scene_id} has no references")


def ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


@dataclass
class IdfTable:
    """Document frequencies of 1..4-grams over a reference corpus.

    A document is one record's full reference set; an n-gram counts once
    per record it appears in.
    """

    df: dict[tuple, int]
    corpus_size: int

    @classmethod
    def from_references(cls, reference_sets: list[list[list[str]]]) -> "IdfTable":
        df: dict[tuple, int] = defaultdict(int)
        for refs in reference_sets:
            seen = set()
            for ref in refs:
                for n in range(1, MAX_N + 1):
                    seen.update(ngrams(ref, n).keys())
            for g in seen:
                df[g] += 1
        return cls(df=dict(df), corpus_size=len(reference_sets))

    def idf(self, gram: tuple) -> float:
        return math.log(self.corpus_size) - math.log(max(1.0, self.df.get(gram, 0)))


def _tfidf_vector(tokens, idf: IdfTable):
    """Per-order {ngram: tf*idf} maps and their squared norms."""
    vecs = []
    sq_norms = []
    for n in range(1, MAX_N + 1):
        vec = {g: tf * idf.idf(g) for g, tf in ngrams(tokens, n).items()}
        vecs.append(vec)
        sq_norms.append(sum(w * w for w in vec.values()))
    return vecs, sq_norms


@dataclass(frozen=True, eq=False)
class ReferenceVectors:
    """A reference set's per-order TF-IDF vectors, squared norms and
    lengths under one ``IdfTable``, built once so that every candidate of a
    beam is scored against the same vectors."""

    idf: IdfTable
    refs: list[tuple[list[dict], list[float], int]]

    @classmethod
    def build(cls, references: list[list[str]], idf: IdfTable) -> "ReferenceVectors":
        if not references:
            raise ValueError("cider_d needs at least one reference")
        return cls(idf, [(*_tfidf_vector(ref, idf), len(ref)) for ref in references])


def cider_d(candidate: list[str], references, idf: IdfTable) -> float:
    """Consensus score: clipped TF-IDF n-gram cosine with a length penalty.

    Candidate counts are clipped at the reference count before the dot
    product, similarities are penalized by exp(-(len_c - len_r)^2 / (2s^2))
    with s = CIDER_SIGMA, averaged over n-gram orders 1..MAX_N and
    references, and scaled by 10. ``references`` is a list of token lists,
    or their ``ReferenceVectors`` built with ``idf``.
    """
    if not candidate:
        return 0.0
    if not isinstance(references, ReferenceVectors):
        references = ReferenceVectors.build(references, idf)
    elif references.idf is not idf:
        raise ValueError("reference vectors were built with another IDF table")
    cand_vecs, cand_sq = _tfidf_vector(candidate, idf)
    total = [0.0] * MAX_N
    for ref_vecs, ref_sq, ref_len in references.refs:
        delta = float(len(candidate) - ref_len)
        penalty = math.exp(-(delta * delta) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
        for n in range(MAX_N):
            dot = 0.0
            for g, w in cand_vecs[n].items():
                rw = ref_vecs[n].get(g, 0.0)
                dot += min(w, rw) * rw
            if cand_sq[n] > 0 and ref_sq[n] > 0:
                dot /= math.sqrt(cand_sq[n] * ref_sq[n])
            total[n] += dot * penalty
    score = sum(total) / MAX_N / len(references.refs)
    return 10.0 * score


_BLEU_EPS = 1e-9


def bleu4(candidate: list[str], references: list[list[str]]) -> float:
    """Sentence BLEU with uniform 1..4-gram weights and brevity penalty.

    Smoothing: a zero clipped count contributes eps to the numerator, and
    an order with no candidate n-grams at all scores eps, so short or
    disjoint candidates get a small positive value that still grows with
    overlap.
    """
    if not candidate:
        return 0.0
    if not references:
        raise ValueError("bleu4 needs at least one reference")
    log_p = 0.0
    for n in range(1, 5):
        cand_counts = ngrams(candidate, n)
        denom = sum(cand_counts.values())
        if denom == 0:
            log_p += 0.25 * math.log(_BLEU_EPS)
            continue
        max_ref = Counter()
        for ref in references:
            for g, c in ngrams(ref, n).items():
                if c > max_ref[g]:
                    max_ref[g] = c
        clipped = sum(min(c, max_ref[g]) for g, c in cand_counts.items())
        log_p += 0.25 * math.log(max(clipped, _BLEU_EPS) / denom)
    c_len = len(candidate)
    r_len = min((abs(len(r) - c_len), len(r)) for r in references)[1]
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_p)


def f1_class(records: list[EvalRecord], class_word: str,
             synonyms: dict[str, list[str]]) -> float:
    """Image-level F1 for mentioning one class.

    A record is predicted positive when the generated caption contains the
    class word or a listed synonym, and actually positive when any
    reference does. Undefined precision/recall collapse to 0.
    """
    tp = fp = fn = 0
    for rec in records:
        pred = mentions_any(rec.generated, [class_word], synonyms)
        actual = any(mentions_any(ref, [class_word], synonyms) for ref in rec.references)
        if pred and actual:
            tp += 1
        elif pred:
            fp += 1
        elif actual:
            fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def eval_report(records: list[EvalRecord], held_out: list[str],
                synonyms: dict[str, list[str]]) -> dict:
    """Score a decoded test set, split by whether references mention a
    held-out class. F1 per held-out class is counted over all records."""
    idf = IdfTable.from_references([r.references for r in records])
    out_mask = [mentions_any([t for ref in r.references for t in ref],
                             held_out, synonyms) for r in records]

    def summarize(group: list[EvalRecord]) -> dict:
        if not group:
            return {"count": 0, "cider_d": 0.0, "bleu4": 0.0}
        c = sum(cider_d(r.generated, r.references, idf) for r in group) / len(group)
        b = sum(bleu4(r.generated, r.references) for r in group) / len(group)
        return {"count": len(group), "cider_d": c, "bleu4": b}

    in_dom = [r for r, o in zip(records, out_mask) if not o]
    out_dom = [r for r, o in zip(records, out_mask) if o]
    f1_per_class = {w: f1_class(records, w, synonyms) for w in held_out}
    report = {
        "num_records": len(records),
        "in_domain": summarize(in_dom),
        "out_domain": summarize(out_dom),
    }
    report["out_domain"]["f1_per_class"] = f1_per_class
    report["out_domain"]["f1_average"] = (
        sum(f1_per_class.values()) / len(f1_per_class) if f1_per_class else 0.0)
    return report
