import math
from collections import Counter

import numpy as np
import pytest

from gridcap.metrics import (EvalRecord, IdfTable, ReferenceVectors, bleu4,
                             cider_d, eval_report, f1_class, ngrams)

CORPUS = [
    [["a", "red", "dog", "runs", "fast"]],
    [["the", "cat", "sits", "on", "a", "mat"]],
    [["a", "blue", "bird", "flies", "high"]],
    [["the", "dog", "barks", "at", "a", "cat"], ["a", "dog", "barks"]],
    [["a", "small", "fish", "swims"]],
]


def oracle_cider_d(candidate, references, corpus, sigma=6.0):
    """Line-by-line recomputation with its own idf and cosine arithmetic."""
    N = len(corpus)
    df = Counter()
    for refs in corpus:
        grams = set()
        for ref in refs:
            for n in range(1, 5):
                for i in range(len(ref) - n + 1):
                    grams.add(tuple(ref[i:i + n]))
        df.update(grams)

    def vec(tokens, n):
        counts = Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
        return {g: c * math.log(N / max(1.0, df[g])) for g, c in counts.items()}

    per_ref = []
    for ref in references:
        sims = []
        for n in range(1, 5):
            vc, vr = vec(candidate, n), vec(ref, n)
            dot = sum(min(vc[g], vr.get(g, 0.0)) * vr.get(g, 0.0) for g in vc)
            nc = math.sqrt(sum(w * w for w in vc.values()))
            nr = math.sqrt(sum(w * w for w in vr.values()))
            sims.append(dot / (nc * nr) if nc > 0 and nr > 0 else 0.0)
        pen = math.exp(-((len(candidate) - len(ref)) ** 2) / (2 * sigma ** 2))
        per_ref.append(pen * sum(sims) / 4.0)
    return 10.0 * sum(per_ref) / len(references)


class TestIdfTable:
    def test_document_frequencies(self):
        idf = IdfTable.from_references(CORPUS)
        assert idf.corpus_size == 5
        assert idf.df[("a",)] == 5  # appears in every record
        assert idf.df[("dog",)] == 2
        assert idf.df[("red", "dog")] == 1
        assert all(v >= 1 for v in idf.df.values())

    def test_unseen_gram_gets_max_idf(self):
        idf = IdfTable.from_references(CORPUS)
        assert idf.idf(("unicorn",)) == pytest.approx(math.log(5), rel=1e-12)


class TestCiderD:
    def test_identical_pair_scores_exactly_ten(self):
        idf = IdfTable.from_references(CORPUS)
        cand = ["a", "red", "dog", "runs", "fast"]
        assert cider_d(cand, [cand], idf) == 10.0

    def test_disjoint_candidate_scores_zero(self):
        idf = IdfTable.from_references(CORPUS)
        assert cider_d(["zebra", "stripes"], CORPUS[0], idf) == 0.0

    def test_empty_candidate_scores_zero(self):
        idf = IdfTable.from_references(CORPUS)
        assert cider_d([], CORPUS[0], idf) == 0.0

    def test_matches_independent_hand_computation(self):
        idf = IdfTable.from_references(CORPUS)
        cand = ["a", "dog", "barks", "fast"]
        refs = CORPUS[3]
        got = cider_d(cand, refs, idf)
        expected = oracle_cider_d(cand, refs, CORPUS)
        assert got == pytest.approx(expected, abs=1e-9)
        # frozen value from the oracle above
        assert got == pytest.approx(3.7097392396119773, abs=1e-9)

    def test_partial_overlap_between_zero_and_ten(self):
        idf = IdfTable.from_references(CORPUS)
        cand = ["a", "red", "dog", "sits"]
        score = cider_d(cand, CORPUS[0], idf)
        assert 0.0 < score < 10.0

    def test_reference_order_invariance(self):
        idf = IdfTable.from_references(CORPUS)
        cand = ["a", "dog", "barks"]
        refs = CORPUS[3]
        assert cider_d(cand, refs, idf) == cider_d(cand, refs[::-1], idf)

    def test_vocabulary_relabeling_invariance(self):
        mapping = {}

        def rename(tok):
            return mapping.setdefault(tok, f"tok{len(mapping)}")

        idf = IdfTable.from_references(CORPUS)
        cand = ["a", "dog", "barks", "fast"]
        base = cider_d(cand, CORPUS[3], idf)
        corpus2 = [[[rename(t) for t in ref] for ref in refs] for refs in CORPUS]
        cand2 = [mapping[t] for t in cand]
        idf2 = IdfTable.from_references(corpus2)
        refs2 = corpus2[3]
        assert cider_d(cand2, refs2, idf2) == pytest.approx(base, abs=1e-12)

    def test_reference_vectors_score_exactly_as_the_references(self):
        idf = IdfTable.from_references(CORPUS)
        refs = CORPUS[3]
        vectors = ReferenceVectors.build(refs, idf)
        for cand in (["a", "dog", "barks", "fast"], ["the", "cat"], ["zebra"], []):
            assert cider_d(cand, vectors, idf) == cider_d(cand, refs, idf)

    def test_reference_vectors_need_references_and_their_own_idf(self):
        idf = IdfTable.from_references(CORPUS)
        with pytest.raises(ValueError, match="at least one reference"):
            ReferenceVectors.build([], idf)
        vectors = ReferenceVectors.build(CORPUS[0], idf)
        with pytest.raises(ValueError, match="another IDF table"):
            cider_d(["a", "dog"], vectors, IdfTable.from_references(CORPUS))


class TestBleu4:
    def test_identical_pair_scores_one(self):
        cand = ["a", "red", "dog", "runs", "fast"]
        assert bleu4(cand, [cand]) == 1.0

    def test_manual_clipped_precisions(self):
        # p1=4/5, p2=3/4, p3=2/3, p4=1/2, equal lengths so no brevity penalty
        got = bleu4(["a", "b", "c", "d", "e"], [["a", "b", "c", "d", "f"]])
        assert got == pytest.approx((4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25,
                                    abs=1e-12)

    def test_manual_with_zero_fourgram_smoothing(self):
        # p4 has no match and falls back to eps / 1
        got = bleu4(["a", "b", "c", "d"], [["a", "b", "c", "e"]])
        expected = (3 / 4 * 2 / 3 * 1 / 2 * 1e-9) ** 0.25
        assert got == pytest.approx(expected, rel=1e-9)

    def test_brevity_penalty(self):
        got = bleu4(["a", "b", "c", "d"], [["a", "b", "c", "d", "e", "f"]])
        assert got == pytest.approx(math.exp(1 - 6 / 4) * 1.0, rel=1e-9)

    def test_short_candidate_smoothing_monotone_in_overlap(self):
        ref = [["a", "red", "dog"]]
        low = bleu4(["a", "cat"], ref)
        high = bleu4(["a", "red"], ref)
        assert 0.0 < low < high < 1.0

    def test_clipping_counts_repeats_once(self):
        # "the the the" may only claim as many "the" as the reference has
        got = bleu4(["the", "the", "the"], [["the", "cat"]])
        assert got < 0.1

    def test_reference_order_invariance(self):
        cand = ["a", "dog", "barks"]
        refs = [["a", "dog", "barks", "loud"], ["the", "dog", "barks"]]
        assert bleu4(cand, refs) == bleu4(cand, refs[::-1])


def labeled_records():
    """20 records with every mention pattern; generated/reference mentions
    of "dog" (synonym "dogs") vary independently."""
    recs = []
    patterns = [(True, True)] * 6 + [(True, False)] * 4 + \
               [(False, True)] * 5 + [(False, False)] * 5
    for i, (gen_has, ref_has) in enumerate(patterns):
        gen = ["a", "dog" if i % 2 == 0 else "dogs", "runs"] if gen_has \
            else ["a", "cat", "sits"]
        ref = [["the", "dog", "barks"]] if ref_has else [["a", "bird", "flies"]]
        recs.append(EvalRecord(scene_id=f"r{i}", generated=gen, references=ref))
    return recs


class TestF1:
    def test_perfect_generation(self):
        recs = [EvalRecord("a", ["a", "dog"], [["a", "dog"]]),
                EvalRecord("b", ["no", "mention"], [["no", "mention"]])]
        assert f1_class(recs, "dog", {}) == 1.0

    def test_never_mentioned_scores_zero(self):
        recs = [EvalRecord("a", ["a", "cat"], [["a", "dog"]])]
        assert f1_class(recs, "dog", {}) == 0.0

    def test_matches_brute_force_counter(self):
        recs = labeled_records()
        synonyms = {"dog": ["dogs"]}
        got = f1_class(recs, "dog", synonyms)
        # independent count: the confusion-matrix form 2tp/(2tp+fp+fn)
        tp = fp = fn = 0
        for r in recs:
            forms = {"dog", "dogs"}
            g = any(t in forms for t in r.generated)
            a = any(t in forms for ref in r.references for t in ref)
            tp += g and a
            fp += g and not a
            fn += a and not g
        expected = 2 * tp / (2 * tp + fp + fn)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(2 * 6 / (2 * 6 + 4 + 5), abs=1e-12)

    def test_f1_bounded_by_twice_precision_and_recall(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            recs = []
            for i in range(12):
                g = ["dog"] if rng.random() < 0.5 else ["cat"]
                a = [["dog"]] if rng.random() < 0.5 else [["cat"]]
                recs.append(EvalRecord(f"r{i}", g, a))
            f1 = f1_class(recs, "dog", {})
            assert 0.0 <= f1 <= 1.0


class TestEvalReport:
    def test_shape_and_domain_split(self):
        synonyms = {"zebra": ["zebras"]}
        recs = [
            EvalRecord("a", ["a", "zebra"], [["a", "zebra", "grazes"]]),
            EvalRecord("b", ["a", "cat"], [["a", "cat", "sits"]]),
        ]
        report = eval_report(recs, ["zebra"], synonyms)
        assert report["num_records"] == 2
        assert report["in_domain"]["count"] == 1
        assert report["out_domain"]["count"] == 1
        assert set(report["out_domain"]["f1_per_class"]) == {"zebra"}
        assert report["out_domain"]["f1_average"] == 1.0
