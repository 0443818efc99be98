import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcap.captioner import Vocabulary, encode, frozen, init_captioner_params
from gridcap.captioner import CaptionerConfig, SceneStepModel
from gridcap.decoder import (MAX_CONSTRAINTS, ConstraintSet, Hypothesis,
                             InfeasibleConstraintsError, feasible_coverage,
                             run_grid_search, sequence_logprob)

from test_numerics import check_grads
from gridcap import numerics as nm


class TableLM:
    """Fixed per-position log-prob tables; eos is id 0, bos sits outside."""

    def __init__(self, table: np.ndarray):
        self.table = np.asarray(table, dtype=np.float64)
        self.vocab_size = self.table.shape[1]
        self.eos_id = 0
        self.bos_id = self.vocab_size  # never generated

    @classmethod
    def random(cls, rng, vocab_size: int, length: int) -> "TableLM":
        probs = rng.dirichlet(np.ones(vocab_size), size=length)
        return cls(np.log(probs))

    @classmethod
    def constant(cls, rng, vocab_size: int, length: int) -> "TableLM":
        probs = rng.dirichlet(np.ones(vocab_size))
        return cls(np.log(np.tile(probs, (length, 1))))

    def step(self, prefixes) -> np.ndarray:
        return self.table[[len(p) - 1 for p in prefixes]]


def exhaustive_best(lm: TableLM, T: int, constraint_ids=()):
    """Brute-force argmax over every finished sequence of at most T tokens."""
    need = set(constraint_ids)
    content_ids = [i for i in range(lm.vocab_size) if i != lm.eos_id]
    best = None
    for m in range(T):
        for content in itertools.product(content_ids, repeat=m):
            if not need <= set(content):
                continue
            seq = content + (lm.eos_id,)
            lp = sum(lm.table[t][tok] for t, tok in enumerate(seq))
            key = (-lp, seq)
            if best is None or key < best[0]:
                best = (key, seq, lp)
    return best[1], best[2]


def full_vocab_grid_search(lm, constraint_ids, k: int, T: int):
    """Reference grid search: one model call per parent, every parent
    expanded over the whole vocabulary. Returns (best, finished, trace)."""
    n = len(constraint_ids)
    cells = [[[] for _ in range(T)] for _ in range(n + 1)]
    finished, trace = [], []
    for t in range(T):
        window = feasible_coverage(t + 1, n, T)
        new_cells = {c: {} for c in window}
        parents = ([Hypothesis((), 0.0)] if t == 0 else
                   [h for c in feasible_coverage(t, n, T) for h in cells[c][t - 1]])
        for parent in parents:
            if parent.finished:
                continue
            lp = lm.step([(lm.bos_id,) + parent.tokens])[0]
            for tok in range(lm.vocab_size):
                met = parent.met
                if tok in constraint_ids and tok not in met:
                    met = met | {tok}
                h = Hypothesis(parent.tokens + (tok,),
                               parent.logprob + float(lp[tok]), met,
                               tok == lm.eos_id)
                bucket = new_cells.get(len(met))
                if bucket is not None and h.tokens not in bucket:
                    bucket[h.tokens] = h
        for c in window:
            kept = sorted(new_cells[c].values(), key=Hypothesis.sort_key)[:k]
            cells[c][t] = kept
            if c == n:
                finished.extend(h for h in kept if h.finished)
            trace.append({"t": t, "c": c, "hyps": [
                {"tokens": list(h.tokens), "logprob": h.logprob,
                 "finished": h.finished} for h in kept]})
    finished.sort(key=Hypothesis.sort_key)
    if finished:
        return finished[0], finished, trace
    for t in range(T - 1, -1, -1):
        open_hyps = [h for h in cells[n][t] if not h.finished]
        if open_hyps:
            return min(open_hyps, key=Hypothesis.sort_key), [], trace
    return None, [], trace


class CountingLM(TableLM):
    """A TableLM that records the batch size of every step call."""

    def __init__(self, table):
        super().__init__(table)
        self.batches = []

    def step(self, prefixes):
        self.batches.append(len(prefixes))
        return super().step(prefixes)


@st.composite
def search_case(draw):
    """A random TableLM, budget T, beam k in 1..V+2 and 0-2 constraint ids."""
    V = draw(st.integers(2, 6))
    T = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(1, V - 1), max_size=min(2, T - 1),
                        unique=True))
    k = draw(st.integers(1, V + 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return TableLM.random(np.random.default_rng(seed), V, T), T, tuple(ids), k


@st.composite
def lm_with_constraints(draw):
    """A random TableLM, its budget T, and 1-2 distinct non-eos constraint ids."""
    V = draw(st.integers(3, 5))
    T = draw(st.integers(2, 5))
    ids = draw(st.lists(st.integers(1, V - 1), min_size=1,
                        max_size=min(2, T - 1), unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return TableLM.random(np.random.default_rng(seed), V, T), T, tuple(ids)


class TestFeasibleCoverage:
    def test_bound_expressions(self):
        assert list(feasible_coverage(3, 2, 4)) == [1, 2]

    def test_no_constraints_pins_row_zero(self):
        for t in range(1, 6):
            assert list(feasible_coverage(t, 0, 5)) == [0]

    def test_first_token_may_be_a_constraint(self):
        assert 1 in feasible_coverage(1, 2, 5)

    def test_last_step_requires_full_coverage(self):
        assert list(feasible_coverage(5, 2, 5)) == [2]


class TestBeamSearch:
    def test_deterministic_lm_returns_its_sequence(self):
        # near-sure path: token 2, token 1, then eos
        big, small = np.log(0.97), np.log(0.01)
        table = np.full((3, 4), small)
        table[0, 2] = big
        table[1, 1] = big
        table[2, 0] = big
        hyp = run_grid_search(TableLM(table), ConstraintSet.empty(), k=2, T=3).best
        assert hyp.tokens == (2, 1, 0)
        assert hyp.finished

    def test_k_equals_vocab_matches_exhaustive_for_constant_lm(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            V = int(rng.integers(2, 6))
            T = int(rng.integers(1, 6))
            lm = TableLM.constant(rng, V, T)
            hyp = run_grid_search(lm, ConstraintSet.empty(), k=V, T=T).best
            tokens, lp = exhaustive_best(lm, T)
            assert hyp.tokens == tokens
            assert hyp.logprob == pytest.approx(lp, abs=1e-9)

    def test_saturation_width_matches_exhaustive(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            V = int(rng.integers(3, 6))
            T = int(rng.integers(2, 5))
            lm = TableLM.random(rng, V, T)
            hyp = run_grid_search(lm, ConstraintSet.empty(), k=V ** T, T=T).best
            tokens, lp = exhaustive_best(lm, T)
            assert hyp.tokens == tokens
            assert hyp.logprob == pytest.approx(lp, abs=1e-9)

    def test_returned_is_best_of_finished(self):
        rng = np.random.default_rng(32)
        lm = TableLM.random(rng, 5, 4)
        result = run_grid_search(lm, ConstraintSet.empty(), k=3, T=4)
        assert all(result.best.logprob >= h.logprob for h in result.finished)

    def test_no_finish_returns_flagged_unfinished(self):
        # eos is so unlikely it never survives a k=1 beam
        table = np.log(np.array([[1e-12, 0.5, 0.5]] * 3))
        hyp = run_grid_search(TableLM(table), ConstraintSet.empty(), k=1, T=3).best
        assert not hyp.finished
        assert len(hyp.tokens) == 3


class TestGridBeamSearch:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(lm_with_constraints())
    @example((TableLM.random(np.random.default_rng(34), 5, 5), 5, (3,)))
    def test_saturation_matches_constrained_exhaustive(self, case):
        lm, T, ids = case
        cs = ConstraintSet(words=tuple(f"w{i}" for i in ids), ids=ids)
        hyp = run_grid_search(lm, cs, k=lm.vocab_size ** T, T=T).best
        tokens, lp = exhaustive_best(lm, T, constraint_ids=ids)
        assert hyp.tokens == tokens
        assert hyp.logprob == pytest.approx(lp, abs=1e-9)
        assert set(ids) <= set(hyp.tokens)

    def test_constraint_always_satisfied(self):
        rng = np.random.default_rng(35)
        for trial in range(30):
            V = int(rng.integers(4, 6))
            T = int(rng.integers(3, 6))
            n = int(rng.integers(1, min(3, T)))
            ids = tuple(rng.choice(range(1, V), size=n, replace=False).tolist())
            lm = TableLM.random(rng, V, T)
            cs = ConstraintSet(words=tuple(f"w{i}" for i in ids), ids=ids)
            hyp = run_grid_search(lm, cs, k=4, T=T).best
            for cid in ids:
                assert cid in hyp.tokens
            assert hyp.met == frozenset(ids)

    def test_grid_cells_respect_feasibility_window(self):
        rng = np.random.default_rng(36)
        lm = TableLM.random(rng, 5, 5)
        cs = ConstraintSet(words=("w2", "w4"), ids=(2, 4))
        result = run_grid_search(lm, cs, k=3, T=5, trace=True)
        seen = {(row["t"], row["c"]) for row in result.trace if row["hyps"]}
        for t, c in seen:
            assert c in feasible_coverage(t + 1, 2, 5)

    def test_infeasible_constraint_count(self):
        lm = TableLM(np.log(np.full((3, 4), 0.25)))
        cs = ConstraintSet(words=("w1", "w2", "w3"), ids=(1, 2, 3))
        with pytest.raises(InfeasibleConstraintsError):
            run_grid_search(lm, cs, k=2, T=3)

    def test_wider_beam_never_scores_worse(self):
        rng = np.random.default_rng(37)
        for trial in range(15):
            V, T = 5, 5
            lm = TableLM.random(rng, V, T)
            cs = ConstraintSet(words=("w1",), ids=(1,))
            scores = []
            for k in (1, 2, 3, 5, 10, 40, V ** T):
                scores.append(run_grid_search(lm, cs, k=k, T=T).best.logprob)
            for a, b in zip(scores, scores[1:]):
                assert b >= a - 1e-12

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(search_case())
    def test_matches_full_vocabulary_expansion(self, case):
        lm, T, ids, k = case
        cs = ConstraintSet(words=tuple(f"w{i}" for i in ids), ids=ids)
        best, finished, trace = full_vocab_grid_search(lm, ids, k, T)
        result = run_grid_search(lm, cs, k=k, T=T, trace=True)
        assert result.best == best
        assert result.finished == finished
        assert result.trace == trace

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(search_case())
    def test_counters_and_expansion_bound(self, case):
        # one step call per column with a live parent, scoring all of them,
        # and each live parent offers at most k + (n - c) continuations
        lm, T, ids, k = case
        lm = CountingLM(lm.table)
        n = len(ids)
        cs = ConstraintSet(words=tuple(f"w{i}" for i in ids), ids=ids)
        result = run_grid_search(lm, cs, k=k, T=T, trace=True)
        live = {t: [] for t in range(T)}  # coverage of each live parent
        live[0].append(0)  # the root
        for row in result.trace:
            if row["t"] + 1 < T:
                live[row["t"] + 1] += [row["c"] for h in row["hyps"]
                                       if not h["finished"]]
        assert lm.batches == [len(cs) for cs in live.values() if cs]
        assert result.step_calls == len(lm.batches)
        assert result.offered <= sum(k + n - c for cs in live.values() for c in cs)
        assert result.offered == sum(min(k, lm.vocab_size - (n - c)) + n - c
                                     for cs in live.values() for c in cs)
        assert result.kept == sum(len(row["hyps"]) for row in result.trace)

    def test_determinism(self):
        rng = np.random.default_rng(38)
        lm = TableLM.random(rng, 5, 5)
        cs = ConstraintSet(words=("w2",), ids=(2,))
        runs = [run_grid_search(lm, cs, k=3, T=5).best for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_unfinished_fallback_still_covers_constraints(self):
        # eos never competitive: best hypothesis is unfinished but in row n
        table = np.log(np.array([[1e-12, 0.6, 0.3, 0.1 - 1e-12]] * 4))
        cs = ConstraintSet(words=("w2",), ids=(2,))
        hyp = run_grid_search(TableLM(table), cs, k=2, T=4).best
        assert not hyp.finished
        assert 2 in hyp.tokens


class TestConstraintSet:
    def test_duplicates_collapse(self):
        v = Vocabulary(["dog", "cat"])
        cs = ConstraintSet.from_words(["dog", "dog", "cat"], v)
        assert cs.words == ("dog", "cat")

    def test_reserved_rejected(self):
        v = Vocabulary(["dog"])
        with pytest.raises(ValueError):
            ConstraintSet.from_words(["<eos>"], v)

    def test_unknown_rejected(self):
        v = Vocabulary(["dog"])
        with pytest.raises(ValueError):
            ConstraintSet.from_words(["unicorn"], v)

    def test_cap_enforced(self):
        v = Vocabulary([f"w{i}" for i in range(9)])
        with pytest.raises(ValueError):
            ConstraintSet.from_words([f"w{i}" for i in range(MAX_CONSTRAINTS + 1)], v)


class TestSequenceLogprob:
    @pytest.fixture
    def model(self):
        cfg = CaptionerConfig(vocab=Vocabulary(["red", "dog", "runs", "cat"]),
                              d_model=8, num_enc_layers=1, num_dec_layers=1,
                              num_heads=2, num_memory=2, embed_dim=4,
                              ffn_dim=12, max_len=8, visual_dim=3)
        params = init_captioner_params(cfg, np.random.default_rng(40))
        regions = np.random.default_rng(41).normal(size=(3, 3))
        return cfg, params, regions

    def test_no_forced_equals_plain_likelihood(self, model):
        cfg, params, regions = model
        froz = frozen(params)
        enc = encode(regions, cfg, froz)
        sm = SceneStepModel(enc, cfg, froz)
        v = cfg.vocab
        tokens = v.encode(["red", "dog"]) + [v.eos_id]
        manual = sum(float(sm.step([(v.bos_id,) + tuple(tokens[:i])])[0, tokens[i]])
                     for i in range(len(tokens)))
        got = sequence_logprob(tokens, sm).item()
        assert got == pytest.approx(manual, abs=1e-9)

    def test_matches_search_hypothesis_score(self, model):
        cfg, params, regions = model
        froz = frozen(params)
        enc = encode(regions, cfg, froz)
        sm = SceneStepModel(enc, cfg, froz)
        cs = ConstraintSet.from_words(["dog"], cfg.vocab)
        hyp = run_grid_search(sm, cs, k=3, T=cfg.max_len - 1).best
        assert hyp.finished
        recomputed = sequence_logprob(hyp.tokens, sm).item()
        assert recomputed == pytest.approx(hyp.logprob, abs=1e-9)

    def test_gradient_matches_finite_differences(self, model):
        cfg, params, regions = model
        v = cfg.vocab
        tokens = tuple(v.encode(["red", "dog", "runs"])) + (v.eos_id,)
        subset = [params["embed.E"], params["dec0.cross.wv"],
                  params["enc0.mem.v"]]

        def loss():
            enc = encode(regions, cfg, params)
            sm = SceneStepModel(enc, cfg, params)
            return sequence_logprob(tokens, sm)

        check_grads(loss, subset, 1e-4)
