import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcap.captioner import Vocabulary, encode, init_captioner_params
from gridcap.captioner import CaptionerConfig, SceneStepModel
from gridcap.decoder import (MAX_CONSTRAINTS, ConstraintSet, Hypothesis,
                             InfeasibleConstraintsError, feasible_coverage,
                             run_grid_search, sequence_logprob)

from test_captioner import chain_logprobs
from test_numerics import check_grads
from gridcap import numerics as nm
from gridcap.numerics import Tensor


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


class PrefixLM:
    """Each prefix's row comes from a generator seeded by (seed, length, the
    whole BOS-led prefix), so the parents of one column get different rows;
    eos is id 0, bos sits outside. The tied variant draws every entry from two
    log-probs, so sums stay exact and hypotheses often tie."""

    def __init__(self, seed: int, vocab_size: int, tied: bool = False):
        self.seed, self.vocab_size, self.tied = seed, vocab_size, tied
        self.eos_id = 0
        self.bos_id = vocab_size  # never generated

    def row(self, prefix) -> np.ndarray:
        rng = np.random.default_rng([self.seed, len(prefix), *prefix])
        if self.tied:
            return rng.choice([-1.0, -2.0], size=self.vocab_size)
        return np.log(rng.dirichlet(np.ones(self.vocab_size)))

    def step(self, prefixes) -> np.ndarray:
        return np.array([self.row(p) for p in prefixes])


def prefix_lm(seed, V, T):
    return PrefixLM(seed, V)


def tied_prefix_lm(seed, V, T):
    return PrefixLM(seed, V, tied=True)


def exhaustive_best(lm, T: int, constraint_ids=()):
    """Brute-force argmax over every finished sequence of at most T tokens,
    each token scored by one ``lm.step`` call on its prefix."""
    need = set(constraint_ids)
    content_ids = [i for i in range(lm.vocab_size) if i != lm.eos_id]
    best = None
    for m in range(T):
        for content in itertools.product(content_ids, repeat=m):
            if not need <= set(content):
                continue
            seq = content + (lm.eos_id,)
            lp = sum(lm.step([(lm.bos_id,) + seq[:t]])[0][tok]
                     for t, tok in enumerate(seq))
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
                h = Hypothesis(parent.tokens + (tok,),
                               parent.logprob + float(lp[tok]), tok == lm.eos_id)
                bucket = new_cells.get(len(set(constraint_ids) & set(h.tokens)))
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


def stop_column(trace, n: int, k: int, T: int) -> int:
    """The first column of a full-length ``trace`` after which no hypothesis
    is live, or the k-th best finished full-coverage log-prob so far is
    above every live one; T - 1 when no column qualifies."""
    finished = []
    for t in range(T):
        rows = [row for row in trace if row["t"] == t]
        finished += [h["logprob"] for row in rows if row["c"] == n
                     for h in row["hyps"] if h["finished"]]
        live = [h["logprob"] for row in rows for h in row["hyps"]
                if not h["finished"]]
        top = sorted(finished, reverse=True)[:k]
        if not live or (len(top) == k and top[-1] > max(live)):
            return t
    return T - 1


def live_coverage(trace) -> dict:
    """Coverage of each live parent, by the column that expands it, for the
    columns ``trace`` ran."""
    last = trace[-1]["t"]
    live = {t: [] for t in range(last + 1)}
    live[0].append(0)  # the root
    for row in trace:
        if row["t"] < last:
            live[row["t"] + 1] += [row["c"] for h in row["hyps"]
                                   if not h["finished"]]
    return live


class CountingLM:
    """A model that records the batch size of every step call of ``lm``."""

    def __init__(self, lm):
        self.lm, self.batches = lm, []
        self.vocab_size, self.eos_id, self.bos_id = lm.vocab_size, lm.eos_id, lm.bos_id

    def step(self, prefixes):
        self.batches.append(len(prefixes))
        return self.lm.step(prefixes)


def table_lm(seed, V, T):
    return TableLM.random(np.random.default_rng(seed), V, T)


@st.composite
def search_case(draw, lm_of=table_lm):
    """A random model ``lm_of(seed, V, T)`` (a TableLM by default), budget
    T, beam k in 1..V+2 and 0-2 constraint ids."""
    V = draw(st.integers(2, 6))
    T = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(1, V - 1), max_size=min(2, T - 1),
                        unique=True))
    k = draw(st.integers(1, V + 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return lm_of(seed, V, T), T, tuple(ids), k


@st.composite
def tied_search_case(draw):
    """Like ``search_case``, but every table entry is one of two log-probs,
    so hypotheses of one cell often tie on score (sums stay exact)."""
    V = draw(st.integers(2, 6))
    T = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(1, V - 1), max_size=min(2, T - 1),
                        unique=True))
    k = draw(st.integers(1, V + 2))
    table = draw(st.lists(st.sampled_from((-1.0, -2.0)), min_size=T * V,
                          max_size=T * V))
    return TableLM(np.reshape(table, (T, V))), T, tuple(ids), k


@st.composite
def lm_with_constraints(draw, lm_of=table_lm):
    """A random model ``lm_of(seed, V, T)`` (a TableLM by default), its
    budget T, and 1-2 distinct non-eos constraint ids."""
    V = draw(st.integers(3, 5))
    T = draw(st.integers(2, 5))
    ids = draw(st.lists(st.integers(1, V - 1), min_size=1,
                        max_size=min(2, T - 1), unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return lm_of(seed, V, T), T, tuple(ids)


def check_saturation(lm, T, ids):
    """A beam wide enough to keep every hypothesis finds the exhaustive best."""
    hyp = run_grid_search(lm, ConstraintSet(ids), k=lm.vocab_size ** T, T=T).best
    tokens, lp = exhaustive_best(lm, T, constraint_ids=ids)
    assert hyp.tokens == tokens
    assert hyp.logprob == pytest.approx(lp, abs=1e-9)
    assert set(ids) <= set(hyp.tokens)


def check_full_vocabulary_expansion(lm, T, ids, k):
    """The search's best, finished and trace equal the reference's, the
    trace cut after the first column where the stop rule holds; returns the
    search's result."""
    best, finished, trace = full_vocab_grid_search(lm, ids, k, T)
    result = run_grid_search(lm, ConstraintSet(ids), k=k, T=T, trace=True)
    assert result.best == best
    assert result.finished == finished[:k]
    stop = stop_column(trace, len(ids), k, T)
    assert result.trace == [row for row in trace if row["t"] <= stop]
    return result


def check_counters(lm, ids, k, result):
    """One step call per column run, and each live parent offers its k best
    free tokens (at most) plus its unmet words."""
    n, live = len(ids), live_coverage(result.trace)
    assert result.step_calls == sum(1 for cs in live.values() if cs)
    assert result.offered <= sum(k + n - c for cs in live.values() for c in cs)
    assert result.offered == sum(min(k, lm.vocab_size - (n - c)) + n - c
                                 for cs in live.values() for c in cs)
    assert result.kept == sum(len(row["hyps"]) for row in result.trace)


def check_step_batches(lm, T, ids, k):
    """Every step call scores every live parent of its column."""
    lm = CountingLM(lm)
    result = run_grid_search(lm, ConstraintSet(ids), k=k, T=T, trace=True)
    assert lm.batches == [len(cs) for cs in live_coverage(result.trace).values() if cs]
    assert result.step_calls == len(lm.batches)
    check_counters(lm, ids, k, result)


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
        hyp = run_grid_search(TableLM(table), ConstraintSet(()), k=2, T=3).best
        assert hyp.tokens == (2, 1, 0)
        assert hyp.finished

    def test_k_equals_vocab_matches_exhaustive_for_constant_lm(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            V = int(rng.integers(2, 6))
            T = int(rng.integers(1, 6))
            lm = TableLM.constant(rng, V, T)
            hyp = run_grid_search(lm, ConstraintSet(()), k=V, T=T).best
            tokens, lp = exhaustive_best(lm, T)
            assert hyp.tokens == tokens
            assert hyp.logprob == pytest.approx(lp, abs=1e-9)

    def test_saturation_width_matches_exhaustive(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            V = int(rng.integers(3, 6))
            T = int(rng.integers(2, 5))
            lm = TableLM.random(rng, V, T)
            hyp = run_grid_search(lm, ConstraintSet(()), k=V ** T, T=T).best
            tokens, lp = exhaustive_best(lm, T)
            assert hyp.tokens == tokens
            assert hyp.logprob == pytest.approx(lp, abs=1e-9)

    def test_returned_is_best_of_finished(self):
        rng = np.random.default_rng(32)
        lm = TableLM.random(rng, 5, 4)
        result = run_grid_search(lm, ConstraintSet(()), k=3, T=4)
        assert all(result.best.logprob >= h.logprob for h in result.finished)

    def test_no_finish_returns_flagged_unfinished(self):
        # eos is so unlikely it never survives a k=1 beam
        table = np.log(np.array([[1e-12, 0.5, 0.5]] * 3))
        hyp = run_grid_search(TableLM(table), ConstraintSet(()), k=1, T=3).best
        assert not hyp.finished
        assert len(hyp.tokens) == 3


class TestGridBeamSearch:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(lm_with_constraints())
    @example((TableLM.random(np.random.default_rng(34), 5, 5), 5, (3,)))
    def test_saturation_matches_constrained_exhaustive(self, case):
        check_saturation(*case)

    def test_constraint_always_satisfied(self):
        rng = np.random.default_rng(35)
        for trial in range(30):
            V = int(rng.integers(4, 6))
            T = int(rng.integers(3, 6))
            n = int(rng.integers(1, min(3, T)))
            ids = tuple(rng.choice(range(1, V), size=n, replace=False).tolist())
            lm = TableLM.random(rng, V, T)
            cs = ConstraintSet(ids)
            hyp = run_grid_search(lm, cs, k=4, T=T).best
            for cid in ids:
                assert cid in hyp.tokens

    def test_grid_cells_respect_feasibility_window(self):
        rng = np.random.default_rng(36)
        lm = TableLM.random(rng, 5, 5)
        cs = ConstraintSet((2, 4))
        result = run_grid_search(lm, cs, k=3, T=5, trace=True)
        seen = {(row["t"], row["c"]) for row in result.trace if row["hyps"]}
        for t, c in seen:
            assert c in feasible_coverage(t + 1, 2, 5)

    def test_infeasible_constraint_count(self):
        lm = TableLM(np.log(np.full((3, 4), 0.25)))
        cs = ConstraintSet((1, 2, 3))
        with pytest.raises(InfeasibleConstraintsError):
            run_grid_search(lm, cs, k=2, T=3)

    def test_wider_beam_never_scores_worse(self):
        rng = np.random.default_rng(37)
        for trial in range(15):
            V, T = 5, 5
            lm = TableLM.random(rng, V, T)
            cs = ConstraintSet((1,))
            scores = []
            for k in (1, 2, 3, 5, 10, 40, V ** T):
                scores.append(run_grid_search(lm, cs, k=k, T=T).best.logprob)
            for a, b in zip(scores, scores[1:]):
                assert b >= a - 1e-12

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(search_case())
    def test_matches_full_vocabulary_expansion(self, case):
        check_full_vocabulary_expansion(*case)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(tied_search_case())
    def test_ties_break_like_full_vocabulary_expansion(self, case):
        # equal scores order by tokens, so parents of one cell tie-break by
        # their own tokens before the new token
        lm, T, ids, k = case
        check_counters(lm, ids, k, check_full_vocabulary_expansion(lm, T, ids, k))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(search_case())
    def test_counters_and_expansion_bound(self, case):
        # one step call per column run, scoring every live parent, and each
        # live parent offers at most k + (n - c) continuations
        check_step_batches(*case)

    def test_dominant_eos_stops_after_two_columns(self):
        # eos takes 0.97 of every row: after column 1 the two finished
        # decodes outscore every live prefix, so columns 2..T-1 never run
        table = np.log(np.array([[0.97, 0.01, 0.01, 0.01]] * 6))
        lm = CountingLM(TableLM(table))
        result = run_grid_search(lm, ConstraintSet(()), k=2, T=6, trace=True)
        assert result.step_calls == len(lm.batches) == 2
        assert {row["t"] for row in result.trace} == {0, 1}
        assert [h.tokens for h in result.finished] == [(0,), (1, 0)]
        _, finished, _ = full_vocab_grid_search(lm, (), 2, 6)
        assert result.finished == finished[:2]

    @pytest.mark.parametrize("bad", [0.5, np.nan])
    def test_step_row_above_zero_or_nan_rejected(self, bad):
        table = np.log(np.full((3, 4), 0.25))
        table[1, 2] = bad
        with pytest.raises(ValueError, match="above 0"):
            run_grid_search(TableLM(table), ConstraintSet(()), k=4, T=3)

    def test_determinism(self):
        rng = np.random.default_rng(38)
        lm = TableLM.random(rng, 5, 5)
        cs = ConstraintSet((2,))
        runs = [run_grid_search(lm, cs, k=3, T=5).best for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_unfinished_fallback_still_covers_constraints(self):
        # eos never competitive: best hypothesis is unfinished but in row n
        table = np.log(np.array([[1e-12, 0.6, 0.3, 0.1 - 1e-12]] * 4))
        cs = ConstraintSet((2,))
        hyp = run_grid_search(TableLM(table), cs, k=2, T=4).best
        assert not hyp.finished
        assert 2 in hyp.tokens


class TestPrefixDependentModel:
    """The grid search against its references under ``PrefixLM``, whose
    rows differ between the parents of one column, so a row paired with the
    wrong parent, or a wrong parent tie rank, shows. Beam monotonicity is
    not asserted: under such a model a wider beam may score worse, so
    ``test_wider_beam_never_scores_worse`` stays on the position-only
    ``TableLM``."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(search_case(prefix_lm))
    def test_matches_full_vocabulary_expansion(self, case):
        check_full_vocabulary_expansion(*case)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(search_case(tied_prefix_lm))
    def test_ties_break_like_full_vocabulary_expansion(self, case):
        lm, T, ids, k = case
        check_counters(lm, ids, k, check_full_vocabulary_expansion(lm, T, ids, k))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(search_case(prefix_lm))
    def test_counters_and_expansion_bound(self, case):
        check_step_batches(*case)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(lm_with_constraints(prefix_lm))
    def test_saturation_matches_constrained_exhaustive(self, case):
        check_saturation(*case)

    def test_rows_differ_between_parents_of_one_column(self):
        lm = PrefixLM(0, 5)
        rows = lm.step([(lm.bos_id, 1), (lm.bos_id, 2)])
        assert not np.array_equal(rows[0], rows[1])
        assert np.array_equal(lm.step([(lm.bos_id, 2)])[0], rows[1])


class TestConstraintSet:
    def test_duplicates_collapse(self):
        v = Vocabulary(["dog", "cat"])
        cs = ConstraintSet.from_words(["dog", "dog", "cat"], v)
        assert cs.ids == (v.token_to_id["dog"], v.token_to_id["cat"])

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


def recorded_steps(model):
    """The rows of every ``model.step`` call from now on, in order."""
    rows, step = [], model.step

    def recording(prefixes):
        rows.append(step(prefixes))
        return rows[-1]

    model.step = recording
    return rows


@pytest.fixture
def model():
    cfg = CaptionerConfig(vocab=Vocabulary(["red", "dog", "runs", "cat"]),
                          d_model=8, num_enc_layers=1, num_dec_layers=1,
                          num_heads=2, num_memory=2, embed_dim=4,
                          ffn_dim=12, max_len=8, visual_dim=3)
    params = init_captioner_params(cfg, np.random.default_rng(40))
    regions = np.random.default_rng(41).normal(size=(3, 3))
    return cfg, params, regions


class TestSequenceLogprob:
    def test_no_forced_equals_plain_likelihood(self, model):
        cfg, params, regions = model
        sm = SceneStepModel(encode(regions, cfg, params), cfg, params)
        v = cfg.vocab
        tokens = v.encode(["red", "dog"]) + [v.eos_id]
        manual = sum(float(sm.step([(v.bos_id,) + tuple(tokens[:i])])[0, tokens[i]])
                     for i in range(len(tokens)))
        got = sequence_logprob([tokens], sm)
        assert got.shape == (1,)
        assert got.data[0] == pytest.approx(manual, abs=1e-9)

    def test_pad_scores_as_an_ordinary_token_on_both_paths(self, model):
        cfg, params, regions = model
        sm = SceneStepModel(encode(regions, cfg, params), cfg, params)
        v = cfg.vocab
        tokens = v.encode(["red"]) + [v.pad_id] + v.encode(["dog"]) + [v.eos_id]
        stepped = sum(float(sm.step([(v.bos_id,) + tuple(tokens[:i])])[0, tokens[i]])
                      for i in range(len(tokens)))
        got = sequence_logprob([tokens], sm).data[0]
        assert got == pytest.approx(stepped, rel=0, abs=1e-12)

    def test_matches_search_hypothesis_score(self, model):
        cfg, params, regions = model
        sm = SceneStepModel(encode(regions, cfg, params), cfg, params)
        cs = ConstraintSet.from_words(["dog"], cfg.vocab)
        result = run_grid_search(sm, cs, k=3, T=cfg.max_len - 1)
        assert len(result.finished) >= 2 and result.best.finished
        recomputed = sequence_logprob([h.tokens for h in result.finished], sm).data
        np.testing.assert_allclose(recomputed, [h.logprob for h in result.finished],
                                   rtol=0, atol=1e-9)

    def test_one_model_searches_off_the_tape_then_scores_on_it(self, model,
                                                                 monkeypatch):
        cfg, params, regions = model
        detached = {k: v.detach() for k, v in params.items()}
        live = SceneStepModel(encode(regions, cfg, params), cfg, params)
        plain = SceneStepModel(encode(regions, cfg, detached), cfg, detached)
        cs = ConstraintSet.from_words(["dog"], cfg.vocab)
        live_rows, plain_rows = recorded_steps(live), recorded_steps(plain)
        made, init = [], Tensor.__init__

        def counted_init(tensor, *args, **kwargs):
            made.append(tensor)
            init(tensor, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "__init__", counted_init)
            result = run_grid_search(live, cs, k=3, T=cfg.max_len - 1)
        assert made == []  # the search built no tensor, so no tape node
        run_grid_search(plain, cs, k=3, T=cfg.max_len - 1)
        assert all(p.grad is None for p in params.values())
        assert len(live_rows) == len(plain_rows) > 1
        for a, b in zip(live_rows, plain_rows):
            np.testing.assert_array_equal(a, b)

        cands = [h.tokens for h in result.finished]
        weights = Tensor(np.linspace(-1.0, 1.0, len(cands)))
        nm.backward(nm.tsum(nm.mul(sequence_logprob(cands, live), weights)))
        grads = {k: p.grad.copy() for k, p in params.items()}
        nm.zero_grads(params)
        fresh = SceneStepModel(encode(regions, cfg, params), cfg, params)
        nm.backward(nm.tsum(nm.mul(sequence_logprob(cands, fresh), weights)))
        for k, p in params.items():
            np.testing.assert_allclose(grads[k], p.grad, rtol=0, atol=1e-12,
                                       err_msg=k)

    def test_gradient_matches_finite_differences(self, model):
        cfg, params, regions = model
        v = cfg.vocab
        tokens = tuple(v.encode(["red", "dog", "runs"])) + (v.eos_id,)
        subset = [params["embed.E"], params["dec0.cross.wv"],
                  params["enc0.mem.v"]]

        def loss():
            enc = encode(regions, cfg, params)
            sm = SceneStepModel(enc, cfg, params)
            return nm.tsum(sequence_logprob([tokens], sm))

        check_grads(loss, subset, 1e-4)

    def test_packed_candidates_equal_each_scored_alone(self, model):
        cfg, params, regions = model
        v = cfg.vocab
        cands = [tuple(v.encode(["red", "dog", "runs"])) + (v.eos_id,),
                 tuple(v.encode(["cat"])) + (v.eos_id,),
                 tuple(v.encode(["dog", "dog", "red", "cat", "runs"]))]
        weights = np.array([0.7, -1.3, 0.4])

        def scored(group):
            sm = SceneStepModel(encode(regions, cfg, params), cfg, params)
            lps = sequence_logprob(group, sm)
            return lps, nm.tsum(nm.mul(lps, Tensor(weights[[cands.index(c)
                                                             for c in group]])))

        nm.zero_grads(params)
        alone = []
        for c in cands:
            lps, loss = scored([c])
            alone.append(lps.data[0])
            nm.backward(loss)
        grads = {k: p.grad.copy() for k, p in params.items()}
        nm.zero_grads(params)
        lps, loss = scored(cands)
        nm.backward(loss)
        np.testing.assert_allclose(lps.data, alone, rtol=0, atol=1e-12)
        for k, p in params.items():
            np.testing.assert_allclose(p.grad, grads[k], rtol=0, atol=1e-12)

    def test_empty_candidate_rejected(self, model):
        cfg, params, regions = model
        sm = SceneStepModel(encode(regions, cfg, params), cfg, params)
        with pytest.raises(ValueError):
            sequence_logprob([(cfg.vocab.eos_id,), ()], sm)


class TestTokenLogprobsScoresSearches:
    """``captioner.tree_logprobs`` on the chains of real searches' finished
    candidates, BOS-led, packed across scenes through ``scenes`` and
    ``enc_segments`` against per-scene encodes."""

    @pytest.fixture
    def two_scenes(self, model):
        cfg, params, regions = model
        other = np.random.default_rng(42).normal(size=(5, 3))
        cs = ConstraintSet.from_words(["dog"], cfg.vocab)
        cands = []  # (scene number, BOS-led candidate, its search log-prob)
        for b, r in enumerate((regions, other)):
            sm = SceneStepModel(encode(r, cfg, params), cfg, params)
            finished = run_grid_search(sm, cs, k=3, T=cfg.max_len - 1).finished
            assert len(finished) >= 2
            cands += [(b, (cfg.vocab.bos_id,) + h.tokens, h.logprob)
                      for h in finished]
        return (regions, other), cands

    @staticmethod
    def packed(cfg, params, scenes, cands) -> Tensor:
        enc = [encode(r, cfg, params) for r in scenes]
        return chain_logprobs([c for _, c, _ in cands], nm.concat(enc), cfg, params,
                              [b for b, _, _ in cands],
                              np.repeat([0, 1], [len(r) for r in scenes]))

    @staticmethod
    def owner(cands) -> np.ndarray:
        """The candidate number of each packed entry."""
        return np.repeat(np.arange(len(cands)), [len(c) - 1 for _, c, _ in cands])

    def test_sums_are_the_search_scores(self, model, two_scenes):
        cfg, params, _ = model
        scenes, cands = two_scenes
        picked = self.packed(cfg, params, scenes, cands).data
        np.testing.assert_allclose(np.bincount(self.owner(cands), weights=picked),
                                   [lp for _, _, lp in cands], rtol=0, atol=1e-9)

    def test_packed_sums_and_gradients_equal_each_alone(self, model, two_scenes):
        cfg, params, _ = model
        scenes, cands = two_scenes
        owner = self.owner(cands)
        for i, (b, seq, _) in enumerate(cands):
            nm.zero_grads(params)
            packed = nm.tsum(nm.mul(self.packed(cfg, params, scenes, cands),
                                    Tensor((owner == i).astype(float))))
            nm.backward(packed)
            grads = {k: p.grad.copy() for k, p in params.items()}
            nm.zero_grads(params)
            alone = nm.tsum(chain_logprobs([seq], encode(scenes[b], cfg, params),
                                           cfg, params))
            nm.backward(alone)
            assert abs(packed.item() - alone.item()) <= 1e-12
            for k, p in params.items():
                np.testing.assert_allclose(grads[k], p.grad, rtol=0, atol=1e-12,
                                           err_msg=k)

    def test_packed_gradient_matches_finite_differences(self, model, two_scenes):
        cfg, params, _ = model
        scenes, cands = two_scenes
        rows = sum(len(c) - 1 for _, c, _ in cands)
        weights = Tensor(np.random.default_rng(43).normal(size=rows))
        subset = [params["embed.E"], params["dec0.cross.wv"], params["enc0.mem.v"]]
        check_grads(lambda: nm.tsum(nm.mul(self.packed(cfg, params, scenes, cands),
                                           weights)), subset, 1e-4)
