"""Lexically constrained decoding.

Grid beam search frames decoding in a (constraint coverage x time)
matrix; with no constraints it is plain beam search. Cell (c, t) holds a
beam of partial sequences with t+1 generated tokens containing exactly c
distinct constraint words. Constraint words arrive as ordinary
continuations, and each new hypothesis is routed to the row matching its
actual coverage. Row n therefore holds exactly the sequences that satisfy
all n constraints.

Each grid column costs one batched model call that scores every live
parent. A parent then offers only the continuations that can survive
pruning: its k best free tokens (those other than its unmet constraint
words) and each unmet constraint word. Every free continuation of a parent
lands in the parent's own coverage row, so any free token beyond its k best
ranks below k hypotheses of that row and would be pruned anyway; the
result equals a full-vocabulary expansion.

Every token, constraint word or not, is scored with the model's own
log-probability, which is what makes the sequence score differentiable:
``sequence_logprob`` recomputes the whole sum under the trainable model so
reward gradients flow through constrained decodes too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .numerics import Tensor


MAX_CONSTRAINTS = 5  # words a decode may be constrained to


class SearchError(Exception):
    """The search produced no usable hypothesis."""


class InfeasibleConstraintsError(SearchError):
    """More constraints than the decoding budget can hold."""


@dataclass(frozen=True)
class Hypothesis:
    """A partial or finished decode; tokens exclude BOS."""

    tokens: tuple[int, ...]
    logprob: float
    met: frozenset[int] = frozenset()
    finished: bool = False

    def sort_key(self):
        return (-self.logprob, self.tokens)


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered distinct single-token constraint words with their ids."""

    words: tuple[str, ...]
    ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.words) != len(self.ids):
            raise ValueError("words and ids are misaligned")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate constraint ids")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def empty(cls) -> "ConstraintSet":
        return cls((), ())

    @classmethod
    def from_words(cls, words, vocab) -> "ConstraintSet":
        words = tuple(dict.fromkeys(words))
        if len(words) > MAX_CONSTRAINTS:
            raise ValueError(f"{len(words)} constraints exceed cap {MAX_CONSTRAINTS}")
        reserved = {vocab.pad_id, vocab.bos_id, vocab.eos_id, vocab.unk_id}
        ids = []
        for w in words:
            i = vocab.token_to_id.get(w)
            if i is None or i in reserved:
                raise ValueError(f"constraint {w!r} is not a usable vocabulary token")
            ids.append(i)
        return cls(words, tuple(ids))


def feasible_coverage(t: int, n: int, T: int) -> range:
    """Coverage rows that may be populated after t generated tokens.

    Lower edge: rows that can still reach full coverage n within the T-token
    budget. Upper edge: t tokens cover at most min(t, n) constraints.
    """
    lo = max(0, n + t - T)
    hi = min(t, n)
    return range(lo, hi + 1)


@dataclass
class GridResult:
    best: Hypothesis
    finished: list[Hypothesis]  # all finished full-coverage hypotheses, ranked
    trace: list[dict] = field(default_factory=list)
    step_calls: int = 0  # batched model calls, one per column with a live parent
    offered: int = 0  # continuations built by expansion
    kept: int = 0  # hypotheses that survived pruning, summed over cells


def _prune(cands: dict[tuple, Hypothesis], k: int) -> list[Hypothesis]:
    ranked = sorted(cands.values(), key=Hypothesis.sort_key)
    return ranked[:k]


def _expand(parent: Hypothesis, lp: np.ndarray, constraint_ids: tuple[int, ...],
            k: int, eos: int) -> list[Hypothesis]:
    """The continuations of ``parent`` that can survive pruning: its k best
    free tokens by (-logprob, token), then each unmet constraint id."""
    scores = parent.logprob + lp
    unmet = [c for c in constraint_ids if c not in parent.met]
    free = np.ones(len(scores), dtype=bool)
    free[unmet] = False
    free_ids = np.flatnonzero(free)
    best = free_ids[np.lexsort((free_ids, -scores[free_ids]))[:k]]
    out = [Hypothesis(parent.tokens + (tok,), float(scores[tok]), parent.met,
                      tok == eos) for tok in best.tolist()]
    out += [Hypothesis(parent.tokens + (tok,), float(scores[tok]),
                       parent.met | {tok}, tok == eos) for tok in unmet]
    return out


def run_grid_search(model, constraints: ConstraintSet, k: int, T: int,
                    trace: bool = False, token_names=None) -> GridResult:
    """Fill the coverage-by-time grid and return the best full-coverage decode.

    ``model`` provides ``bos_id``, ``eos_id``, ``vocab_size`` and
    ``step(prefixes) -> (len(prefixes), vocab_size) log-prob array`` for
    BOS-led prefixes; it is called once per grid column with every live
    parent. Ties break on token ids so the search is deterministic for
    identical inputs. Beams prune and finished hypotheses rank on the raw
    log-prob sum.
    """
    n = len(constraints)
    if k < 1 or T < 1:
        raise ValueError("beam size and budget must be positive")
    if n >= T:
        raise InfeasibleConstraintsError(f"{n} constraints cannot fit a budget of {T}")
    eos = model.eos_id
    root = Hypothesis(tokens=(), logprob=0.0)

    # cells[c][t]; column t holds hypotheses with t+1 generated tokens
    cells: list[list[list[Hypothesis]]] = [[[] for _ in range(T)] for _ in range(n + 1)]
    finished_full: list[Hypothesis] = []
    trace_rows: list[dict] = []
    step_calls = offered = kept_total = 0

    for t in range(T):
        window = feasible_coverage(t + 1, n, T)
        new_cells: dict[int, dict[tuple, Hypothesis]] = {c: {} for c in window}

        if t == 0:
            parents = [root]
        else:
            parents = [h for c in feasible_coverage(t, n, T)
                       for h in cells[c][t - 1] if not h.finished]
        if parents:
            rows = model.step([(model.bos_id,) + p.tokens for p in parents])
            step_calls += 1
            for parent, lp in zip(parents, rows):
                for h in _expand(parent, lp, constraints.ids, k, eos):
                    offered += 1
                    bucket = new_cells.get(len(h.met))
                    if bucket is not None and h.tokens not in bucket:
                        bucket[h.tokens] = h

        for c in window:
            kept = _prune(new_cells[c], k)
            for h in kept:
                assert len(h.tokens) == t + 1 and len(h.met) == c
            cells[c][t] = kept
            kept_total += len(kept)
            if c == n:
                finished_full.extend(h for h in kept if h.finished)
            if trace:
                trace_rows.append({
                    "t": t, "c": c,
                    "hyps": [{
                        "tokens": (token_names(h.tokens) if token_names
                                   else list(h.tokens)),
                        "logprob": h.logprob,
                        "finished": h.finished,
                    } for h in kept],
                })

    counts = {"trace": trace_rows, "step_calls": step_calls,
              "offered": offered, "kept": kept_total}
    finished_full.sort(key=Hypothesis.sort_key)
    if finished_full:
        return GridResult(best=finished_full[0], finished=finished_full, **counts)

    # no finished full-coverage decode: fall back to the most complete
    # unfinished one, flagged by finished=False
    for t in range(T - 1, -1, -1):
        open_hyps = [h for h in cells[n][t] if not h.finished]
        if open_hyps:
            best = min(open_hyps, key=Hypothesis.sort_key)
            return GridResult(best=best, finished=[], **counts)
    raise SearchError("no hypothesis ever reached full constraint coverage")


def sequence_logprob(tokens, model) -> Tensor:
    """Differentiable sum of per-token log-probs for a completed decode.

    Constraint words and free words are scored alike under the trainable
    model, so the scalar matches the search-time hypothesis score and its
    gradient reaches every parameter.
    """
    tokens = tuple(int(x) for x in tokens)
    if not tokens:
        raise ValueError("cannot score an empty sequence")
    lsm = model.all_step_logprobs((model.bos_id,) + tokens)
    rows = np.arange(len(tokens))
    picked = nm.take(lsm, rows, np.asarray(tokens, dtype=np.intp))
    return nm.tsum(picked)
