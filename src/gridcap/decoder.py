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
``sequence_logprob`` sums each candidate's next-token log-probs, which the
trainable model returns for all candidates from one packed pass, so reward
gradients flow through constrained decodes too.
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

    # the last column's beams by coverage; a column reads only the one before
    beams: dict[int, list[Hypothesis]] = {0: [Hypothesis(tokens=(), logprob=0.0)]}
    finished_full: list[Hypothesis] = []
    fallback = None  # best unfinished full-coverage hypothesis of the latest column
    trace_rows: list[dict] = []
    step_calls = offered = kept_total = 0

    for t in range(T):
        parents = [h for beam in beams.values() for h in beam if not h.finished]
        # a column's hypotheses are distinct, and children of distinct parents
        # differ in their prefix, so no child is offered twice
        cands = {c: [] for c in feasible_coverage(t + 1, n, T)}
        if parents:
            rows = model.step([(model.bos_id,) + p.tokens for p in parents])
            step_calls += 1
            for parent, lp in zip(parents, rows):
                for h in _expand(parent, lp, constraints.ids, k, model.eos_id):
                    offered += 1
                    if len(h.met) in cands:
                        cands[len(h.met)].append(h)

        beams = {}
        for c, hyps in cands.items():
            kept = sorted(hyps, key=Hypothesis.sort_key)[:k]
            for h in kept:
                assert len(h.tokens) == t + 1 and len(h.met) == c
            beams[c] = kept
            kept_total += len(kept)
            if c == n:
                finished_full.extend(h for h in kept if h.finished)
                fallback = next((h for h in kept if not h.finished), fallback)
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
    if fallback is None:
        raise SearchError("no hypothesis ever reached full constraint coverage")
    return GridResult(best=fallback, finished=[], **counts)


def sequence_logprob(candidates, model) -> Tensor:
    """Differentiable log-prob sums (len(candidates),) of completed decodes.

    ``model.all_step_logprobs`` gives the next-token log-probs of BOS-led
    sequences, sequence by sequence. Constraint words and free words are
    scored alike under the trainable model, so each sum matches the
    search-time hypothesis score and its gradient reaches every parameter.
    """
    seqs = [tuple(int(x) for x in c) for c in candidates]
    if not seqs or not all(seqs):
        raise ValueError("cannot score an empty sequence")
    picked = model.all_step_logprobs([(model.bos_id,) + s for s in seqs])
    # entries come candidate by candidate; a one-hot matmul sums each one's
    owner = np.repeat(np.arange(len(seqs)), [len(s) for s in seqs])
    onehot = Tensor(owner[:, None] == np.arange(len(seqs)))
    return nm.reshape(nm.matmul(nm.reshape(picked, (1, -1)), onehot), (len(seqs),))
