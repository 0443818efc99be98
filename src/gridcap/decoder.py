"""Lexically constrained decoding.

Grid beam search frames decoding in a (constraint coverage x time)
matrix; with no constraints it is plain beam search. Cell (c, t) holds a
beam of partial sequences with t+1 generated tokens containing exactly c
distinct constraint words. Constraint words arrive as ordinary
continuations, and each new hypothesis is routed to the row matching its
actual coverage. Row n therefore holds exactly the sequences that satisfy
all n constraints.

Each grid column costs one batched model call that scores every live
parent, giving a (parents, vocabulary) score matrix and, beside it, the
coverage each continuation would reach. Every cell then keeps its k best
entries of that coverage straight from the matrix, so the search is a
full-vocabulary expansion, and hypotheses are built only for kept entries.

The search is pruned, and exactly (Huang, Zhao & Ma 2017, "When to
Finish?"). A caller asks for the ``n_best`` best finished full-coverage
decodes (at most k). Once that many are held, every live hypothesis scoring
strictly below the ``n_best``-th of them is dropped after each column, and
the search ends when no hypothesis is live. A step row is a log-softmax, so
every entry is at most 0 and no hypothesis scores above its parent. So a
dropped hypothesis, each of its descendants, and any hypothesis that their
absence lets into a beam all score below that decode, while every cell's
hypotheses at or above it are those of the unpruned search. The ``n_best``
decodes therefore equal that search's. A step row holding a value above 0
(or NaN) breaks the premise and raises ``ValueError``.

Every token, constraint word or not, is scored with the model's own
log-probability, which is what makes the sequence score differentiable:
teacher forcing a finished decode on the tape (the captioner's one scorer,
``tree_logprobs``) gives the log-probs the search summed, so reward
gradients flow through constrained decodes too. ``sequence_logprob`` sums
them per candidate of one scene; fine-tuning scores packed tries instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .numerics import Tensor


MAX_CONSTRAINTS = 5  # words a decode may be constrained to


class SearchError(Exception):
    """The search produced no usable hypothesis."""


class InfeasibleConstraintsError(SearchError):
    """More constraints than the decoding budget can hold."""


class Hypothesis(NamedTuple):
    """A partial or finished decode; tokens exclude BOS.

    An immutable named tuple ``(tokens, logprob, finished)``: a search
    builds one per kept beam entry, and a tuple is the cheapest such
    record. ``sort_key`` ranks by log-prob, highest first, then by tokens.
    """

    tokens: tuple[int, ...]
    logprob: float
    finished: bool = False

    def sort_key(self):
        return (-self.logprob, self.tokens)


@dataclass(frozen=True)
class ConstraintSet:
    """The vocabulary ids of ordered distinct single-token constraint words."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate constraint ids")

    def __len__(self) -> int:
        return len(self.ids)

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
        return cls(tuple(ids))


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
    """A search's result. ``offered``, ``kept`` and ``trace`` describe the
    pruned search: parents below the ``n_best``-th finished decode are
    neither stepped nor offered, and their continuations are never kept."""

    best: Hypothesis
    finished: list[Hypothesis]  # the n_best best finished full-coverage decodes, ranked
    trace: list[dict] = field(default_factory=list)  # each column's cells, by token id
    step_calls: int = 0  # batched model calls, one per column run
    step_rows: int = 0  # prefixes passed to model.step, summed over calls
    offered: int = 0  # each live parent's k best free tokens plus its unmet words
    kept: int = 0  # hypotheses that survived the beams, summed over cells


def decoder_counts(searches: list[GridResult]) -> dict:
    """The summed work of searches: their ``step_calls``, ``step_rows``,
    ``offered`` and ``kept``, and ``unfinished_fallbacks``, the searches
    with no finished full-coverage decode (``finished`` is empty)."""
    return {"step_calls": sum(s.step_calls for s in searches),
            "step_rows": sum(s.step_rows for s in searches),
            "offered": sum(s.offered for s in searches),
            "kept": sum(s.kept for s in searches),
            "unfinished_fallbacks": sum(1 for s in searches if not s.finished)}


def run_grid_search(model, constraints: ConstraintSet, k: int, T: int,
                    trace: bool = False, *, n_best: int | None = None) -> GridResult:
    """Fill the coverage-by-time grid and return the best full-coverage decode.

    ``model`` provides ``bos_id``, ``eos_id``, ``vocab_size`` and
    ``step(prefixes) -> (len(prefixes), vocab_size) log-prob array`` for
    BOS-led prefixes; it is called once per grid column with every live
    parent, and a result of any other shape raises ``ValueError``. Ties
    break on token ids so the search is deterministic for identical inputs.
    Beams prune and finished hypotheses rank on the raw log-prob sum.
    ``trace`` records each cell's kept hypotheses by token id.

    ``n_best`` (1..k, default k) is the number of finished full-coverage
    decodes the caller ranks; ``finished`` holds at most that many. Every
    step row must be at most 0, as a log-softmax is; a value above 0 or NaN
    raises ``ValueError``. On that premise, once ``n_best`` finished decodes
    are held, each column's live hypotheses scoring strictly below the
    ``n_best``-th are dropped and the search ends when none is left, so
    ``best`` and ``finished`` equal the first ``n_best`` of a k-beam search
    run unpruned over all T columns.
    """
    n = len(constraints)
    if k < 1 or T < 1:
        raise ValueError("beam size and budget must be positive")
    n_best = k if n_best is None else n_best
    if not 1 <= n_best <= k:
        raise ValueError(f"n_best must be in 1..{k}, got {n_best}")
    if n >= T:
        raise InfeasibleConstraintsError(f"{n} constraints cannot fit a budget of {T}")

    # the live hypotheses of the last column; a column reads only the one before
    parents = [Hypothesis(tokens=(), logprob=0.0)]
    finished_full: list[Hypothesis] = []  # the n_best best so far, ranked
    fallback = None  # best unfinished full-coverage hypothesis of the latest column
    trace_rows: list[dict] = []
    step_calls = step_rows = offered = kept_total = 0
    bos, eos, vocab = model.bos_id, model.eos_id, model.vocab_size
    ids = list(constraints.ids)

    for t in range(T):
        toks = [p.tokens for p in parents]
        rows = model.step([(bos,) + tk for tk in toks])
        step_calls += 1
        step_rows += len(parents)
        if rows.shape != (len(parents), vocab):
            raise ValueError(f"a step for {len(parents)} prefixes returned shape "
                             f"{rows.shape}, not {(len(parents), vocab)}")
        if not (rows <= 0).all():
            raise ValueError("a step row holds a log-prob above 0 or NaN")
        # parents share one length, so sort_key orders equal scores by the
        # parent's tokens, then by the new token: with the parents in token
        # order, that is the order of the flat index i * vocab + tok
        assert all(len(tk) == t for tk in toks)
        order = sorted(range(len(toks)), key=toks.__getitem__)
        parents, toks = [parents[i] for i in order], [toks[i] for i in order]
        # entry i * vocab + tok of each flat matrix continues parents[i] by tok
        scores = (np.array([p.logprob for p in parents])[:, None] + rows[order]).ravel()
        unmet = np.fromiter([c not in tk for tk in toks for c in ids], bool,
                            len(toks) * n).reshape(len(toks), n)
        gains = np.zeros(rows.shape, dtype=bool)  # tok is an unmet constraint
        gains[:, ids] = unmet
        unmet = unmet.sum(axis=1)
        cover = ((n - unmet)[:, None] + gains).ravel()
        offered += int((np.minimum(k, vocab - unmet) + unmet).sum())

        column = []  # every cell's kept hypotheses, by coverage
        for c in feasible_coverage(t + 1, n, T):
            idx = (cover == c).nonzero()[0]
            cell = scores[idx]
            if len(idx) > k:  # drop entries scored below the cell's k-th best
                keep = cell >= np.partition(cell, len(cell) - k)[len(cell) - k]
                idx, cell = idx[keep], cell[keep]
            # a stable sort keeps equal scores in flat-index order
            best = np.argsort(-cell, kind="stable")[:k]
            kept = []
            for j, s in zip(idx[best].tolist(), cell[best].tolist()):
                i, tok = divmod(j, vocab)
                kept.append(Hypothesis(toks[i] + (tok,), s, tok == eos))
            column += kept
            kept_total += len(kept)
            if c == n:
                finished_full.extend(h for h in kept if h.finished)
                fallback = next((h for h in kept if not h.finished), fallback)
            if trace:
                trace_rows.append({
                    "t": t, "c": c,
                    "hyps": [{
                        "tokens": list(h.tokens),
                        "logprob": h.logprob,
                        "finished": h.finished,
                    } for h in kept],
                })

        finished_full.sort(key=Hypothesis.sort_key)
        del finished_full[n_best:]
        parents = [h for h in column if not h.finished]
        # no hypothesis outscores its parent, so one below the n_best-th
        # finished decode can neither reach the n_best nor displace them
        if len(finished_full) == n_best:
            parents = [p for p in parents if p.logprob >= finished_full[-1].logprob]
        if not parents:
            break

    counts = {"trace": trace_rows, "step_calls": step_calls, "step_rows": step_rows,
              "offered": offered, "kept": kept_total}
    if finished_full:
        return GridResult(best=finished_full[0], finished=finished_full, **counts)
    # no finished full-coverage decode: fall back to the most complete
    # unfinished one, flagged by finished=False
    if fallback is None:
        raise SearchError("no hypothesis ever reached full constraint coverage")
    return GridResult(best=fallback, finished=[], **counts)


def sequence_logprob(candidates, model) -> Tensor:
    """Log-prob sums (len(candidates),) of completed decodes, as a tensor.

    ``model.all_step_logprobs`` gives the next-token log-probs of BOS-led
    sequences, sequence by sequence, the order the one-hot sum needs. It
    runs on its parameters' op set, on the tape only for tensors: a model
    holding tensors gives sums whose gradient reaches every parameter.
    Constraint words and free words are scored alike, so each sum matches
    the search-time hypothesis score. No ``src/`` caller is left;
    ``bench/tracer.py`` binds it (ROADMAP item 1).
    """
    seqs = [tuple(int(x) for x in c) for c in candidates]
    if not seqs or not all(seqs):
        raise ValueError("cannot score an empty sequence")
    picked = model.all_step_logprobs([(model.bos_id,) + s for s in seqs])
    # entries come candidate by candidate; a one-hot matmul sums each one's
    owner = np.repeat(np.arange(len(seqs)), [len(s) for s in seqs])
    onehot = Tensor(owner[:, None] == np.arange(len(seqs)))
    return nm.reshape(nm.matmul(nm.reshape(picked, (1, -1)), onehot), (len(seqs),))
