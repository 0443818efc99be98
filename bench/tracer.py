"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: while the targets of
``tracing_targets`` are ``patched`` in, the public functions the pipeline
calls are replaced, in the module that calls them, by timing wrappers, and
``SceneStepModel`` is replaced by a subclass whose ``step`` and
``all_step_logprobs`` are timed. Calls into
``gridcap.numerics`` ops are counted, not timed. Spans stay in memory; the
per-layer metrics are derived from them after the run.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

# numerics ops whose calls are counted (outermost call only)
NUMERICS_OPS = (
    "add", "sub", "mul", "neg", "matmul", "transpose", "concat", "gather_rows",
    "scatter_rows", "col_slice", "take", "reshape", "relu", "sigmoid", "exp",
    "log", "clip", "softmax", "log_softmax", "layer_norm", "linear", "tsum",
    "tmean", "scaled_dot_attention",
)

# training-module bindings -> span names
TRAINING_SPANS = {
    "selector_forward": "selector.forward",
    "weighted_bce": "selector.weighted_bce",
    "encode": "captioner.encode",
    "xent_loss": "captioner.xent_loss",
    "sequence_logprob": "decoder.sequence_logprob",
    "cider_d": "metrics.cider_d",
    "eval_report": "metrics.eval_report",
    "adam_step": "numerics.adam_step",
}

# span record fields
NAME, START, END, PARENT, OPS, ATTR = range(6)


class SpanRecorder:
    """In-memory spans: [name, start, end, parent index, op calls, attr]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_depth = 0

    def _open(self, name: str, attr=None) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, attr]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attr=None):
        rec = self._open(name, attr)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, attr_of=None):
        """Timed wrapper; ``attr_of(args, kwargs)`` annotates the span."""
        def wrapper(*args, **kwargs):
            rec = self._open(name, attr_of(args, kwargs) if attr_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        wrapper.__wrapped__ = fn
        return wrapper

    def count_calls(self, fn):
        """Counting wrapper; the count goes to the innermost open span.
        Calls an op makes into other ops are not counted again."""
        def wrapper(*args, **kwargs):
            if self._op_depth == 0 and self._stack:
                self.spans[self._stack[-1]][OPS] += 1
            self._op_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._op_depth -= 1
        wrapper.__wrapped__ = fn
        return wrapper


def grid_counts(model, constraints, result) -> dict:
    """Hypotheses offered and kept by one grid search, from its trace rows.

    Every unfinished hypothesis kept in column t-1 is a parent of column t
    and offers one continuation per vocabulary token plus one forced
    insertion per unmet constraint; the root offers the same at t=0.
    """
    n = len(constraints)
    vocab = model.vocab_size
    rows = result.trace
    last_t = max((r["t"] for r in rows), default=0)
    offered = vocab + n
    kept = 0
    for r in rows:
        kept += len(r["hyps"])
        if r["t"] < last_t:
            live = sum(1 for h in r["hyps"] if not h["finished"])
            offered += live * (vocab + n - r["c"])
    return {"offered": offered, "kept": kept}


def search_outcome(constraints, result) -> dict:
    best = result.best
    return {
        "constraints": len(constraints),
        "finished": len(result.finished),
        "best_finished": bool(best.finished),
        "best_satisfied": set(constraints.ids) <= set(best.tokens),
    }


class SearchProbe:
    """Outcome of every grid search the training module runs; ``on_done``
    is called as each one returns.

    ``finetune_scst_dgbs`` reports neither which scenes it skipped nor when
    each scene finished, so the fine-tuning workload installs this probe
    even when tracing is off: failure accounting and per-scene timing need
    it. It reads the returned result and nothing else.
    """

    def __init__(self, on_done):
        self.outcomes: list[dict] = []
        self.on_done = on_done

    def wrap(self, fn):
        def wrapper(model, constraints, *args, **kwargs):
            result = fn(model, constraints, *args, **kwargs)
            self.outcomes.append(search_outcome(constraints, result)
                                 | {"tokens": list(result.best.tokens)})
            self.on_done()
            return result
        wrapper.__wrapped__ = fn
        return wrapper


@contextmanager
def patched(targets):
    """Set (module, attribute, value) triples; restore them on exit."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
    try:
        for mod, name, value in targets:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


def tracing_targets(rec: SpanRecorder, training, numerics, captioner) -> list:
    """Every (module, attribute, wrapper) the traced run installs."""
    targets = [(training, attr, rec.wrap(name, getattr(training, attr)))
               for attr, name in TRAINING_SPANS.items()]
    targets.append((numerics, "backward", rec.wrap("numerics.backward",
                                                   numerics.backward)))
    targets += [(numerics, op, rec.count_calls(getattr(numerics, op)))
                for op in NUMERICS_OPS]

    search = training.run_grid_search

    def traced_search(model, constraints, k, T, trace=False, **kwargs):
        # the trace rows are needed for the offered/kept counts
        with rec.span("decoder.grid_search") as span:
            result = search(model, constraints, k, T, trace=True, **kwargs)
        span[ATTR] = search_outcome(constraints, result) | grid_counts(
            model, constraints, result)
        if not trace:
            result.trace = []
        return result

    targets.append((training, "run_grid_search", traced_search))

    base = captioner.SceneStepModel

    class TimedStepModel(base):
        step = rec.wrap("captioner.step", base.step,
                        attr_of=lambda args, kwargs: len(args[1]))
        all_step_logprobs = rec.wrap("captioner.all_step_logprobs",
                                     base.all_step_logprobs)

    targets.append((training, "SceneStepModel", TimedStepModel))
    return targets


# ---------------------------------------------------------------------------
# derived per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct child spans. Children of one
    span run one after another inside it, so their durations add up."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _ms_p50(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list], wall_s: float, scst_train_scenes: int) -> dict:
    """Per-layer numbers of one traced pass that lasted ``wall_s`` seconds.

    ``scst_train_scenes`` is the number of leading grid searches that belong
    to the fine-tuning loop (the rest are its validation decodes).
    """
    dur = [s[END] - s[START] for s in spans]
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def durations(name):
        return [dur[i] for i in by_name.get(name, [])]

    def total(name):
        return sum(durations(name))

    steps = by_name.get("captioner.step", [])
    searches = by_name.get("decoder.grid_search", [])
    out = {
        "captioner.step.calls_per_scene": _ratio(len(steps), len(searches)),
        "captioner.step.ms_p50": _ms_p50(durations("captioner.step")),
        "captioner.step.share": _ratio(total("captioner.step"), wall_s),
        "captioner.step.prefix_len_mean": _ratio(
            sum(spans[i][ATTR] for i in steps), len(steps)),
    }
    for c in range(6):
        out[f"decoder.grid_search.ms_p50.c{c}"] = _ms_p50(
            [dur[i] for i in searches if spans[i][ATTR]["constraints"] == c])
    attrs = [spans[i][ATTR] for i in searches]
    offered = sum(a["offered"] for a in attrs)
    kept = sum(a["kept"] for a in attrs)
    out |= {
        "decoder.grid_search.self_share": _ratio(
            sum(own[i] for i in searches), total("decoder.grid_search")),
        "decoder.offered_per_scene": _ratio(offered, len(searches)),
        "decoder.kept_per_scene": _ratio(kept, len(searches)),
        "decoder.kept_over_offered": _ratio(kept, offered),
        "decoder.unfinished_fallbacks": float(
            sum(1 for a in attrs if not a["best_finished"])),
        "decoder.finished_per_scene": _ratio(
            sum(a["finished"] for a in attrs), len(searches)),
        "decoder.sequence_logprob.ms_p50": _ms_p50(
            durations("decoder.sequence_logprob")),
        "numerics.backward.calls": float(len(by_name.get("numerics.backward", []))),
        "numerics.backward.ms_p50": _ms_p50(durations("numerics.backward")),
        "numerics.backward.share": _ratio(total("numerics.backward"), wall_s),
        "numerics.adam_step.ms_p50": _ms_p50(durations("numerics.adam_step")),
        "numerics.op_calls_per_step": _ratio(
            sum(spans[i][OPS] for i in steps), len(steps)),
    }
    sample_spans = by_name.get("captioner.encode", []) + by_name.get(
        "captioner.xent_loss", [])
    out["numerics.op_calls_per_sample"] = _ratio(
        sum(spans[i][OPS] for i in sample_spans),
        len(by_name.get("captioner.xent_loss", [])))
    for name in ("captioner.encode", "captioner.xent_loss",
                 "captioner.all_step_logprobs", "selector.forward"):
        out[f"{name}.ms_p50"] = _ms_p50(durations(name))
    out["selector.train_scene.ms_p50"] = _ms_p50(_selector_train_scenes(spans))
    out["metrics.cider_d.calls"] = float(len(by_name.get("metrics.cider_d", [])))
    out["metrics.cider_d.ms_p50"] = _ms_p50(durations("metrics.cider_d"))
    out["metrics.eval_report.ms"] = 1e3 * total("metrics.eval_report")
    skipped, zero_adv = _scst_outcomes(spans, searches[:scst_train_scenes])
    out["training.scst.skipped_scenes"] = float(skipped)
    out["training.scst.zero_advantage_scenes"] = float(zero_adv)
    for phase in ("train_selector", "pretrain_captioner", "finetune_scst_dgbs",
                  "decode_split"):
        idx = by_name.get(f"training.{phase}", [])
        out[f"training.{phase}.self_share"] = _ratio(
            sum(own[i] for i in idx), sum(dur[i] for i in idx))
    return out


def _selector_train_scenes(spans: list[list]) -> list[float]:
    """Forward start to backward end, for each forward that a weighted BCE
    follows (validation forwards have none)."""
    out = []
    last_forward = None
    bce_seen = False
    for s in spans:
        if s[NAME] == "selector.forward":
            last_forward, bce_seen = s, False
        elif s[NAME] == "selector.weighted_bce" and last_forward is not None:
            bce_seen = True
        elif s[NAME] == "numerics.backward" and bce_seen:
            out.append(s[END] - last_forward[START])
            last_forward, bce_seen = None, False
    return out


def _scst_outcomes(spans: list[list], train_searches: list[int]) -> tuple[int, int]:
    """Fine-tuning scenes skipped (< 2 finished candidates) and scenes whose
    candidates all earned the same reward, so no policy term was built."""
    skipped = zero_adv = 0
    bounds = train_searches + [len(spans)]
    for i, nxt in zip(train_searches, bounds[1:]):
        if spans[i][ATTR]["finished"] < 2:
            skipped += 1
        elif not any(spans[j][NAME] == "decoder.sequence_logprob"
                     for j in range(i + 1, nxt)):
            zero_adv += 1
    return skipped, zero_adv
