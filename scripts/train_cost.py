"""Time one packed training minibatch of the captioner and of the selector:
its forward, backward and Adam update, and the memory one step allocates.

Usage: ``python scripts/train_cost.py`` (no options). It pins one BLAS
thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1 before numpy is imported), as
``bench/run.py`` does. On the default ``CaptionerConfig`` over the default
dataset's vocabulary, with freshly initialised weights, each row count of
``CAPTIONS`` draws that many (scene, reference) samples of the generated
scenes, seeded, and packs them as ``pretrain_captioner`` does: one encoder
and one decoder pass (``training._minibatch_xent``). One more row packs
``SELECTOR_SCENES`` seeded training scenes for the default
``SelectorConfig`` as ``train_selector`` does (``training._minibatch_bce``).

Each phase's cost is the median of ``REPEATS`` timed minibatches: the
forward that builds the loss, ``numerics.backward`` through it, and one
``adam_step`` on the gradients. Each row also counts the loss graph's tape
nodes (the tensors an op recorded), and gives two ``tracemalloc`` readings:
the memory the ``AdamState`` holds once it has laid the parameters out in
its blocks of values and moments, and the peak of one whole step after
the timed ones. It prints a table by minibatch, then the same
numbers as one JSON line, keyed by minibatch (``nodes``,
``forward_ms_p50``, ``backward_ms_p50``, ``adam_ms_p50``, ``state_mib``
and ``step_peak_mib``). It imports ``gridcap`` from the ``src`` directory
next to it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridcap import numerics as nm  # noqa: E402
from gridcap.captioner import CaptionerConfig, init_captioner_params  # noqa: E402
from gridcap.data import (DatasetConfig, apply_heldout, build_vocabulary,  # noqa: E402
                          default_synonyms, gen_dataset)
from gridcap.selector import SelectorConfig, init_selector_params  # noqa: E402
from gridcap.training import (_minibatch_bce, _minibatch_xent,  # noqa: E402
                              scene_selector_inputs)

CAPTIONS = (8, 16)
SELECTOR_SCENES = 8
REPEATS = 100
LR = 1e-6  # small enough that the repeated updates leave the work as it was
PHASES = ("forward", "backward", "adam")


def tape_nodes(loss: nm.Tensor) -> int:
    """Tensors an op recorded in the graph of ``loss``, the loss included."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p._vjp is not None and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def step(loss_of, params, state) -> list[float]:
    """One forward, backward and Adam update; their seconds."""
    start = time.perf_counter()
    loss = loss_of()
    built = time.perf_counter()
    nm.backward(loss)
    walked = time.perf_counter()
    nm.adam_step(params, state, LR)
    done = time.perf_counter()
    nm.zero_grads(params)
    return [built - start, walked - built, done - walked]


def traced_mib(fn):
    """``fn()``'s result, and the memory it allocated that is still held and
    its tracemalloc peak, in MiB."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held / 2 ** 20, peak / 2 ** 20


def minibatch_cost(loss_of, params) -> dict:
    """Tape nodes, median forward, backward and Adam milliseconds, the
    memory of the Adam state and the peak of one step of the minibatch
    whose loss ``loss_of()`` builds on ``params``."""
    nodes = tape_nodes(loss_of())
    state, state_mib, _ = traced_mib(lambda: nm.AdamState(params))
    times = [step(loss_of, params, state) for _ in range(REPEATS)]
    _, _, step_peak = traced_mib(lambda: step(loss_of, params, state))
    return {"nodes": nodes, "state_mib": state_mib, "step_peak_mib": step_peak} | {
        name: 1e3 * statistics.median(t) for name, t in zip(PHASES, zip(*times))}


def main() -> None:
    data_cfg = DatasetConfig()
    cfg = CaptionerConfig(vocab=build_vocabulary(data_cfg))
    params = init_captioner_params(cfg, np.random.default_rng(0))
    scenes = gen_dataset(data_cfg)
    samples = [(scene, ref) for scene in scenes for ref in scene.references]
    rng = np.random.default_rng(0)
    cost = {}
    for n in CAPTIONS:
        batch = [samples[i] for i in rng.choice(len(samples), n, replace=False)]
        cost[f"{n} captions"] = minibatch_cost(
            lambda: _minibatch_xent(batch, cfg, params), params)
    sel_cfg = SelectorConfig()
    sel_params = init_selector_params(sel_cfg, np.random.default_rng(0))
    synonyms = default_synonyms(data_cfg.classes)
    train = apply_heldout(scenes, data_cfg, synonyms).selector_train
    prepared = [scene_selector_inputs(train[i], sel_cfg, synonyms)
                for i in rng.choice(len(train), SELECTOR_SCENES, replace=False)]
    cost[f"{SELECTOR_SCENES} selector scenes"] = minibatch_cost(
        lambda: _minibatch_bce(prepared, sel_cfg, sel_params), sel_params)
    print("| minibatch | tape nodes | forward ms | backward ms | adam_step ms "
          "| Adam state MiB | step peak MiB |")
    print("|---|---|---|---|---|---|---|")
    for name, c in cost.items():
        print(f"| {name} | {c['nodes']} | {c['forward']:.2f} | {c['backward']:.2f} "
              f"| {c['adam']:.2f} | {c['state_mib']:.2f} | {c['step_peak_mib']:.2f} |")
    keys = {f"{name}_ms_p50": name for name in PHASES} | {
        k: k for k in ("nodes", "state_mib", "step_peak_mib")}
    print(json.dumps({"repeats": REPEATS}
                     | {key: {row: round(c[field], 4) for row, c in cost.items()}
                        for key, field in keys.items()}))


if __name__ == "__main__":
    main()
