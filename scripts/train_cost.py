"""Time one packed pre-training minibatch of the captioner: its forward,
backward and Adam update, by the number of captions it packs.

Usage: ``python scripts/train_cost.py`` (no options). It pins one BLAS
thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1 before numpy is imported), as
``bench/run.py`` does. On the default ``CaptionerConfig`` over the default
dataset's vocabulary, with freshly initialised weights, each row count of
``CAPTIONS`` draws that many (scene, reference) samples of the generated
scenes, seeded, and packs them as ``pretrain_captioner`` does: one encoder
and one decoder pass (``training._minibatch_xent``). Each phase's cost is
the median of ``REPEATS`` timed minibatches: the forward that builds the
loss, ``numerics.backward`` through it, and one ``adam_step`` on the
gradients. It also counts the loss graph's tape nodes (the tensors an op
recorded). It prints a table of nodes and milliseconds by captions, then
the same numbers as one JSON line (``nodes``, ``forward_ms_p50``,
``backward_ms_p50`` and ``adam_ms_p50``). It imports ``gridcap`` from the
``src`` directory next to it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridcap import numerics as nm  # noqa: E402
from gridcap.captioner import CaptionerConfig, init_captioner_params  # noqa: E402
from gridcap.data import DatasetConfig, build_vocabulary, gen_dataset  # noqa: E402
from gridcap.training import _minibatch_xent  # noqa: E402

CAPTIONS = (8, 16)
REPEATS = 100
LR = 1e-6  # small enough that the repeated updates leave the work as it was


def tape_nodes(loss: nm.Tensor) -> int:
    """Tensors an op recorded in the graph of ``loss``, the loss included."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p._vjp is not None and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def minibatch_cost(samples, cfg, params) -> dict:
    """Tape nodes and median forward, backward and Adam milliseconds of
    the packed minibatch of ``samples``."""
    state = nm.AdamState()
    nodes = tape_nodes(_minibatch_xent(samples, cfg, params))
    times = {"forward": [], "backward": [], "adam": []}
    for _ in range(REPEATS):
        start = time.perf_counter()
        loss = _minibatch_xent(samples, cfg, params)
        built = time.perf_counter()
        nm.backward(loss)
        walked = time.perf_counter()
        nm.adam_step(params, state, LR)
        times["forward"].append(built - start)
        times["backward"].append(walked - built)
        times["adam"].append(time.perf_counter() - walked)
        nm.zero_grads(params)
    return {"nodes": nodes} | {name: 1e3 * statistics.median(t)
                               for name, t in times.items()}


def main() -> None:
    data_cfg = DatasetConfig()
    cfg = CaptionerConfig(vocab=build_vocabulary(data_cfg))
    params = init_captioner_params(cfg, np.random.default_rng(0))
    samples = [(scene, ref) for scene in gen_dataset(data_cfg) for ref in scene.references]
    rng = np.random.default_rng(0)
    cost = {n: minibatch_cost([samples[i] for i in rng.choice(len(samples), n,
                                                              replace=False)],
                              cfg, params)
            for n in CAPTIONS}
    print("| captions | tape nodes | forward ms | backward ms | adam_step ms |")
    print("|---|---|---|---|---|")
    for n, c in cost.items():
        print(f"| {n} | {c['nodes']} | {c['forward']:.2f} | {c['backward']:.2f} "
              f"| {c['adam']:.2f} |")
    print(json.dumps({"repeats": REPEATS,
                      "nodes": {str(n): c["nodes"] for n, c in cost.items()}}
                     | {f"{name}_ms_p50": {str(n): round(c[name], 4)
                                           for n, c in cost.items()}
                        for name in ("forward", "backward", "adam")}))


if __name__ == "__main__":
    main()
