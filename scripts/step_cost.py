"""Time one cached decoder step by the number of prefixes it scores.

Usage: ``python scripts/step_cost.py`` (no options). On the default
``CaptionerConfig`` over the default dataset's vocabulary, with freshly
initialised weights and the first generated scene's regions, it builds the
model as ``training._scene_model`` does (from parameter arrays, so its
encode runs on ``numerics.ARRAY_OPS``) and steps
``rows`` distinct prefixes of length 4 from a cache that holds their
length-3 parents, as a grid search's column does. Each row count's cost is
the median of 30 such steps, each on a fresh copy of the cached model. It
prints a table of milliseconds per step by rows, then the same numbers as
one JSON line. It imports ``gridcap`` from the ``src`` directory next to it.
"""

import copy
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridcap.captioner import (RESERVED, CaptionerConfig,  # noqa: E402
                               SceneStepModel, encode, init_captioner_params)
from gridcap.data import DatasetConfig, build_vocabulary, gen_dataset  # noqa: E402
from gridcap.numerics import arrays_of  # noqa: E402

ROWS = (1, 8, 16, 32, 64, 128, 256, 512)
REPEATS = 30
PREFIX_LEN = 4


def cached_model(rows: int, model: SceneStepModel, rng: np.random.Generator):
    """``model`` after stepping the parents of ``rows`` distinct random
    prefixes of length ``PREFIX_LEN``, and those prefixes."""
    vocab = model.cfg.vocab
    words = list(itertools.product(range(len(RESERVED), len(vocab)),
                                   repeat=PREFIX_LEN - 1))
    prefixes = [(vocab.bos_id,) + words[i]
                for i in rng.choice(len(words), size=rows, replace=False)]
    for n in range(1, PREFIX_LEN):
        model.step(sorted({p[:n] for p in prefixes}))
    return model, prefixes


def step_ms(rows: int, cfg, params, enc, rng) -> float:
    cached, prefixes = cached_model(rows, SceneStepModel(enc, cfg, params), rng)
    times = []
    for _ in range(REPEATS):
        model = copy.copy(cached)  # a step replaces the cache, never edits it
        start = time.perf_counter()
        model.step(prefixes)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> None:
    data_cfg = DatasetConfig()
    cfg = CaptionerConfig(vocab=build_vocabulary(data_cfg))
    params = arrays_of(init_captioner_params(cfg, np.random.default_rng(0)))
    scene = gen_dataset(data_cfg)[0]
    enc = encode(np.array(scene.region_visual), cfg, params)
    rng = np.random.default_rng(0)
    cost = {rows: step_ms(rows, cfg, params, enc, rng) for rows in ROWS}
    print("| rows | " + " | ".join(str(r) for r in ROWS) + " |")
    print("|---|" + "---|" * len(ROWS))
    print("| ms | " + " | ".join(f"{cost[r]:.2f}" for r in ROWS) + " |")
    print(json.dumps({"prefix_len": PREFIX_LEN, "repeats": REPEATS,
                      "step_ms_p50": {str(r): round(ms, 4) for r, ms in cost.items()}}))


if __name__ == "__main__":
    main()
