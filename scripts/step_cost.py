"""Time building a scene's step model, one cached decoder step by the
number of prefixes it scores, and one grid search by its constraint count.

Usage: ``python scripts/step_cost.py`` (no options). On the default
``CaptionerConfig`` over the default dataset's vocabulary, with freshly
initialised weights and the first generated scene's regions, it encodes the
scene as ``training._search_scene`` does (from parameter arrays, so the
encode runs on ``numerics.ARRAY_OPS``). A build folds the scene's
cross-attention into the model's weights, so it moves work out of every
step: its cost is the median of ``REPEATS`` builds of ``SceneStepModel``
on that cached encode. The model then steps ``rows`` distinct prefixes of
length 4 from a cache that holds their length-3 parents, as a grid
search's column does. Each row count's cost is the median of ``REPEATS``
such steps, each on a fresh copy of the cached model. Each constraint
count c in 0..5 then times ``REPEATS`` searches of the scene constrained
to the dataset's first c class words, as evaluation runs them
(``run_grid_search`` with beam ``BEAM`` = 5, ``n_best=1`` and the full
budget ``max_len - 1``); the column bookkeeping between steps is the part
of that time the step table does not show. It prints a table of
milliseconds per build and per step by rows, and a table of the median
search milliseconds with each search's ``step_calls``, ``step_rows``,
``offered`` and ``kept`` by constraint count, then the same numbers as
one JSON line (``build_ms_p50``, ``step_ms_p50`` and ``search``). It pins
one BLAS thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1 before numpy is imported), as ``bench/run.py`` does. It imports
``gridcap`` from the ``src`` directory next to it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridcap.captioner import (RESERVED, CaptionerConfig,  # noqa: E402
                               SceneStepModel, encode, init_captioner_params)
from gridcap.data import DatasetConfig, build_vocabulary, gen_dataset  # noqa: E402
from gridcap.decoder import (MAX_CONSTRAINTS, ConstraintSet,  # noqa: E402
                             run_grid_search)
from gridcap.numerics import arrays_of  # noqa: E402

ROWS = (1, 8, 16, 32, 64, 128, 256, 512)
COUNTS = tuple(range(MAX_CONSTRAINTS + 1))
REPEATS = 30
PREFIX_LEN = 4
BEAM = 5
SEARCH_COUNTERS = ("step_calls", "step_rows", "offered", "kept")


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


def build_ms(cfg, params, enc) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        SceneStepModel(enc, cfg, params)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def search_cost(count: int, model: SceneStepModel, words) -> dict:
    """Median ms of ``REPEATS`` searches constrained to ``words[:count]``,
    with one search's counters."""
    constraints = ConstraintSet.from_words(words[:count], model.cfg.vocab)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run_grid_search(model, constraints, k=BEAM, T=model.cfg.max_len - 1,
                                 n_best=1)
        times.append(time.perf_counter() - start)
    return {"ms_p50": round(1e3 * statistics.median(times), 4),
            **{name: getattr(result, name) for name in SEARCH_COUNTERS}}


def main() -> None:
    data_cfg = DatasetConfig()
    cfg = CaptionerConfig(vocab=build_vocabulary(data_cfg))
    params = arrays_of(init_captioner_params(cfg, np.random.default_rng(0)))
    scene = gen_dataset(data_cfg)[0]
    enc = encode(np.array(scene.region_visual), cfg, params)
    rng = np.random.default_rng(0)
    build = build_ms(cfg, params, enc)
    cost = {rows: step_ms(rows, cfg, params, enc, rng) for rows in ROWS}
    model = SceneStepModel(enc, cfg, params)  # a search starts a fresh cache
    search = {count: search_cost(count, model, data_cfg.classes) for count in COUNTS}
    print("| rows | build | " + " | ".join(str(r) for r in ROWS) + " |")
    print("|---|---|" + "---|" * len(ROWS))
    print(f"| ms | {build:.2f} | " + " | ".join(f"{cost[r]:.2f}" for r in ROWS) + " |")
    print()
    print("| constraints | " + " | ".join(str(c) for c in COUNTS) + " |")
    print("|---|" + "---|" * len(COUNTS))
    print("| search ms | " + " | ".join(f"{search[c]['ms_p50']:.2f}" for c in COUNTS)
          + " |")
    for name in SEARCH_COUNTERS:
        print(f"| {name} | " + " | ".join(str(search[c][name]) for c in COUNTS) + " |")
    print(json.dumps({"prefix_len": PREFIX_LEN, "repeats": REPEATS, "beam": BEAM,
                      "build_ms_p50": round(build, 4),
                      "step_ms_p50": {str(r): round(ms, 4) for r, ms in cost.items()},
                      "search": {str(c): s for c, s in search.items()}}))


if __name__ == "__main__":
    main()
