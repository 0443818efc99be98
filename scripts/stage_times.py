"""Time the five CLI stages on the default config and print their quality.

Usage: ``python scripts/stage_times.py`` (no options). It runs ``gen-data``,
``train-selector``, ``train-captioner``, ``finetune`` and ``eval --mode
selector`` in-process, in that order, at seed 0, in a temporary directory
that it removes afterwards. It prints each stage's wall time (``wall_s``,
measured around the stage's ``cli.main`` call, artifact reads and writes
included) and Adam steps (``updates``, summed over the stage's epoch
records; ``-`` for a stage that trains nothing), and the process's peak
resident set size after it (``peak_rss_mb``, in MiB, from
``resource.getrusage``). All stages run in one process, so that peak is a
running maximum: a stage's figure is the highest RSS of it and of every
stage before it. Then it prints the quality the stages report: the last
selector epoch's val-F1, the last pre-training epoch's val-ppl, each
fine-tuning epoch's val CIDEr-D, and selector-mode out-domain F1, CIDEr-D
and constraint satisfaction on the test split. Last it prints the search
work the stages report, as ``decoder`` counts (``step_calls``,
``step_rows``, ``offered``, ``kept`` and ``unfinished_fallbacks``): each
fine-tuning epoch's training searches (``search_decoder``) and validation
pass (``val_decoder``), and eval's searches. The last line holds the same
numbers as one JSON object. It pins one BLAS thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1 before numpy is imported), as ``bench/run.py`` does. It imports
``gridcap`` from the ``src`` directory next to it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridcap import cli  # noqa: E402

# (stage name, CLI arguments after the config, report holding its epochs)
STAGES = (
    ("gen-data", [], None),
    ("train-selector", [], "selector_report.json"),
    ("train-captioner", [], "captioner_report.json"),
    ("finetune", [], "finetune_report.json"),
    ("eval", ["--mode", "selector"], None),
)
DECODER_COUNTS = ("step_calls", "step_rows", "offered", "kept",
                  "unfinished_fallbacks")


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    stages = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"seed": 0, "out_dir": os.path.join(tmp, "run")}, fh)

        def report(name):
            with open(os.path.join(tmp, "run", name), encoding="utf-8") as fh:
                return json.load(fh)

        for name, extra, report_name in STAGES:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([name, "--config", config, *extra])
            wall_s = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"{name} exited {code}")
            epochs = report(report_name)["phases"][0]["epochs"] if report_name else []
            stages[name] = {"wall_s": wall_s, "epochs": epochs,
                            "updates": (sum(e["updates"] for e in epochs)
                                        if report_name else None),
                            "peak_rss_mb": peak_rss_mb()}
        evaluation = report("eval_selector.json")
    quality = {
        "val_f1": stages["train-selector"]["epochs"][-1]["val_selection_f1"],
        "val_ppl": stages["train-captioner"]["epochs"][-1]["val_perplexity"],
        "finetune_val_cider_d": [e["val_cider_d"]
                                 for e in stages["finetune"]["epochs"]],
        "selector_out_domain_f1": evaluation["out_domain"]["f1_average"],
        "selector_out_domain_cider_d": evaluation["out_domain"]["cider_d"],
        "selector_satisfaction": evaluation["constraint_satisfaction"],
    }
    finetune_decoder = [{k: e[k] for k in ("search_decoder", "val_decoder")}
                        for e in stages["finetune"]["epochs"]]
    decoder = {k: evaluation["decoder"][k] for k in DECODER_COUNTS}
    print(f"{'stage':<16}{'wall_s':>8}{'updates':>9}{'peak_rss_mb':>13}")
    for name, stage in stages.items():
        updates = "-" if stage["updates"] is None else stage["updates"]
        print(f"{name:<16}{stage['wall_s']:>8.2f}{updates:>9}"
              f"{stage['peak_rss_mb']:>13.1f}")
    print(f"val-F1 {quality['val_f1']:.3f}  val-ppl {quality['val_ppl']:.2f}")
    for epoch, cider in enumerate(quality["finetune_val_cider_d"]):
        print(f"finetune epoch {epoch} val CIDEr-D {cider:.3f}")
    print(f"selector mode: out-domain F1 {quality['selector_out_domain_f1']:.3f}  "
          f"CIDEr-D {quality['selector_out_domain_cider_d']:.3f}  "
          f"satisfaction {quality['selector_satisfaction']:.3f}")

    def counts(name, work):
        print(f"{name}: " + "  ".join(f"{k} {work[k]}" for k in DECODER_COUNTS))

    for epoch, work in enumerate(finetune_decoder):
        counts(f"finetune epoch {epoch} training searches", work["search_decoder"])
        counts(f"finetune epoch {epoch} validation pass", work["val_decoder"])
    counts("selector-mode eval search", decoder)
    print(json.dumps({"stages": {n: {k: s[k] for k in ("wall_s", "updates",
                                                       "peak_rss_mb")}
                                 for n, s in stages.items()}} | quality
                     | {"finetune_decoder": finetune_decoder,
                        "eval_decoder": decoder}))


if __name__ == "__main__":
    main()
