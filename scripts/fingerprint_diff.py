"""Compare two ``scripts/fingerprint.py`` documents up to rounding.

Usage: ``python scripts/fingerprint_diff.py OLD NEW``. Prints one JSON
object:

- ``phase_hashes_equal``: per training phase, whether the checkpoint hashes
  are equal;
- ``epoch_max_rel_diff``: per phase, the largest relative difference of any
  float in its epoch records;
- ``decodes`` and ``decodes_differing``: how many decodes both documents
  hold, and how many of them differ in a field that is not a float
  (caption, tokens, finished, satisfied, counters, trace tokens);
- ``fields_differing``: per decode field, how many decodes differ in it
  (a trace that changes length counts under ``trace``), so a change that
  moves only search counters and traces reads apart from one that moves
  captions;
- ``logprob_max_abs_diff``: the largest absolute difference of any log-prob,
  trace hypotheses included (paired by position, so a trace that keeps other
  hypotheses reads large here);
- ``best_logprob_max_abs_diff``: the same over each decode's own
  ``logprob`` only;
- ``only_in_old`` and ``only_in_new``: keys found on one side only, with
  list positions written ``[]``.

Exits 1 when a field that both documents hold and that is not a float
differs (a list that changes length counts), else 0. Checkpoint hashes are
reported but leave the exit status alone, because any rounding changes
them.
"""

import json
import math
import sys


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _walk(a, b, path: tuple, visit) -> None:
    """Call ``visit(kind, path, a, b)`` for every leaf pair or one-sided key;
    kind is "float", "other", "only_old" or "only_new"."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in b:
                visit("only_old", path + (key,), a[key], None)
            elif key not in a:
                visit("only_new", path + (key,), None, b[key])
            else:
                _walk(a[key], b[key], path + (key,), visit)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, path + (i,), visit)
    elif type(a) is float and type(b) is float:
        visit("float", path, a, b)
    else:
        visit("other", path, a, b)


def _shown(path: tuple) -> str:
    return "".join("[]" if isinstance(p, int) else f".{p}" for p in path)[1:]


def compare(old: dict, new: dict) -> tuple[dict, bool]:
    """(report, whether a shared non-float field differs)."""
    hashes: dict[str, bool] = {}
    epoch_diff: dict[str, float] = {}
    differing_decodes: set[tuple] = set()
    differing_fields: dict[str, set[tuple]] = {}
    one_sided = {"only_old": set(), "only_new": set()}
    logprob_diff = best_logprob_diff = 0.0
    mismatch = False

    def visit(kind, path, a, b):
        nonlocal logprob_diff, best_logprob_diff, mismatch
        if kind in one_sided:
            one_sided[kind].add(_shown(path))
        elif path[-1] == "checkpoint_hash":
            hashes[path[1]] = a == b
        elif kind == "float" and path[-1] == "logprob":
            logprob_diff = max(logprob_diff, abs(a - b))
            if path[0] == "decodes" and len(path) == 4:
                best_logprob_diff = max(best_logprob_diff, abs(a - b))
        elif kind == "float" and path[0] == "phases":
            epoch_diff[path[1]] = max(epoch_diff.get(path[1], 0.0), _rel_diff(a, b))
        elif kind == "other" and a != b:
            mismatch = True
            if path[0] == "decodes" and len(path) > 2:
                differing_decodes.add(path[:3])
            if path[0] == "decodes" and len(path) > 3:
                differing_fields.setdefault(path[3], set()).add(path[:3])

    _walk(old, new, (), visit)
    shared = [k for k in old.get("decodes", {}) if k in new.get("decodes", {})]
    report = {
        "phase_hashes_equal": hashes,
        "epoch_max_rel_diff": epoch_diff,
        "decodes": sum(min(len(old["decodes"][k]), len(new["decodes"][k]))
                       for k in shared),
        "decodes_differing": len(differing_decodes),
        "fields_differing": {f: len(d) for f, d in sorted(differing_fields.items())},
        "logprob_max_abs_diff": logprob_diff,
        "best_logprob_max_abs_diff": best_logprob_diff,
        "only_in_old": sorted(one_sided["only_old"]),
        "only_in_new": sorted(one_sided["only_new"]),
    }
    return report, mismatch


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: fingerprint_diff.py OLD NEW", file=sys.stderr)
        return 2
    docs = []
    for name in args:
        with open(name, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    report, mismatch = compare(*docs)
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
