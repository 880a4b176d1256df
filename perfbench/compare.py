"""Summarise benchmark results, or compare two sets of them.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds result lines, the last line that ``run.py`` prints, one per
run. For every metric the script prints the median and quartiles of each
set and their spread (quartile distance over median). Given two sets it
adds the change's median over the base's and, for the end-to-end metrics
of BENCHMARK.json, whether the change is worse than its bound allows.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """metric -> list of values, in file order."""
    values = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                for name, m in json.loads(line)["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
    return values


def summary(xs):
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], None, xs[0])
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sets = [load(p) for p in argv]
    for name in sets[0]:
        cols = []
        print(f"{name:36s}", end="")
        for values in sets:
            med, q1, q3, spread = summary(values.get(name) or [float("nan")])
            cols.append(med)
            print(f" | median {med:10.5g} q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.4f}", end="")
        if len(sets) == 2 and cols[0]:
            ratio = cols[1] / cols[0]
            verdict = ""
            if name in declared:
                worse = ratio - 1 if declared[name]["better"] == "lower" else 1 - ratio
                verdict = "  WORSE than bound" if worse > declared[name]["bound"] else "  within bound"
            print(f" | change/base {ratio:7.4f}{verdict}", end="")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
