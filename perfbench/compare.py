"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines written by ``run.py --out FILE`` (any number of
workloads and seeds).  For every workload and end-to-end metric it prints one
row with each side's median and quartiles, and flags the metric when NEW's
median is worse than BASE's by more than the bound in BENCHMARK.json.  When
BASE's own quartile spread is wider than the bound the row says
"unresolved" instead of "ok".  Exits 1 if any metric is flagged.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def load(path: str) -> dict:
    """{workload: {metric: [values]}} from the untraced result lines."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            per = runs.setdefault(rec["workload"], {})
            for name, m in rec["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return runs


def summary(values: list):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    base, new = load(argv[0]), load(argv[1])
    flagged = 0
    print(f"{'workload':16s} {'metric':14s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'change':>8s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            bq1, bmed, bq3 = summary(base[workload][name])
            nq1, nmed, nq3 = summary(new[workload][name])
            change = (nmed - bmed) / bmed
            worse = change if metric["better"] == "lower" else -change
            if worse > metric["bound"]:
                verdict = f"WORSE (bound {metric['bound']})"
                flagged += 1
            elif (bq3 - bq1) / bmed > metric["bound"]:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print(f"{workload:16s} {name:14s} "
                  f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':>32s} "
                  f"{f'{nmed:.4g} [{nq1:.4g}, {nq3:.4g}]':>32s} "
                  f"{change:+8.1%}  {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
