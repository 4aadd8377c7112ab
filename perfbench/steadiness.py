"""Check that the benchmark is steady: two sets of runs of the same code.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py                               # every workload
    python3 perfbench/steadiness.py --workloads fig8_layer10_vec  # a subset

Each run is ``BENCHMARK.json``'s command with ``--trace 0``. Each set has
ten runs, and run ``i`` of both sets uses seed ``100 + i``. The two sets
are interleaved: run ``i`` of one set follows run ``i`` of the other, and
which set goes first alternates with ``i``, so a slow spell of the host
falls on both sets alike instead of on one set's median.

For every workload and end-to-end metric it prints every run pair, then
per set the median and the spread (first-to-third quartile distance over
the median, as ``statistics.quantiles(values, n=4)`` gives the quartiles)
against the metric's bound, then how much the second set's median is
worse than the first's. It also compares the share of failed operations
between sets.

Every spread must stay within its metric's bound, the drift between the
sets' medians within the bound, and the failed shares must be equal. The
exit code is 1 when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import stats

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10
SEED_BASE = 100


def one_run(command: List[str], workload: str, seed: int, seconds: int) -> Dict:
    args = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(args, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def interleaved(runs: int) -> List[List[int]]:
    """Set indices in the order to run them, one list per run index: set 1
    first on even indices, set 2 first on odd ones."""
    order = list(range(SETS))
    return [order if i % 2 == 0 else order[::-1] for i in range(runs)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        sets: List[List[Dict]] = [[] for _ in range(SETS)]
        for i, order in enumerate(interleaved(RUNS)):
            for set_index in order:
                result = one_run(spec["command"], workload, SEED_BASE + i, spec["run_seconds"])
                sets[set_index].append(result)
            print(
                f"{workload} run {i + 1} (seed {SEED_BASE + i}, set {order[0] + 1} first): "
                + " ".join(
                    f"{m['name']}="
                    + "/".join(f"{s[i]['metrics'][m['name']]['value']:.4f}" for s in sets)
                    for m in metrics
                ),
                flush=True,
            )
        print(f"== {workload}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                mid, spr = stats.median(values), stats.spread(values)
                medians.append(mid)
                steady = spr <= bound
                ok = ok and steady
                print(
                    f"  {name:<16s} set {set_index + 1}: median {mid:12.4f} {metric['unit']:<4s}"
                    f" spread {spr:6.3f} (bound {bound}, a third {bound / 3:.3f})"
                    f"{'' if steady else '  SPREAD OVER BOUND'}"
                )
            drift = stats.worsening(medians[0], medians[1], metric["better"])
            held = drift <= bound
            ok = ok and held
            print(
                f"  {name:<16s} second set worse by {drift:+.3f} (bound {bound})"
                f"{'' if held else '  DRIFT OVER BOUND'}"
            )
        shares = [
            (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
            for results in sets
        ]
        equal = all(f * shares[0][1] == shares[0][0] * a for f, a in shares)
        correct = all(r["correct"] for results in sets for r in results)
        ok = ok and equal and correct
        print(
            f"  failed/attempted per set: {shares}"
            f"{'' if equal else '  SHARES DIFFER'}; all correct: {correct}"
        )
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
