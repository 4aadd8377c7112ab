"""One round of one workload, in its own process.

Usage (the parent ``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py <workload> <seed> <traced 0|1>

with ``src`` on ``PYTHONPATH``. Prints one JSON line: the monotonic time at
which set-up ended, the output the parent checks, its fingerprint, the
circuit realizations run, the peak RSS, the seconds spent turning the
result into that output, and, when traced, the per-layer span summary.
The traced form is started with ``-X importtime`` and marks the import
phase on stderr so the parent can cut it out.
"""

from __future__ import annotations

import json
import resource
import sys
import time

IMPORT_BEGIN = "perfbench: import begin"
IMPORT_END = "perfbench: import end"


def main(argv) -> int:
    name, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    import importlib

    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = missing = None
    if traced:
        from spans import Tracer, install
        from stats import root_seconds, self_times

        tracer = Tracer()
        print(IMPORT_BEGIN, file=sys.stderr, flush=True)
        span = tracer.open("import.repro")
    for module in workload.imports:
        importlib.import_module(module)
    if tracer is not None:
        tracer.close(span)
        print(IMPORT_END, file=sys.stderr, flush=True)
        missing = install(tracer)

    inputs = workload.build(seed)
    ready = time.monotonic()
    result = workload.execute(inputs)
    done = time.monotonic()
    output, circuits = workload.extract(result)
    report = {
        "ready": ready,
        "output": output,
        "fingerprint": workload.fingerprint(result, output),
        "circuits": circuits,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": None,
    }
    # The benchmark's own work on the result; the parent takes it off wall.
    report["post_s"] = time.monotonic() - done
    if tracer is not None:
        from repro.runtime import PLAN_CACHE

        report["trace"] = {
            "self": self_times(tracer.spans),
            "covered_s": root_seconds(tracer.spans),
            "counts": tracer.counts,
            "plan_cache": {k: PLAN_CACHE.stats[k] for k in ("hits", "misses")},
            "missing": missing,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
