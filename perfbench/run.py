"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the root of a checkout (``src/repro`` is built from source;
there is nothing to compile)::

    python3 perfbench/run.py --workload fig3_ramsey_vec --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run repeats whole rounds until ``--seconds`` have passed (at least one).
Each round is a fresh child Python process (``child.py``) running the
workload once with the program's defaults, ``workers=1`` and BLAS/OpenMP
pinned to one thread; rounds run one after another. The end-to-end
metrics are medians over the rounds. With ``--trace 1`` one traced round
follows the untraced ones and the per-layer metrics come from it.

The parent checks every round's output against references it computes
itself, once, apart from the timed engine (``workloads.py``). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). ``--workload all`` runs every workload in trace mode and
prints both kinds, prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import stats  # noqa: E402  (sits next to this file)
from child import IMPORT_BEGIN, IMPORT_END  # noqa: E402

#: Whole-invocation limit; a round that would run past it is killed.
DEADLINE_S = 170.0

#: (name, unit, better) of the end-to-end metrics, printed with --trace 0.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("circuits_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_PASSES = ("twirl", "aligned_dd", "staggered_dd", "ca_dd", "ca_ec")
_STATEVECTOR_OPS = ("apply_gate", "apply_phases", "apply_pauli", "probability_one", "measure")

#: (name, unit, better) of the per-layer metrics, printed with --trace 1.
#: ``<span>_s`` is the self time of the spans of that name (spans.py).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("import.repro_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.modules", "count", "lower"),
    ("plan.compile_s", "s", "lower"),
    ("plan.units", "count", "lower"),
    ("plan.cache_hits", "count", "higher"),
    ("plan.cache_misses", "count", "lower"),
    ("plan.cache_hit_ratio", "ratio", "higher"),
    ("pipeline.compile_s", "s", "lower"),
    *(
        metric
        for name in _PASSES
        for metric in (
            (f"pass.{name}_s", "s", "lower"),
            (f"pass.{name}.calls", "count", "lower"),
            (f"pass.{name}.instructions_out", "instructions", "lower"),
        )
    ),
    ("schedule_s", "s", "lower"),
    ("schedule.calls", "count", "lower"),
    ("engine.build_s", "s", "lower"),
    ("engine.builds", "count", "lower"),
    ("engine.units_per_build", "units/build", "higher"),
    ("noise_plan_s", "s", "lower"),
    ("timeline_s", "s", "lower"),
    ("coherent_s", "s", "lower"),
    ("sample_s", "s", "lower"),
    ("sample.shots", "count", "lower"),
    ("engine.execute_s", "s", "lower"),
    ("sim.shots", "count", "lower"),
    *(
        metric
        for op in _STATEVECTOR_OPS
        for metric in (
            (f"statevector.{op}_s", "s", "lower"),
            (f"statevector.{op}.calls", "count", "lower"),
        )
    ),
    ("execute_plans_s", "s", "lower"),
    ("sweep_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("fit.calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.other_s", "s", "lower"),
)

#: Spans whose call count is a metric: metric name -> span name.
_CALL_COUNTS = {
    **{f"pass.{name}.calls": f"pass.{name}" for name in _PASSES},
    **{f"statevector.{op}.calls": f"statevector.{op}" for op in _STATEVECTOR_OPS},
    "schedule.calls": "schedule",
    "engine.builds": "engine.build",
    "sample.shots": "sample",
    "fit.calls": "fit",
}


@dataclass
class Round:
    """One child process: its timings and, unless it failed, its report."""

    wall_s: float
    setup_s: float = 0.0
    report: Optional[Dict] = None
    stderr: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.report is not None


#: One BLAS/OpenMP thread everywhere: a second thread would compete with
#: the other core's tenant and make timings depend on the machine's load.
SINGLE_THREAD = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def child_env() -> Dict[str, str]:
    env = {**os.environ, **SINGLE_THREAD}
    # Rounds load the bytecode cache the parent wrote, whatever the caller set.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_round(name: str, seed: int, traced: bool, timeout: float) -> Round:
    """Start one child, wait for it to exit, and time it from outside."""
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), name, str(seed), "1" if traced else "0"]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Round(wall_s=time.monotonic() - start, error="timed out")
    finally:
        if proc.poll() is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    wall = time.monotonic() - start
    if proc.returncode != 0:
        return Round(wall_s=wall, stderr=err, error=f"exit code {proc.returncode}")
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        return Round(wall_s=wall, stderr=err, error=f"unreadable report: {exc}")
    # Wall time is the child's life minus the benchmark's own output
    # extraction and hashing, which no user of the program would run.
    wall -= report["post_s"]
    return Round(wall_s=wall, setup_s=report["ready"] - start, report=report, stderr=err)


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """Medians over the rounds that completed."""
    done = [r for r in rounds if r.ok]
    if not done:
        return {}
    return {
        "wall_s": stats.median([r.wall_s for r in done]),
        "setup_s": stats.median([r.setup_s for r in done]),
        "circuits_per_s": stats.median(
            [r.report["circuits"] / (r.wall_s - r.setup_s) for r in done]
        ),
        "peak_rss_mb": stats.median([r.report["rss_mb"] for r in done]),
    }


def per_layer(traced: Round, untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced round."""
    trace = traced.report["trace"]
    selfs = {name: tuple(v) for name, v in trace["self"].items()}
    counts = trace["counts"]
    lines = traced.stderr.splitlines()
    try:
        begin = lines.index(IMPORT_BEGIN) + 1
        end = lines.index(IMPORT_END)
    except ValueError:
        begin = end = 0
    imports = stats.parse_importtime(lines[begin:end])

    def self_s(span: str) -> float:
        return selfs.get(span, (0.0, 0))[0]

    def calls(span: str) -> int:
        return selfs.get(span, (0.0, 0))[1]

    hits, misses = trace["plan_cache"]["hits"], trace["plan_cache"]["misses"]
    values: Dict[str, float] = {
        "import.scipy_s": imports["scipy_s"],
        "import.modules": imports["modules"],
        "plan.units": counts.get("plan.units", 0.0),
        "plan.cache_hits": hits,
        "plan.cache_misses": misses,
        "plan.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.units_per_build": (
            calls("engine.execute") / calls("engine.build") if calls("engine.build") else 0.0
        ),
        "sim.shots": counts.get("sim.shots", 0.0),
        "trace.overhead_s": traced.wall_s - untraced_wall_s,
        "trace.other_s": traced.wall_s - trace["covered_s"],
    }
    for name in _PASSES:
        n = calls(f"pass.{name}")
        total = counts.get(f"pass.{name}.instructions", 0.0)
        values[f"pass.{name}.instructions_out"] = total / n if n else 0.0
    for metric, span in _CALL_COUNTS.items():
        values[metric] = calls(span)
    for metric, _unit, _better in PER_LAYER:
        if metric not in values:
            values[metric] = self_s(metric[: -len("_s")])
    return values


def measure(name: str, seed: int, seconds: float, trace: bool, started: float) -> Dict:
    """Run one workload; returns the JSON result plus both metric sets."""
    import workloads

    workload = workloads.WORKLOADS[name]
    for module in workload.imports:  # their bytecode too is cached before timing
        importlib.import_module(module)
    try:
        refs = workload.references(seed)
    except Exception:  # a broken reference fails the checks that need it
        traceback.print_exc()
        refs = None
    names = workload.check_names()

    rounds: List[Round] = []
    t0 = time.monotonic()
    while True:
        left = DEADLINE_S - (time.monotonic() - started)
        rounds.append(run_round(name, seed, traced=False, timeout=left))
        if not rounds[-1].ok or time.monotonic() - t0 >= seconds:
            break
    traced = None
    if trace:
        left = DEADLINE_S - (time.monotonic() - started)
        traced = run_round(name, seed, traced=True, timeout=left)
        rounds.append(traced)

    checked: List[Optional[Dict[str, bool]]] = []
    for r in rounds:
        if not r.ok:
            sys.stderr.write(f"{name}: round failed ({r.error})\n{r.stderr[-4000:]}\n")
            checked.append(None)
            continue
        try:
            result = workload.check(r.report["output"], refs)
        except Exception:  # a malformed output fails that round's checks
            traceback.print_exc()
            result = None
        checked.append(result)
    attempted, failed = stats.tally(checked, names)
    for result in checked:
        for check in names:
            if result is not None and not result.get(check, False):
                sys.stderr.write(f"{name}: check failed: {check}\n")

    # Same seed, same program: every round, traced or not, must produce
    # the same bits.
    prints = {r.report["fingerprint"] for r in rounds if r.ok}
    identical = len(prints) <= 1
    if not identical:
        sys.stderr.write(f"{name}: rounds disagree ({len(prints)} distinct outputs)\n")
    checks_passed = all(c is not None and all(c.values()) for c in checked)
    e2e = end_to_end([r for r in rounds if r is not traced])
    layers = per_layer(traced, e2e["wall_s"]) if traced is not None and traced.ok and e2e else {}
    if traced is not None and traced.ok and traced.report["trace"]["missing"]:
        sys.stderr.write(
            f"{name}: not traced, the program lacks: {traced.report['trace']['missing']}\n"
        )
    return {
        "correct": identical and checks_passed,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "end_to_end": e2e,
        "per_layer": layers,
    }


def _metrics(values: Dict[str, float], table, prefix: str = "") -> Dict:
    return {
        f"{prefix}{name}": {"value": float(values[name]), "unit": unit}
        for name, unit, _better in table
        if name in values
    }


def _print_table(name: str, result: Dict) -> None:
    print(
        f"# {name}: {result['rounds']} rounds, attempted {result['attempted']}, "
        f"failed {result['failed']}, correct {result['correct']}"
    )
    for kind, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for metric, unit, _better in table:
            if metric in result[kind]:
                print(f"{name:>18s}  {metric:<34s} {result[kind][metric]:>14.6f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # The parent imports the program too: its references need it, and the
    # import writes the bytecode cache before any round is timed, as a
    # user's installed package would have it.
    os.environ.update(SINGLE_THREAD)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    try:
        import repro  # noqa: F401
        import workloads
    except ImportError:
        traceback.print_exc()
        return 2

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}")

    trace = bool(args.trace) or len(names) > 1
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    complete = True
    for name in names:
        # Each workload has the whole invocation limit when run alone.
        clock = started if len(names) == 1 else time.monotonic()
        result = measure(name, args.seed, args.seconds, trace, clock)
        _print_table(name, result)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        complete = complete and len(result["end_to_end"]) == len(END_TO_END)
        complete = complete and (not trace or len(result["per_layer"]) == len(PER_LAYER))
        if len(names) > 1:
            summary["metrics"].update(_metrics(result["end_to_end"], END_TO_END, f"{name}/"))
            summary["metrics"].update(_metrics(result["per_layer"], PER_LAYER, f"{name}/"))
        elif args.trace:
            summary["metrics"] = _metrics(result["per_layer"], PER_LAYER)
        else:
            summary["metrics"] = _metrics(result["end_to_end"], END_TO_END)
    print(json.dumps(summary))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
