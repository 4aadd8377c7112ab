"""In-memory span tracing of the program's layers, wrapped from outside.

The benchmark never edits the program: :func:`install` replaces each
layer's public function or method with a wrapper that records a span
around the call and counts the work it did. Spans stay in memory and the
child process writes them out, summarised, when its round ends.

Each target names the ``repro`` module that defines it. A plain function
is rebound in the modules that look it up (``"*"``: every loaded ``repro``
module holding the same object), so the wrapper sees exactly the calls the
program makes there. A target the program no longer has is skipped and
reported, so its layer reads zero instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from stats import Span


class Tracer:
    """Records nested spans and counters for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._thread = threading.get_ident()

    def open(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            raise RuntimeError(
                f"span {name!r} opened off the main thread; the benchmark "
                "runs the program single-threaded (workers=1)"
            )
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        name, start, _end, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {name!r} closed out of order")

    def innermost(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``.

        A call made directly inside a span of the same name (a subclass
        constructor calling its base one) is not a new span. ``after``
        receives the result, outside the span, to count the work done.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.innermost() == name:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, result)
            return result

        return wrapper


def _instructions(circuit) -> int:
    return sum(len(moment) for moment in circuit.moments)


def _count_units(tracer: Tracer, plans) -> None:
    tracer.count("plan.units", sum(len(plan.units) for plan in plans))


def _count_shots(tracer: Tracer, result) -> None:
    tracer.count("sim.shots", result.shots)


def _pass_counter(short: str) -> Callable[[Tracer, Any], None]:
    def after(tracer: Tracer, circuit) -> None:
        tracer.count(f"pass.{short}.instructions", _instructions(circuit))

    return after


#: Functions: (defining module, name, span, modules that look it up, after).
FUNCTIONS: Sequence[Tuple[str, str, str, Sequence[str], Any]] = (
    ("repro.runtime.plan", "compile_tasks", "plan.compile", ("*",), _count_units),
    ("repro.circuits.schedule", "schedule", "schedule", ("*",), None),
    ("repro.sim.sampling", "build_noise_plan", "noise_plan", ("repro.sim.executor",), None),
    ("repro.sim.timeline", "build_timeline", "timeline", ("repro.sim.executor",), None),
    ("repro.sim.coherent", "accumulate_coherent", "coherent", ("repro.sim.executor",), None),
    (
        "repro.sim.sampling",
        "sample_shot",
        "sample",
        ("repro.sim.executor", "repro.sim.vectorized"),
        None,
    ),
    (
        "repro.utils.fitting",
        "fit_exponential_decay",
        "fit",
        ("repro.benchmarking.layer_fidelity",),
        None,
    ),
)

#: Methods: (defining module, class, method, span, after).
METHODS: Sequence[Tuple[str, str, str, str, Any]] = (
    ("repro.runtime.sweep", "Sweep", "run", "sweep", None),
    ("repro.runtime.pipeline", "Pipeline", "compile", "pipeline.compile", None),
    ("repro.runtime.passes", "Twirl", "run", "pass.twirl", _pass_counter("twirl")),
    ("repro.runtime.passes", "AlignedDD", "run", "pass.aligned_dd", _pass_counter("aligned_dd")),
    (
        "repro.runtime.passes",
        "StaggeredDD",
        "run",
        "pass.staggered_dd",
        _pass_counter("staggered_dd"),
    ),
    ("repro.runtime.passes", "CADD", "run", "pass.ca_dd", _pass_counter("ca_dd")),
    ("repro.runtime.passes", "CAEC", "run", "pass.ca_ec", _pass_counter("ca_ec")),
    ("repro.runtime.backends", "Backend", "execute_plans", "execute_plans", None),
    ("repro.sim.executor", "Executor", "__init__", "engine.build", None),
    ("repro.sim.vectorized", "VectorizedExecutor", "__init__", "engine.build", None),
    ("repro.sim.executor", "Executor", "expectations", "engine.execute", _count_shots),
    ("repro.sim.executor", "Executor", "probabilities", "engine.execute", _count_shots),
    (
        "repro.sim.vectorized",
        "VectorizedExecutor",
        "expectations",
        "engine.execute",
        _count_shots,
    ),
    (
        "repro.sim.vectorized",
        "VectorizedExecutor",
        "probabilities",
        "engine.execute",
        _count_shots,
    ),
    ("repro.sim.statevector", "StateVector", "apply_gate", "statevector.apply_gate", None),
    ("repro.sim.statevector", "StateVector", "apply_phases", "statevector.apply_phases", None),
    ("repro.sim.statevector", "StateVector", "apply_pauli", "statevector.apply_pauli", None),
    (
        "repro.sim.statevector",
        "StateVector",
        "probability_one",
        "statevector.probability_one",
        None,
    ),
    ("repro.sim.statevector", "StateVector", "measure", "statevector.measure", None),
)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(tracer: Tracer) -> List[str]:
    """Wrap every traced layer; returns the targets the program lacks."""
    missing: List[str] = []
    for module_name, attr, span, lookups, after in FUNCTIONS:
        module = _module(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(original, span, after)
        if tuple(lookups) == ("*",):
            homes = [
                mod
                for key, mod in list(sys.modules.items())
                if mod is not None and (key == "repro" or key.startswith("repro."))
            ]
        else:
            homes = [mod for mod in map(_module, lookups) if mod is not None]
        rebound = 0
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    setattr(home, key, wrapper)
                    rebound += 1
        if rebound == 0:
            missing.append(f"{module_name}.{attr} (no lookup site)")
    for module_name, cls_name, method, span, after in METHODS:
        module = _module(module_name)
        cls = getattr(module, cls_name, None) if module is not None else None
        original = cls.__dict__.get(method) if cls is not None else None
        if original is None:
            missing.append(f"{module_name}.{cls_name}.{method}")
            continue
        setattr(cls, method, tracer.wrap(original, span, after))
    return missing
