"""The benchmark's own arithmetic: medians, spreads, self times, tallies.

Kept free of any import from the program under test, so the harness tests
(``test_harness.py``) check it without building anything.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: ``(name, start_s, end_s, parent_index)``; the parent
#: index is ``-1`` for a root span. Spans are strictly nested per thread.
Span = Tuple[str, float, float, int]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the same rule the steadiness check applies. Fewer than two
    values have no spread.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    if mid == 0.0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(mid)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Negative when ``second`` is better. ``better`` is ``"lower"`` or
    ``"higher"``.
    """
    if first == 0.0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    if better == "lower":
        return change
    if better == "higher":
        return -change
    raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")


def self_times(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """Per span name: ``(self seconds, calls)``.

    A span's self time is its duration minus the durations of its direct
    children. Because children nest inside their parent, the self times of
    all spans add up to the summed duration of the root spans.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, Tuple[float, int]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        seconds, calls = totals.get(name, (0.0, 0))
        totals[name] = (seconds + (end - start) - child_time[index], calls + 1)
    return totals


def root_seconds(spans: Iterable[Span]) -> float:
    """Summed duration of the root spans: the time some span covers."""
    return sum(end - start for _name, start, end, parent in spans if parent < 0)


def tally(rounds: Sequence[Optional[Dict[str, bool]]], names: Sequence[str]) -> Tuple[int, int]:
    """``(attempted, failed)`` over rounds of named checks.

    Every round attempts every name in ``names``. A round given as ``None``
    (its process crashed or timed out) fails all of them, as does any name
    missing from a round's results.
    """
    attempted = failed = 0
    for checks in rounds:
        for name in names:
            attempted += 1
            if checks is None or not checks.get(name, False):
                failed += 1
    return attempted, failed


def parse_importtime(lines: Iterable[str]) -> Dict[str, float]:
    """Summarise ``python -X importtime`` lines of one import phase.

    Returns ``modules`` (modules imported) and ``scipy_s`` (cumulative
    seconds of every ``scipy`` import not nested in another ``scipy``
    import, i.e. all the time SciPy cost). Other stderr lines are ignored.
    """
    entries: List[Tuple[int, str, float]] = []
    for line in lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header row
        raw = fields[2].rstrip("\n")
        name = raw.lstrip(" ")
        entries.append((len(raw) - len(name), name.strip(), int(fields[1]) * 1e-6))
    # A module's line follows those of the modules it imported, which are
    # indented deeper: walking backwards meets every ancestor first.
    scipy_s = 0.0
    ancestors: List[Tuple[int, bool]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(flag for _depth, flag in ancestors):
            scipy_s += cumulative
        ancestors.append((depth, is_scipy))
    return {"modules": float(len(entries)), "scipy_s": scipy_s}
