"""The benchmark's workloads: inputs, the timed call, outputs and checks.

Each workload runs in a fresh child process (``child.py``):

1. ``imports`` are loaded (``import repro`` first);
2. ``build(seed)`` makes the inputs; set-up ends here;
3. ``execute(inputs)`` is the call into the program;
4. ``extract(result)`` turns the result into plain JSON values.

The parent (``run.py``) computes ``references(seed)`` once per invocation,
apart from the timed engine, and judges every round's output with
``check(output, refs)``: a dict from check name to pass/fail. Every round
attempts the same ``check_names()``, so the share of failed checks does
not depend on the seed or on how many rounds fit in a run.

Nothing here imports the program, or NumPy, at module level: the child
imports them itself, inside the span that times the import.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import replace
from typing import Any, Dict, List, Sequence, Tuple

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def digest(value: Any) -> str:
    """Content hash of a JSON-able value; floats keep every digit (repr)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def binomial_sigma(p: float, n: int) -> float:
    """Binomial error bar of a success fraction ``p`` estimated from ``n`` shots.

    A trajectory's survival probability lies in [0, 1], so its variance is
    at most ``p (1 - p)``: this bar is never narrower than the estimator's.
    """
    p = min(max(p, 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / n)


def ordered(
    high: Sequence[Tuple[float, float]], low: Sequence[Tuple[float, float]], z: float
) -> bool:
    """Whether the mean of ``high`` exceeds that of ``low`` by more than
    ``z`` error bars of the difference (a negative ``z`` allows ``high`` to
    trail by that much). Points are ``(value, error bar)`` pairs."""
    if len(high) != len(low) or not high:
        raise ValueError("ordered() needs two equally long, non-empty series")
    k = len(high)
    gap = sum(v for v, _e in high) / k - sum(v for v, _e in low) / k
    bar = math.sqrt(sum(e * e for _v, e in high) + sum(e * e for _v, e in low)) / k
    return gap > z * bar


def in_unit_interval(value: float) -> bool:
    return 0.0 <= value <= 1.0 + 1e-12


class Workload:
    """One benchmark workload; subclasses fill in every step."""

    name = ""
    #: Modules the child imports (and times) before building inputs.
    imports: Tuple[str, ...] = ("repro",)

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def execute(self, inputs: Any) -> Any:
        raise NotImplementedError

    def extract(self, result: Any) -> Tuple[Dict, int]:
        """``(output, circuit realizations run)``."""
        raise NotImplementedError

    def fingerprint(self, result: Any, output: Dict) -> str:
        """Hash of everything the program produced (bit-identity checks)."""
        return digest(output)

    def references(self, seed: int) -> Any:
        return None

    def check_names(self) -> List[str]:
        raise NotImplementedError

    def check(self, output: Dict, refs: Any) -> Dict[str, bool]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# fig3: Ramsey error contexts on the vectorized engine
# ---------------------------------------------------------------------------


class Fig3Ramsey(Workload):
    """``run_fig3``'s grid at the CLI's full size, on ``vectorized``.

    The sweep is the one ``run_fig3`` declares, built here so that the seed
    drives only the twirls and shots: ``run_fig3(seed=s)`` would also redraw
    each device's calibration, and the paper's orderings are claims about
    its device (on calibration draw 2, CA-DD and no suppression tie on case
    II at depth 20). The devices keep ``run_fig3``'s default calibration.
    """

    name = "fig3_ramsey_vec"
    imports = ("repro", "repro.experiments.fig3")
    depths = (0, 4, 8, 12, 16, 20)
    shots = 32
    realizations = 6
    device_seed = 1001  # run_fig3's default; each case adds its qubit count
    density_depths = (8,)  # one mid depth: the exact engine takes ~0.6 s a depth per case
    z = 4.0  # error bars allowed between a sampled point and the exact one

    def _sweep(self, seed: int, depths: Sequence[int]):
        from repro.benchmarking.ramsey import CASE_I, ramsey_task
        from repro.device.calibration import synthetic_device
        from repro.device.topology import linear_chain
        from repro.experiments.fig3 import CASE_STRATEGIES, CASES
        from repro.runtime import Sweep

        devices = {
            name: synthetic_device(
                linear_chain(case.num_qubits),
                name=f"fig3_{name}",
                seed=self.device_seed + case.num_qubits,
            )
            for name, case in CASES.items()
        }
        strategies = list(
            dict.fromkeys(s for name in CASES for s in CASE_STRATEGIES[name])
        )

        def build(case, strategy, depth):
            if strategy not in CASE_STRATEGIES[case]:
                return None
            twirl = case != CASE_I.name
            return ramsey_task(
                CASES[case],
                devices[case],
                depth,
                strategy,
                twirl=twirl,
                realizations=self.realizations if twirl else 1,
                seed=seed,
            )

        axes = {"case": list(CASES), "strategy": strategies, "depth": list(depths)}
        return Sweep(axes, build, name="fig3")

    def build(self, seed):
        from repro.sim.executor import SimOptions

        return self._sweep(seed, self.depths), SimOptions(shots=self.shots)

    def execute(self, inputs):
        sweep, options = inputs
        return sweep.run(options=options, backend="vectorized", workers=1)

    @staticmethod
    def _points(swept) -> Tuple[Dict[str, Dict], int]:
        points = {}
        for (case, strategy, depth), result in zip(swept.coords, swept.batch.results):
            points[f"{case}|{strategy}|{depth}"] = {
                "f": result.values["f"],
                "error": result.errors["f"],
                "realizations": result.realizations,
            }
        return points, sum(r.realizations for r in swept.batch.results)

    def extract(self, result):
        points, circuits = self._points(result)
        return {"points": points}, circuits

    def references(self, seed):
        from repro.sim.executor import SimOptions

        swept = self._sweep(seed, self.density_depths).run(
            options=SimOptions(shots=self.shots), backend="density", workers=1
        )
        return self._points(swept)[0]

    def _keys(self) -> List[str]:
        from repro.experiments.fig3 import CASE_STRATEGIES

        return [
            f"{case}|{strategy}|{depth}"
            for case, strategies in CASE_STRATEGIES.items()
            for strategy in strategies
            for depth in self.depths
        ]

    def check_names(self):
        names = [f"range:{key}" for key in self._keys()]
        names += [
            f"density:{key}"
            for key in self._keys()
            if int(key.rsplit("|", 1)[1]) in self.density_depths
        ]
        names += list(_FIG3_ORDERINGS)
        return names

    def check(self, output, refs):
        points = output["points"]
        results: Dict[str, bool] = {}
        for key in self._keys():
            point = points.get(key)
            results[f"range:{key}"] = point is not None and in_unit_interval(point["f"])
            depth = int(key.rsplit("|", 1)[1])
            if depth not in self.density_depths:
                continue
            exact = refs.get(key) if refs else None
            ok = point is not None and exact is not None
            if ok:
                # Density units collapse; the sampled estimate pools
                # shots over every realization the point ran.
                n = self.shots * point["realizations"]
                bar = self.z * binomial_sigma(exact["f"], n) + 1.0 / n
                ok = abs(point["f"] - exact["f"]) <= bar
            results[f"density:{key}"] = ok
        for name, (case, high, low, depths, z) in _FIG3_ORDERINGS.items():
            try:
                a = [self._with_bar(points[f"{case}|{high}|{d}"]) for d in depths]
                b = [self._with_bar(points[f"{case}|{low}|{d}"]) for d in depths]
            except KeyError:
                results[name] = False
                continue
            results[name] = ordered(a, b, z)
        return results

    def _with_bar(self, point: Dict) -> Tuple[float, float]:
        """A point's value and error bar: shot noise over every shot it
        pooled, combined with the spread between its twirl realizations."""
        shot = binomial_sigma(point["f"], self.shots * point["realizations"])
        return point["f"], math.hypot(shot, point["error"])


#: The paper's qualitative Fig. 3 results: (case, better, worse, depths, z).
#: The pooled gap must exceed ``z`` error bars. Staggered DD's lead on the
#: idle pair is large (+0.6), so it must be significant. The context-aware
#: leads over twirling alone (+0.04 to +0.28 pooled over depths 12-20)
#: vary between seeds because twirled "none" swings with its six twirl
#: draws, so there the pooled gap must be positive, not significant.
_FIG3_ORDERINGS = {
    "I:staggered_dd>dd": ("case1_idle_pair", "staggered_dd", "dd", (4, 8, 12, 16, 20), 3.0),
    "II:ca_dd>none@12-20": ("case2_control_spectator", "ca_dd", "none", (12, 16, 20), 0.0),
    "II:ca_ec>none@12-20": ("case2_control_spectator", "ca_ec", "none", (12, 16, 20), 0.0),
    "III:ca_dd>none@12-20": ("case3_target_spectator", "ca_dd", "none", (12, 16, 20), 0.0),
    "III:ca_ec>none@12-20": ("case3_target_spectator", "ca_ec", "none", (12, 16, 20), 0.0),
    "IV:ca_ec>none@12-20": ("case4_adjacent_controls", "ca_ec", "none", (12, 16, 20), 0.0),
}


# ---------------------------------------------------------------------------
# fig8: 10-qubit layer fidelity on the vectorized engine
# ---------------------------------------------------------------------------


class Fig8LayerFidelity(Workload):
    """``run_fig8`` at full size on ``vectorized``.

    The same per-strategy ``measure_layer_fidelity`` calls ``run_fig8``
    makes, on the paper-shaped device with its default calibration: as for
    fig3, ``run_fig8(seed=s)`` would redraw the calibration too, and on 3 of
    10 draws the paper's LF ordering does not hold for that device.
    """

    name = "fig8_layer10_vec"
    imports = ("repro", "repro.experiments.fig8")
    depths = (1, 2, 4, 6)
    samples = 6
    shots = 12
    strategies = ("none", "dd", "ca_dd", "ca_ec")
    #: LF orderings, ``(better, worse): z``: the gap must exceed ``z`` error
    #: bars. Over 119 seeds the context-aware strategies lead none and dd
    #: on every seed (by 0.097 and 0.067 on average), so they must lead.
    #: The close pairs are not resolved at this size: ca_ec trails ca_dd on
    #: 24 seeds (by up to 1.5 bars) and dd trails none on 33 (by up to 3.1
    #: bars, as none's LF varies between seeds by 1.5 times its bar), so
    #: these may trail by at most 2 and 4 bars.
    orderings = {
        ("ca_dd", "none"): 0.0,
        ("ca_ec", "none"): 0.0,
        ("ca_dd", "dd"): 0.0,
        ("ca_ec", "dd"): 0.0,
        ("ca_ec", "ca_dd"): -2.0,
        ("dd", "none"): -4.0,
    }

    def build(self, seed):
        from repro.experiments.fig8 import fig8_device, fig8_layer
        from repro.sim.executor import SimOptions

        return fig8_layer(), fig8_device(), SimOptions(shots=self.shots), seed

    def execute(self, inputs):
        from repro.benchmarking.layer_fidelity import measure_layer_fidelity

        spec, device, options, seed = inputs
        return {
            strategy: measure_layer_fidelity(
                spec,
                device,
                strategy,
                depths=self.depths,
                samples=self.samples,
                options=options,
                seed=seed,
                backend="vectorized",
                workers=1,
            )
            for strategy in self.strategies
        }

    def extract(self, result):
        output = {
            strategy: {
                "lf": res.layer_fidelity,
                "gamma": res.gamma,
                # Per partition, per depth: the survival of every sample.
                "samples": {
                    str(part): [res.sweep.curve(str(part), depth=d) for d in self.depths]
                    for part in res.partitions
                },
            }
            for strategy, res in result.items()
        }
        circuits = sum(
            r.realizations for res in result.values() for r in res.sweep.batch.results
        )
        return output, circuits

    def check_names(self):
        names = []
        for strategy in self.strategies:
            names += [f"{strategy}:lf_in_(0,1]", f"{strategy}:gamma==lf^-2"]
        names += [f"lf:{high}>{low}" for high, low in self.orderings]
        return names

    def check(self, output, refs):
        results = {}
        for strategy in self.strategies:
            res = output.get(strategy)
            lf = res["lf"] if res else float("nan")
            results[f"{strategy}:lf_in_(0,1]"] = 0.0 < lf <= 1.0
            results[f"{strategy}:gamma==lf^-2"] = (
                res is not None
                and lf > 0.0
                and math.isclose(res["gamma"], lf ** -2.0, rel_tol=1e-12)
            )
        for (high, low), z in self.orderings.items():
            ok = low in output and high in output
            if ok:
                a, b = output[high], output[low]
                ok = ordered([(a["lf"], self.lf_error(a))], [(b["lf"], self.lf_error(b))], z)
            results[f"lf:{high}>{low}"] = ok
        return results

    def lf_error(self, result: Dict) -> float:
        """Error bar of a layer fidelity, from the spread of its samples.

        Each partition's decay ``y = A r**d`` is treated as a weighted
        straight-line fit of ``ln y`` against depth, weighted by the
        standard error of each depth's mean over samples; the slope
        ``ln r`` then has variance ``1 / sum w (d - d_w)**2``. As
        ``LF = prod r**0.5``, ``var(ln LF) = sum var(ln r) / 4``.
        """
        var_ln_lf = 0.0
        for per_depth in result["samples"].values():
            weights = []
            for values in per_depth:
                mean = sum(values) / len(values)
                sd = statistics.stdev(values) if len(values) > 1 else 0.0
                # Floor: one shot's resolution, so a flat depth is not exact.
                se = max(sd / math.sqrt(len(values)), 1.0 / (self.shots * len(values)))
                weights.append((max(mean, se) / se) ** 2)
            total = sum(weights)
            centre = sum(w * d for w, d in zip(weights, self.depths)) / total
            sxx = sum(w * (d - centre) ** 2 for w, d in zip(weights, self.depths))
            var_ln_lf += 0.25 / sxx
        return result["lf"] * math.sqrt(var_ln_lf)


# ---------------------------------------------------------------------------
# fig9: dynamic-circuit compensation on the default (scalar) engine
# ---------------------------------------------------------------------------


class Fig9Dynamic(Workload):
    """``run_fig9`` at the CLI's full size on the default backend."""

    name = "fig9_dynamic"
    imports = ("repro", "repro.experiments.fig9")
    estimates = tuple(300.0 * i for i in range(11))  # the CLI's 0..3000 ns grid
    shots = 140
    true_feedforward = 1150.0
    z = 5.0

    def build(self, seed):
        return list(self.estimates), seed

    def execute(self, inputs):
        from repro.experiments.fig9 import run_fig9

        estimates, seed = inputs
        return run_fig9(
            estimates=estimates,
            true_feedforward=self.true_feedforward,
            shots=self.shots,
            seed=seed,
            workers=1,
        )

    def extract(self, result):
        output = {
            "fidelities": list(result.fidelities),
            "bare": result.bare_fidelity,
            "conditional": result.conditional_fidelity,
        }
        return output, sum(r.realizations for r in result.sweep.batch.results)

    def check_names(self):
        names = [f"range:est={e:.0f}" for e in self.estimates]
        names += ["range:bare", "range:conditional", "peak_at_true_time", "peak_above_bare"]
        return names

    def check(self, output, refs):
        fids = output.get("fidelities") or []
        results = {
            f"range:est={e:.0f}": i < len(fids) and in_unit_interval(fids[i])
            for i, e in enumerate(self.estimates)
        }
        results["range:bare"] = in_unit_interval(output.get("bare", -1.0))
        results["range:conditional"] = in_unit_interval(output.get("conditional", -1.0))
        if len(fids) != len(self.estimates):
            results["peak_at_true_time"] = results["peak_above_bare"] = False
            return results
        best = max(range(len(fids)), key=fids.__getitem__)  # first maximum
        step = self.estimates[1] - self.estimates[0]
        results["peak_at_true_time"] = (
            abs(self.estimates[best] - self.true_feedforward) <= step
        )
        bare = output["bare"]
        bar = math.hypot(
            binomial_sigma(fids[best], self.shots), binomial_sigma(bare, self.shots)
        )
        results["peak_above_bare"] = fids[best] - bare > self.z * bar
        return results


# ---------------------------------------------------------------------------
# compile_eagle: every strategy pipeline on a 129-qubit heavy-hex device
# ---------------------------------------------------------------------------


def edge_matchings(edges: Sequence[Tuple[int, int]]) -> List[List[Tuple[int, int]]]:
    """Greedy proper edge colouring, in sorted edge order."""
    colours: List[Tuple[List[Tuple[int, int]], set]] = []
    for edge in sorted(edges):
        for members, used in colours:
            if edge[0] not in used and edge[1] not in used:
                members.append(edge)
                used.update(edge)
                break
        else:
            colours.append(([edge], set(edge)))
    return [members for members, _used in colours]


def layered_circuit(num_qubits: int, edges: Sequence[Tuple[int, int]], steps: int):
    """H on every qubit, then ``steps`` x (ECR on matching A, X layer, ECR on
    matching B, X layer), A and B being the two largest edge matchings."""
    from repro.circuits.circuit import Circuit

    matchings = sorted(edge_matchings(edges), key=len, reverse=True)[:2]
    circuit = Circuit(num_qubits)
    for q in range(num_qubits):
        circuit.h(q)
    for _ in range(steps):
        for matching in matchings:
            circuit.barrier()
            for a, b in matching:
                circuit.ecr(a, b)
            circuit.barrier()
            for q in range(num_qubits):
                circuit.x(q)
    return circuit


def two_qubit_sequence(circuit) -> List[List]:
    """The circuit's two-qubit gates in order, compensation pulses left out."""
    return [
        [inst.gate.name, list(inst.qubits)]
        for inst in circuit.instructions()
        if inst.gate.num_qubits == 2 and inst.tag != "compensation"
    ]


def _task_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class CompileEagle(Workload):
    """``compile_tasks`` alone for the six strategies on ``fake_nazca()``.

    No simulation: simulator changes must leave this workload unmoved.
    """

    name = "compile_eagle"
    imports = ("repro",)
    strategies = ("none", "dd", "staggered_dd", "ca_dd", "ca_ec", "ca_ec+dd")
    ec_strategies = ("ca_ec", "ca_ec+dd")
    realizations = 6
    steps = 3
    chain_qubits = 6
    tolerance = 1e-9

    def _tasks(self, circuit, seed):
        from repro.runtime import Task

        observable = "I" * (circuit.num_qubits - 1) + "Z"
        return [
            Task(
                circuit,
                observables={"z0": observable},
                pipeline=strategy,
                realizations=self.realizations,
                seed=_task_seed(seed, index),
            )
            for index, strategy in enumerate(self.strategies)
        ]

    def build(self, seed):
        from repro.device.calibration import fake_nazca

        device = fake_nazca()
        circuit = layered_circuit(device.num_qubits, device.topology.edges, self.steps)
        return self._tasks(circuit, seed), device

    def execute(self, inputs):
        from repro.runtime import compile_tasks

        tasks, device = inputs
        return compile_tasks(tasks, device=device, workers=1)

    def extract(self, result):
        realizations = []
        for strategy, plan in zip(self.strategies, result):
            for unit in plan.units:
                circuit = unit.circuit
                kinds = set()
                pairs = set()
                top = -1
                for inst in circuit.instructions():
                    kinds.add((inst.gate.name, inst.gate.num_qubits, inst.tag))
                    top = max(top, *inst.qubits)
                    if inst.gate.num_qubits == 2 and inst.tag == "compensation":
                        pairs.add(tuple(sorted(inst.qubits)))
                realizations.append(
                    {
                        "strategy": strategy,
                        "num_qubits": circuit.num_qubits,
                        "two_qubit": digest(two_qubit_sequence(circuit)),
                        "kinds": sorted(kinds),
                        "compensation_pairs": sorted(pairs),
                        "max_qubit": top,
                    }
                )
        return {"realizations": realizations}, len(realizations)

    def fingerprint(self, result, output):
        h = hashlib.sha256()
        for plan in result:
            for unit in plan.units:
                for index, moment in enumerate(unit.circuit.moments):
                    for inst in moment:
                        gate = inst.gate
                        h.update(
                            repr(
                                (
                                    index,
                                    gate.name,
                                    inst.qubits,
                                    gate.params,
                                    gate.dd_fractions,
                                    gate.flip_fractions,
                                    gate.duration_override,
                                    gate.error_scale,
                                    inst.tag,
                                    inst.condition,
                                    inst.clbits,
                                )
                            ).encode()
                        )
                h.update(b"|")
        return h.hexdigest()

    # -- references, computed apart from the timed compile -------------------

    def references(self, seed):
        from repro.device.calibration import fake_nazca

        device = fake_nazca()
        circuit = layered_circuit(device.num_qubits, device.topology.edges, self.steps)
        return {
            "num_qubits": device.num_qubits,
            "edges": {tuple(sorted(e)) for e in device.topology.edges},
            "two_qubit": digest(two_qubit_sequence(circuit)),
            "chain": self._chain_checks(seed),
        }

    def _chain_checks(self, seed) -> Dict[str, bool]:
        """On a 6-qubit chain, compiled realizations reproduce the ideal
        (uncompiled) expectation values on the exact density engine: with
        every noise source off for the pipelines without EC, and with only
        the coherent errors EC is built to cancel for the ones with it."""
        from repro.device.calibration import synthetic_device
        from repro.device.topology import linear_chain
        from repro.runtime import run
        from repro.sim.executor import SimOptions

        n = self.chain_qubits
        topology = linear_chain(n)
        device = synthetic_device(topology, name="chain6", seed=seed)
        circuit = layered_circuit(n, topology.edges, self.steps)
        labels = []
        for q in range(n):
            for kind in "XYZ":
                labels.append(_label(n, {q: kind}))
        for a, b in topology.edges:
            labels += [_label(n, {a: "Z", b: "Z"}), _label(n, {a: "X", b: "X"})]
        ideal = _ideal_expectations(circuit.unitary(), labels)
        quiet = dict(
            stochastic=False,
            dephasing=False,
            amplitude_damping=False,
            gate_errors=False,
            readout_errors=False,
        )
        results = {}
        for task in self._tasks(circuit, seed):
            strategy = task.pipeline
            options = SimOptions(coherent=strategy in self.ec_strategies, **quiet)
            task = replace(task, observables={label: label for label in labels})
            outcome = run(task, device=device, backend="density", options=options, workers=1)
            values = outcome.results[0]
            results[strategy] = all(
                abs(values.values[label] - ideal[label]) <= self.tolerance
                and values.errors[label] <= self.tolerance
                for label in labels
            )
        return results

    def check_names(self):
        names = [
            f"{strategy}#{k}:structure"
            for strategy in self.strategies
            for k in range(self.realizations)
        ]
        names += [f"{strategy}:chain6_ideal" for strategy in self.strategies]
        return names

    def check(self, output, refs):
        results = {name: False for name in self.check_names()}
        if refs is None:
            return results
        seen: Dict[str, int] = {}
        for real in output.get("realizations", []):
            strategy = real["strategy"]
            k = seen.get(strategy, 0)
            seen[strategy] = k + 1
            results[f"{strategy}#{k}:structure"] = self._structure_ok(real, refs)
        for strategy in self.strategies:
            results[f"{strategy}:chain6_ideal"] = bool(refs["chain"].get(strategy))
        return results

    def _structure_ok(self, real: Dict, refs: Dict) -> bool:
        """Input 2q gates kept in order; everything added is a single-qubit
        gate, a delay or (EC only) a compensation Rzz on a coupled pair; only
        device qubits are touched."""
        if real["num_qubits"] != refs["num_qubits"]:
            return False
        if not 0 <= real["max_qubit"] < refs["num_qubits"]:
            return False
        if real["two_qubit"] != refs["two_qubit"]:
            return False
        ec = real["strategy"] in self.ec_strategies
        for name, arity, tag in real["kinds"]:
            if arity == 1:
                continue
            if arity == 2 and tag != "compensation":
                continue  # already matched against the input sequence
            if not (ec and arity == 2 and name == "rzz" and tag == "compensation"):
                return False
        return all(tuple(pair) in refs["edges"] for pair in real["compensation_pairs"])


def _label(n: int, factors: Dict[int, str]) -> str:
    chars = ["I"] * n
    for q, kind in factors.items():
        chars[n - 1 - q] = kind
    return "".join(chars)


def _ideal_expectations(unitary, labels: Sequence[str]) -> Dict[str, float]:
    """``<0|U^dag P U|0>`` per label, with plain NumPy. The label's leftmost
    character acts on the highest qubit, and qubit 0 is the least
    significant bit of the basis index, so the label's order is the
    Kronecker order."""
    import numpy as np

    paulis = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    psi = unitary[:, 0]
    out = {}
    for label in labels:
        op = np.ones((1, 1), dtype=complex)
        for char in label:
            op = np.kron(op, paulis[char])
        out[label] = float(np.real(np.vdot(psi, op @ psi)))
    return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (Fig3Ramsey(), Fig8LayerFidelity(), Fig9Dynamic(), CompileEagle())
}
