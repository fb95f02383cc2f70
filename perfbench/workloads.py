"""The three workloads: inputs, one timed round, and the checks.

A run repeats rounds until its time is up.  Each round loads its
extensions fresh from data/, so every cache that lives on the extension
objects starts cold, builds the pipelines, and solves a fixed list of
systems one after another (a closed loop with one client).  Checks run
after the timed part of a round.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from exteq import files
from exteq.extension import identity
from exteq.instances import t1s_commutator_system
from exteq.reduction import (
    NO_SOLUTION_WITHIN_BOUNDS,
    SOLVED,
    UNSOLVABLE,
    Pipeline,
    SolveConfig,
    check_in_extension,
    solve,
)

import systems
from tracing import Tracer

FINITE_BUILD = {"kappa2": 2, "R_learn": 4, "R_validate": 6}  # `exteq solve` defaults
T1S_BUILD = {"kappa2": 7, "R_learn": 4, "R_validate": 5}  # as `exteq demo-t1s`
ORACLE_BOUND = 2
FC_POOL = 72  # systems generated from a fixed seed, the same in every run
FC_SEEDED = 8  # systems generated from --seed
SS_SEEDED = 8
T1S_HINTS = tuple({"x": "c" + ("d" * n if n >= 0 else "D" * -n)} for n in range(-4, 5))
T1S_OBSTRUCTION = -2


@dataclass
class Case:
    """One system of a round's list, with what its verdict is checked
    against."""

    label: str
    extension: str
    system: Optional[dict] = None  # `exteq solve` JSON; None for t1s
    central_power: int = 0  # t1s: the k of [a,b][x,d] z^k = 1
    expected: Optional[str] = None  # frozen corpus verdict
    ref: Optional[systems.Reference] = None

    @property
    def ref_solvable(self) -> bool:
        if self.system is None:
            return self.central_power != 0
        return self.ref.e_solvable


@dataclass
class Round:
    load_s: float = 0.0
    setup_s: float = 0.0
    latencies: list = field(default_factory=list)
    wrong: list = field(default_factory=list)  # (case label, reason)
    solved: int = 0  # reference-solvable systems that came back solved

    @property
    def solve_s(self) -> float:
        return sum(self.latencies)

    @property
    def total_s(self) -> float:
        return self.load_s + self.setup_s + self.solve_s


class Workload:
    """Inputs of one workload for one seed, and how to run a round."""

    def __init__(self, name: str, seed: int, theta_cap: int, data: Path):
        self.name = name
        self.data = data
        self.theta_cap = theta_cap
        self.tables = {}
        if name == "t1s-demo":
            self.mode = "sound"
            self.cases = [Case(f"t1s k={k}", "t1s", central_power=k) for k in (0, 2)]
            return
        self.mode = "finite-complete" if name == "finite-complete" else "sound"
        for ext_name in systems.FINITE_EXTENSIONS:
            ext = self._load(ext_name)
            self.tables[ext_name] = (ext, systems.GroupTable(ext))
        self.cases = [Case("readme", "quaternion8", systems.README_SYSTEM)]
        corpus = files.load_json(str(data / "corpus.json"))["systems"]
        self.cases += [
            Case(f"corpus[{i}]", e["extension"], e["system"], expected=e["expected"])
            for i, e in enumerate(corpus)
        ]
        if name == "finite-complete":
            self.cases += self._generate("pool", random.Random("exteq-pool"), FC_POOL)
            self.cases += self._generate("seed", random.Random(f"seed-{seed}"), FC_SEEDED)
        else:
            # every seeded system is unsolvable in E but solvable in the
            # base group, so its verdict walks the Theta stream to the cap
            # and the solved share rests on the seed-free systems
            self.cases += self._generate("seed", random.Random(f"seed-{seed}"),
                                         SS_SEEDED, e_solvable=False)
        for case in self.cases:
            if case.ref is None:
                ext, table = self.tables[case.extension]
                case.ref = systems.reference(case.system, table, ext)

    def _load(self, ext_name: str):
        path = str(self.data / f"{ext_name}.json")
        return files.extension_from_json(files.load_json(path), path)

    def _generate(self, stem, rng, n, e_solvable=None) -> list:
        """n systems alternating between the two extensions, keeping
        those solvable in the base group (the others return before any
        reduction runs)."""
        out = []
        while len(out) < n:
            ext_name = systems.FINITE_EXTENSIONS[len(out) % 2]
            ext, table = self.tables[ext_name]
            obj = systems.random_system(rng, table)
            ref = systems.reference(obj, table, ext)
            if ref.base_solvable and e_solvable in (None, ref.e_solvable):
                out.append(Case(f"{stem}[{len(out)}]", ext_name, obj, ref=ref))
        return out

    # -- one round -----------------------------------------------------

    def run_round(self, tracer=None, fault=None) -> Round:
        def span(group, request):
            return tracer.span(group, request) if tracer else nullcontext()

        clock = time.perf_counter
        rnd = Round()
        start = clock()
        with span("files.load", "load"):
            exts = {name: self._load(name) for name in {c.extension for c in self.cases}}
            problems = [self._problem(c, exts[c.extension]) for c in self.cases]
        rnd.load_s = clock() - start
        build = T1S_BUILD if self.name == "t1s-demo" else FINITE_BUILD
        pipes = {}
        start = clock()
        for name, ext in exts.items():
            with span("reduction.build", f"build {name}"):
                pipes[name] = Pipeline.build(ext, **build)
        rnd.setup_s = clock() - start
        config = self._config()
        outcomes = []
        for case, problem in zip(self.cases, problems):
            with span("reduction.solve", f"solve {case.label}"):
                start = clock()
                try:
                    out = solve(problem, pipes[case.extension], config)
                except Exception as e:  # a raising solve is a wrong verdict
                    out = e
                rnd.latencies.append(clock() - start)
            outcomes.append(out)
        if fault is not None:
            fault(self, outcomes)
        for case, problem, out in zip(self.cases, problems, outcomes):
            why = self.check(case, problem, exts[case.extension], out)
            if why:
                rnd.wrong.append((case.label, why))
            elif case.ref_solvable and out.status == SOLVED:
                rnd.solved += 1
        return rnd

    def _problem(self, case: Case, ext):
        if case.system is None:
            return t1s_commutator_system(ext, case.central_power)
        return files.equation_system_from_json(case.system, ext, case.label)

    def _config(self) -> SolveConfig:
        if self.name == "t1s-demo":
            return SolveConfig(mode="sound", oracle_bound=0, gamma_hints=T1S_HINTS)
        return SolveConfig(mode=self.mode, oracle_bound=ORACLE_BOUND,
                           theta_cap=self.theta_cap)

    # -- checks ----------------------------------------------------------

    def check(self, case: Case, problem, ext, out) -> Optional[str]:
        """Why the verdict is wrong, or None."""
        if isinstance(out, Exception):
            return f"solve raised {type(out).__name__}: {out}"
        if out.status == UNSOLVABLE and self.mode != "finite-complete":
            return "unsolvable outside finite-complete mode"
        if out.status == SOLVED:
            if not case.ref_solvable:
                return "solved, but the reference has no solution"
            if not check_in_extension(problem, ext, out.assignment):
                return "assignment fails check_in_extension"
            if not self._reverify(case, problem, ext, out.assignment):
                return "assignment fails the benchmark's own multiplication"
        if case.system is None:
            return self._check_t1s(case, out)
        want = SOLVED if case.ref.e_solvable else UNSOLVABLE
        if case.expected is not None and case.expected != want:
            return f"frozen verdict {case.expected} disagrees with brute force"
        if self.mode == "finite-complete" and out.status != want:
            return f"{out.status}, brute force says {want}"
        return None

    def _check_t1s(self, case: Case, out) -> Optional[str]:
        if case.central_power == 0:
            if out.status != NO_SOLUTION_WITHIN_BOUNDS:
                return f"k=0 gave {out.status}"
            values = [ob.get("value") for ob in out.report["obstructions"]]
            if values[:1] != [T1S_OBSTRUCTION]:
                return f"k=0 obstructions {values}, expected {T1S_OBSTRUCTION}"
        elif out.status != SOLVED:
            return f"k={case.central_power} gave {out.status}"
        return None

    def _reverify(self, case: Case, problem, ext, assignment) -> bool:
        """Multiply the equations out again: through the group table for
        the finite extensions, through section coordinates for t1s."""
        if case.system is not None:
            _, table = self.tables[case.extension]
            values = [table.of(assignment[v]) for v in case.system["variables"]]
            return all(v == 0 for v in systems.evaluate(case.system, table, ext, values))
        for eq in problem.equations:
            acc = identity(ext)
            for tok in eq:
                sym = tok.lower() if tok[0].isupper() else tok
                e = assignment.get(sym) or problem.constants[sym]
                acc = acc * (e.inverse() if tok != sym else e)
            if not acc.is_identity():
                return False
        return True


# -- the run -----------------------------------------------------------------


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(workload: Workload, rounds: list) -> dict:
    per_case = [statistics.median(r.latencies[i] for r in rounds)
                for i in range(len(workload.cases))]
    ref_solvable = sum(c.ref_solvable for c in workload.cases) * len(rounds)
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "solve_s": statistics.median(r.solve_s for r in rounds),
        "total_s": statistics.median(r.total_s for r in rounds),
        "verdict_p50_s": quantile(per_case, 0.5),
        "verdict_p90_s": quantile(per_case, 0.9),
        "solved_frac": sum(r.solved for r in rounds) / ref_solvable,
    }


def run(name: str, seed: int, seconds: float, trace: bool, theta_cap: int,
        data: Path, fault=None) -> dict:
    """Run rounds until `seconds` have passed.  With `trace`, rounds
    alternate untraced and traced (at least one of each)."""
    workload = Workload(name, seed, theta_cap, data)
    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(rounds) > len(traced):
            tracer = Tracer().install()
            try:
                rnd = workload.run_round(tracer, fault)
            finally:
                tracer.close()
            traced.append((rnd, tracer))
        else:
            rounds.append(workload.run_round(fault=fault))
        done = time.perf_counter() - start >= seconds
        if done and (not trace or traced):
            break
    every = rounds + [r for r, _ in traced]
    wrong = [w for r in every for w in r.wrong]
    for label, why in wrong[:20]:
        print(f"wrong verdict: {label}: {why}", file=sys.stderr)
    result = {
        "workload": workload,
        "rounds": every,
        "attempted": sum(len(r.latencies) for r in every),
        "failed": len(wrong),
        "end_to_end": end_to_end(workload, rounds),
    }
    if trace:
        per_round = [t.metrics() for _, t in traced]
        layer = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        layer["trace.overhead_s"] = (
            statistics.median(r.total_s for r, _ in traced)
            - result["end_to_end"]["total_s"]
        )
        result["per_layer"] = layer
        result["tracers"] = [t for _, t in traced]
    return result
