"""Self-test of the benchmark, at smoke size.

    python3 perfbench/selftest.py

Smoke size keeps every workload's code path but shrinks its inputs: two
pool and two seeded systems per finite workload, and t1s validated to
radius 3 instead of 5.  Takes a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()
import systems  # noqa: E402
import workloads  # noqa: E402
from exteq.extension import RHO, ExtElement  # noqa: E402
from exteq.reduction import SOLVED  # noqa: E402

SMOKE = {
    "FC_POOL": 2,
    "FC_SEEDED": 2,
    "SS_SEEDED": 2,
    "T1S_BUILD": dict(workloads.T1S_BUILD, R_validate=3),
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
THETA_CAP = BENCH["command"][BENCH["command"].index("--theta-cap") + 1]

# runs one smoke-size workload in a fresh interpreter
_CHILD = f"""
import sys
sys.path.insert(0, {str(HERE)!r})
import run
run.load_program()
import workloads
for k, v in {SMOKE!r}.items():
    setattr(workloads, k, v)
sys.exit(run.main(sys.argv[1:]))
"""


def smoke_args(workload, trace, seed=3):
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--theta-cap", THETA_CAP]


def run_child(args, hash_seed="0", cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", _CHILD, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        names = [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        for workload in names:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_child(smoke_args(workload, trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = last_json(proc.stdout)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertRegex(proc.stdout, rf"(?m)^{name} +\S+ {unit}$")
                    self.assertNotIn("hooks not found", proc.stderr)


def _first_solved(workload, outcomes):
    for case, out in zip(workload.cases, outcomes):
        if getattr(out, "status", None) == SOLVED and case.system is not None:
            return case, out
    raise AssertionError("no solved verdict to tamper with")


def flip_reference(workload, outcomes):
    """Pretend brute force found no solution for a system that came back
    solved."""
    case, _ = _first_solved(workload, outcomes)
    case.ref = systems.Reference(False, case.ref.base_solvable)


def corrupt_assignment(workload, outcomes):
    """Replace the first variable of a solved assignment by an element
    under which some equation fails."""
    case, out = _first_solved(workload, outcomes)
    ext, table = workload.tables[case.extension]
    names = case.system["variables"]
    values = [table.of(out.assignment[v]) for v in names]
    bad = next(e for e in range(len(table.elements))
               if any(systems.evaluate(case.system, table, ext, [e] + values[1:])))
    old = out.assignment[names[0]]
    out.assignment[names[0]] = ExtElement(old.ext, RHO, table.elements[bad].g,
                                          table.elements[bad].a)


class Faults(unittest.TestCase):
    def setUp(self):
        self.saved = {k: getattr(workloads, k) for k in SMOKE}
        for k, v in SMOKE.items():
            setattr(workloads, k, v)

    def tearDown(self):
        for k, v in self.saved.items():
            setattr(workloads, k, v)

    def failed(self, workload, fault):
        with contextlib.redirect_stderr(io.StringIO()):
            res = workloads.run(workload, 3, 0, False, int(THETA_CAP), run.DATA, fault)
        return res["failed"]

    def test_clean_run_has_no_failures(self):
        self.assertEqual(self.failed("finite-complete", None), 0)

    def test_wrong_expected_verdict_is_caught(self):
        self.assertGreater(self.failed("finite-complete", flip_reference), 0)
        self.assertGreater(self.failed("sound-stream", flip_reference), 0)

    def test_corrupted_assignment_is_caught(self):
        self.assertGreater(self.failed("finite-complete", corrupt_assignment), 0)
        self.assertGreater(self.failed("sound-stream", corrupt_assignment), 0)


class Determinism(unittest.TestCase):
    def test_counts_repeat_across_hash_seeds(self):
        bench_units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        results = []
        for hash_seed in ("1", "2"):
            proc = run_child(smoke_args("sound-stream", 1), hash_seed)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            results.append(last_json(proc.stdout))
        exact = [k for k, u in bench_units.items() if u in ("count", "ratio")]
        self.assertTrue(exact)
        for k in exact:
            self.assertEqual(results[0]["metrics"][k]["value"],
                             results[1]["metrics"][k]["value"], k)
        self.assertEqual(results[0]["attempted"], results[1]["attempted"])


class MissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [*BENCH["command"], *smoke_args("finite-complete", 0)[:-2]],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
