"""exteq benchmark: one workload, one process, a closed loop with one client.

    python3 perfbench/run.py --theta-cap 20 --workload finite-complete \
        --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports exteq from that
checkout's src/ and reads its data/.  It prints the end-to-end metrics
(--trace 0) or the per-layer metrics of traced rounds (--trace 1) by
name with their units, then, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  Workloads, metrics and
the layer each metric belongs to are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("t1s-demo", "finite-complete", "sound-stream")
# The order in which the program iterates sets of strings changes how many
# normal forms it computes (never what it returns), so counts repeat
# exactly only under a fixed hash seed.
HASH_SEED = "0"

UNITS = {
    "setup_s": "s", "solve_s": "s", "total_s": "s",
    "verdict_p50_s": "s", "verdict_p90_s": "s",
    "peak_rss_mb": "MB", "solved_frac": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or ".family_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def load_program() -> None:
    """Put the checkout's src/ first on the path and make sure exteq
    comes from there."""
    if not (SRC / "exteq" / "__init__.py").is_file() or not DATA.is_dir():
        raise SystemExit(f"perfbench: no exteq sources under {ROOT}")
    sys.path.insert(0, str(SRC))
    import exteq

    if Path(exteq.__file__).resolve().parent != (SRC / "exteq").resolve():
        raise SystemExit(f"perfbench: exteq imported from {exteq.__file__}")


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "theta_cap": args.theta_cap,
    }


def write_trace(args, env: dict, tracers) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "environment": env,
            "rounds": [
                {"groups": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                            for k, v in t.groups.items()},
                 "counts": t.counts, "spans": t.spans}
                for t in tracers
            ],
        }, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--theta-cap", type=int, required=True,
                        help="Theta tuples each sound-mode verdict may try")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)
    load_program()
    import workloads

    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.theta_cap, DATA)
    env = environment(args)
    env["rounds"] = len(res["rounds"])
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        metrics = res["per_layer"]
        print(f"trace written to {write_trace(args, env, res['tracers'])}")
        missing = sorted({m for t in res["tracers"] for m in t.missing})
        if missing:
            print(f"perfbench: hooks not found, their metrics read 0: {missing}",
                  file=sys.stderr)
    else:
        metrics = dict(res["end_to_end"])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = res["attempted"], res["failed"]
    for name, value in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit_of(name)}")
    print(f"{'fail_frac':40s} {failed / attempted:>14.6g} ratio ({failed} of {attempted} verdicts)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
