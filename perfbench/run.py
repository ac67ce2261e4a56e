"""Request-level benchmark of the Parsimony flow (see perfbench/README.md).

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4-warm --seed 0 --seconds 20 --trace 0

Runs the workload in fresh processes with every ``REPRO_*`` variable
stripped, so the shipped defaults are measured: two set-up-only
processes and one measuring process, whose set-up times give the median
``setup_s``.  Prints a table of every metric with its unit, then one JSON
object as the last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  Exits
non-zero when any request failed or mismatched its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS  # stdlib-only at import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Fresh processes that set up (import + warm-up round); the reported
#: ``setup_s`` is their median.  The last one also measures.
SETUP_RUNS = 3

#: Whole-run limit: the imports and warm-ups, plus three times the
#: nominal ``--seconds`` of every timed phase (one, two with ``--trace 1``)
#: for slow machines and the oracle.  Each process gets what is left.
SETUP_ALLOWANCE_S = 50.0
SLACK = 3.0

END_TO_END = ("request_ms.p50", "request_ms.p90", "requests_per_s",
              "sim_cycles.geomean", "ok_share", "setup_s", "peak_rss_mb")
#: The same latency figures over every timed request, not each request's
#: best: printed, but too noisy on a shared machine to gate on.
PLAIN = ("all_request_ms.p50", "all_request_ms.p90", "all_requests_per_s")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def run_worker(args, extra, env, deadline) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    limit_s = SETUP_ALLOWANCE_S + SLACK * args.seconds * (1 + args.trace)
    deadline = time.monotonic() + limit_s
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    # Python's default bytecode cache stays on, so that ``setup_s`` times
    # importing the package rather than compiling its sources.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")

    try:
        setups = [run_worker(args, ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        result = run_worker(args, [], env, deadline)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {limit_s:.0f} s")
    except (RuntimeError, ValueError, KeyError) as exc:
        return fail(str(exc))
    setups.append(result["setup_s"])
    metrics = dict(result["metrics"])
    metrics["setup_s"] = (sorted(setups)[len(setups) // 2], "s")

    n = result["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"requests {n}  failed {result['failed']}  "
          f"compile cache hits {result['cache']['hits']} "
          f"misses {result['cache']['misses']}  "
          f"rss after warm-up {result['setup_rss_mb']:.1f} MB")
    print("config " + json.dumps(result["config"], sort_keys=True))
    print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups)
          + "  (the last is the measuring process)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"{'metric':<28}{'value':>14}  unit")
    for name in END_TO_END:
        value, unit = metrics[name]
        print(f"{name:<28}{value:>14.4f}  {unit}")
    print(f"{'failed_share':<28}{result['failed'] / n:>14.4f}  share")
    for name in PLAIN:
        value, unit = metrics[name]
        print(f"{name:<28}{value:>14.4f}  {unit}")
    layers = result.get("layers", {})
    for name, (value, unit) in layers.items():
        print(f"{name:<28}{value:>14.4f}  {unit}")

    chosen = layers if args.trace else {k: metrics[k] for k in END_TO_END}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": n,
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
