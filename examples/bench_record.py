#!/usr/bin/env python3
"""Record the engine's wall-clock trajectory as a benchmark artifact.

    python examples/bench_record.py [--out BENCH_10.json] [--kernels a,b]
                                    [--reps 2] [--min-geomean 1.0]
                                    [--min-codegen-geomean 1.0]
                                    [--autotune]

Runs every fig4 kernel's Parsimony build under the engine generations
that successive PRs stacked on the interpreter —

* ``predecoded``  — pre-decoded dispatch, superinstructions off,
                    gang batching off (the PR 1 engine);
* ``fused``       — decode-level superinstructions on, batching off
                    (the PR 4 engine);
* ``batched``     — gang batching on top of fusion (the PR 5 engine);
* ``codegen``     — whole-kernel codegen on top of batching: the whole
                    kernel compiled to one generated Python function,
                    the dispatch loop retired (the PR 8 engine, deepened
                    in PR 10 with localized accounting, batch-factor
                    specialization, superinstruction folding, and the
                    dispatch-variable exit merge);
* ``autotuned``   — profile-guided engine/batch/codegen selection
                    (``--autotune``: the PR 6 engine, ``REPRO_AUTOTUNE=1``)

— asserts all configurations agree bitwise on outputs *and*
``ExecStats`` (every layer is accounting-transparent by contract), and
writes a JSON artifact with per-kernel wall-clock for each generation
plus the batched-vs-fused and codegen-vs-batched geomean speedups.
With ``--autotune`` the artifact and the table also record which
configuration the tuner selected for each kernel and why (the measured
candidate ranking).  Exits non-zero on any divergence or if either
geomean falls below its floor (``--min-geomean``,
``--min-codegen-geomean``).

The artifact is the PR-over-PR trajectory record: CI uploads one per
run, and the checked-in ``BENCH_10.json`` snapshots the machine that
validated this PR's ≥1.70× codegen-vs-batched acceptance bar.  The
codegen configuration must additionally record **zero bailouts** on
every fig4 kernel (the coverage floor).
"""

import argparse
import json
import os
import sys

import numpy as np

from repro import telemetry
from repro.benchsuite import geomean, run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS

CONFIGS = ("predecoded", "fused", "batched", "codegen")


def _run_once(session, spec, config):
    """One VM run of ``config``; returns ``(result, wall, autotune)``.

    Wall-clock covers ``interp.run`` only (the telemetry measurement),
    not compilation or workload setup — the trajectory tracks execution
    engine cost, and the compile cache already absorbs rebuilds.  The
    ``autotuned`` configuration's measurement sweep is untelemetered, so
    its wall-clock is the pinned configuration's steady-state cost.

    Reps are interleaved round-robin across configurations by the
    caller: a slow machine phase (CPU quota throttling, a noisy
    neighbor) then lands on every configuration instead of biasing
    whichever block of reps it overlapped.
    """
    no_batch = config in ("predecoded", "fused")
    fuse = config != "predecoded"
    # Explicit False pins the ladder configs to the decoded engine (the
    # default would tier a reused kernel up to codegen); the autotuned
    # config passes None so the tuner owns the codegen leg along with the
    # batch factor.
    codegen = {"codegen": True, "autotuned": None}.get(config, False)
    try:
        if no_batch:
            os.environ["REPRO_NO_BATCH"] = "1"
        if config == "autotuned":
            os.environ["REPRO_AUTOTUNE"] = "1"
        result = run_impl(spec, "parsimony", superinstructions=fuse,
                          codegen=codegen)
        run = session.vm_runs[-1]
        return result, run.get("wall_seconds") or 0.0, run.get("autotune")
    finally:
        os.environ.pop("REPRO_NO_BATCH", None)
        os.environ.pop("REPRO_AUTOTUNE", None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_10.json", metavar="PATH",
                        help="artifact path (default: BENCH_10.json)")
    parser.add_argument("--kernels", metavar="NAMES",
                        help="comma-separated subset of fig4 kernels")
    parser.add_argument("--reps", type=int, default=2,
                        help="timing repetitions per configuration, "
                             "interleaved round-robin (min wins)")
    parser.add_argument("--min-geomean", type=float, default=1.0,
                        help="fail if batched-vs-fused geomean drops below this")
    parser.add_argument("--min-codegen-geomean", type=float, default=1.0,
                        help="fail if codegen-vs-batched geomean drops "
                             "below this")
    parser.add_argument("--autotune", action="store_true",
                        help="also run the profile-guided autotuned "
                             "configuration (REPRO_AUTOTUNE=1) and record "
                             "which config it selected and why")
    args = parser.parse_args()

    specs = BENCHMARKS
    if args.kernels:
        wanted = set(args.kernels.split(","))
        unknown = wanted - {s.name for s in BENCHMARKS}
        if unknown:
            parser.error(f"unknown kernels: {sorted(unknown)}")
        specs = [s for s in BENCHMARKS if s.name in wanted]

    configs = CONFIGS + ("autotuned",) if args.autotune else CONFIGS
    failures = []
    kernels = {}
    print(f"{'kernel':20s}" + "".join(f"{c:>14s}" for c in configs)
          + f"{'batched x':>12s}{'codegen x':>12s}")
    with telemetry.collect() as session:
        for spec in specs:
            results, tuned = {}, None
            samples = {config: [] for config in configs}
            cg_bailouts = {}
            for _ in range(args.reps):
                for config in configs:
                    results[config], wall, info = _run_once(
                        session, spec, config)
                    samples[config].append(wall)
                    if config == "autotuned":
                        tuned = info
                    elif config == "codegen":
                        report = session.vm_runs[-1].get("codegen") or {}
                        cg_bailouts = dict(report.get("bailouts") or {})
            walls = {config: min(s) for config, s in samples.items()}
            if cg_bailouts:
                # Coverage floor: every fig4 kernel must compile — a
                # bailout silently runs decoded and poisons the ratio.
                failures.append(
                    f"{spec.name}: codegen bailed out: {cg_bailouts}")

            base = results["predecoded"]
            for config in configs[1:]:
                r = results[config]
                if not (r.stats.cycles == base.stats.cycles
                        and r.stats.instructions == base.stats.instructions
                        and dict(r.stats.counts) == dict(base.stats.counts)):
                    failures.append(f"{spec.name}: {config} ExecStats diverge")
                sig, base_sig = r.output_signature(), base.output_signature()
                if len(sig) != len(base_sig) or not all(
                    np.array_equal(a, b) for a, b in zip(sig, base_sig)
                ):
                    failures.append(f"{spec.name}: {config} outputs diverge")

            speedup = walls["fused"] / walls["batched"] if walls["batched"] else None
            cg_speedup = (walls["batched"] / walls["codegen"]
                          if walls["codegen"] else None)
            kernels[spec.name] = {
                "wall_seconds": walls,
                "cycles": base.stats.cycles,
                "instructions": base.stats.instructions,
                "batched_speedup": speedup,
                "codegen_speedup": cg_speedup,
            }
            if tuned is not None:
                kernels[spec.name]["autotune"] = tuned
            print(f"{spec.name:20s}"
                  + "".join(f"{walls[c] * 1e3:12.1f}ms" for c in configs)
                  + f"{speedup:12.2f}{cg_speedup:12.2f}")
            if tuned is not None:
                print(f"{'':20s}  autotune chose B={tuned['factor']}: "
                      f"{tuned['reason']}")

    gm = geomean([k["batched_speedup"] for k in kernels.values()
                  if k["batched_speedup"]])
    gm_cg = geomean([k["codegen_speedup"] for k in kernels.values()
                     if k["codegen_speedup"]])
    print("-" * (20 + 14 * len(configs) + 24))
    print(f"{'geomean batched-vs-fused':48s}{gm:18.2f}")
    print(f"{'geomean codegen-vs-batched':48s}{gm_cg:18.2f}")

    doc = {
        "schema": "repro-bench/1",
        "pr": 10,
        "configs": list(configs),
        "kernels": kernels,
        "geomean_batched_speedup": gm,
        "geomean_codegen_speedup": gm_cg,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bench artifact written to {args.out}")

    if gm < args.min_geomean:
        failures.append(
            f"batched-vs-fused geomean {gm:.2f} below floor {args.min_geomean}")
    if gm_cg < args.min_codegen_geomean:
        failures.append(
            f"codegen-vs-batched geomean {gm_cg:.2f} below floor "
            f"{args.min_codegen_geomean}")
    if failures:
        print("\nBENCH-RECORD FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
