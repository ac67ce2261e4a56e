#!/usr/bin/env python3
"""CI perf-smoke: reduced ispc-suite sweep across engine configurations.

    python examples/perf_smoke.py [--kernels a,b] [--impls scalar,parsimony]
                                  [--out telemetry.json] [--autotune]

Runs each selected kernel under the pre-decoded VM in four configurations
— batched+fused, batched+unfused, unbatched+fused (``REPRO_NO_BATCH=1``),
each pinned to the decoded engine (``codegen=False``), and whole-kernel
codegen (``codegen=True``, the engine the default tiers a reused kernel
up to) — and **fails (exit 1)** if:

* any configuration's outputs diverge bit-for-bit from any other,
* any configuration's ``ExecStats`` (cycles, instructions, per-opcode
  counts) diverge (the accounting-transparency contract: neither fusion,
  gang batching, nor whole-kernel codegen may change what the machine
  model charges),
* any kernel/impl records zero ``vm.fuse.window`` hits on the unbatched
  fused run,
* the parsimony implementation never engages gang batching across the
  sweep (``vm.batch.applied`` stays zero — the layer silently died),
* the codegen engine never compiles a kernel across the sweep
  (``vm.codegen.calls`` stays zero — every kernel bailed out), or a
  kernel where codegen *did* engage runs slower than the codegen floor
  (default 0.9× the batched engine, measured interleaved),
* any parsimony kernel records a codegen bailout at all (the coverage
  floor: every fig4 kernel must compile — a new bailout reason is a
  coverage regression, not an acceptable fallback).

``--bailout-out`` writes the per-kernel codegen bailout histogram as a
JSON artifact so a coverage regression names the reason in CI.

``--autotune`` adds a fourth configuration for the parsimony
implementation: profile-guided selection (``REPRO_AUTOTUNE=1``).  It
additionally **fails** if any kernel's autotuned configuration runs
slower than 0.95× plain unbatched — the regression the tuner exists to
prevent (a statically mis-batched kernel like stencil losing wall-clock
to the unbatched engine) — or if the autotuned outputs/``ExecStats``
diverge from the other configurations.

``--shards N`` adds a sharded configuration: every kernel/impl also runs
through the supervised multi-process executor (``REPRO_SHARDS=N``, see
:mod:`repro.shard`) and **fails** if its outputs or ``ExecStats`` diverge
from the in-process run, or if sharding never engages across the sweep.
With ``REPRO_FAULT_PLAN`` set (e.g.
``worker_crash::0:1;worker_hang::0:1``), the same plans are armed around
both the in-process comparator and the sharded run — the fault matrix —
and the sweep additionally **fails** if an armed worker fault fires
without a recorded retry/degradation, or never fires at all on a sharded
launch.

``--out`` writes the collected telemetry JSON (flattened ``vm.fuse.*``,
``vm.batch.*``, ``vm.autotune.*``, ``vm.shard.*``, and ``vm.codegen.*``
counters, per-run wall-clock) for upload as a CI artifact; per-kernel
wall-clock for all configurations plus the fused-vs-unfused,
batched-vs-unbatched, codegen-vs-batched, and autotuned-vs-unbatched
ratios land in ``meta.perf_smoke``.
"""

import argparse
import json
import os
import sys

import numpy as np

from repro import faultinject, telemetry
from repro.benchsuite import run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS

DEFAULT_KERNELS = "mandelbrot,noise,stencil"
DEFAULT_IMPLS = "scalar,parsimony"


def _stats_equal(a, b):
    return (
        a.stats.cycles == b.stats.cycles
        and a.stats.instructions == b.stats.instructions
        and dict(a.stats.counts) == dict(b.stats.counts)
    )


def _outputs_equal(a, b):
    sig_a, sig_b = a.output_signature(), b.output_signature()
    return len(sig_a) == len(sig_b) and all(
        np.array_equal(x, y) for x, y in zip(sig_a, sig_b)
    )


def _timed_pair(session, spec, impl, superinstructions):
    """Two reps; min() reports steady-state dispatch cost (the first run
    also pays one-time decode/window/batch codegen).  Pinned to the
    decoded engine (``codegen=False``): the second launch of a module
    would otherwise tier up to whole-kernel codegen."""
    run_impl(spec, impl, superinstructions=superinstructions, codegen=False)
    result = run_impl(spec, impl, superinstructions=superinstructions,
                      codegen=False)
    runs = session.vm_runs[-2:]
    wall = min(r.get("wall_seconds") or 0.0 for r in runs)
    return result, runs[-1], wall


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", default=DEFAULT_KERNELS,
                        help="comma-separated suite kernels to sweep")
    parser.add_argument("--impls", default=DEFAULT_IMPLS,
                        help="comma-separated implementations to run")
    parser.add_argument("--out", metavar="PATH",
                        help="write telemetry JSON (CI artifact)")
    parser.add_argument("--autotune", action="store_true",
                        help="also sweep the profile-guided configuration "
                             "(REPRO_AUTOTUNE=1) and fail if it runs slower "
                             "than 0.95x plain unbatched on any kernel")
    parser.add_argument("--autotune-floor", type=float, default=0.95,
                        metavar="RATIO",
                        help="minimum unbatched/autotuned wall-clock ratio "
                             "(default: 0.95)")
    parser.add_argument("--codegen-floor", type=float, default=0.9,
                        metavar="RATIO",
                        help="minimum batched/codegen wall-clock ratio for "
                             "kernels where codegen engaged (default: 0.9)")
    parser.add_argument("--bailout-out", metavar="PATH",
                        help="write the per-kernel codegen bailout "
                             "histogram JSON (CI artifact)")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="also sweep the sharded multi-process executor "
                             "(REPRO_SHARDS=N) and fail on any divergence "
                             "from the in-process run; honors "
                             "REPRO_FAULT_PLAN worker-fault matrices")
    args = parser.parse_args()

    wanted = args.kernels.split(",")
    specs = [s for s in BENCHMARKS if s.name in wanted]
    unknown = set(wanted) - {s.name for s in specs}
    if unknown:
        parser.error(f"unknown kernels: {sorted(unknown)}")
    impls = args.impls.split(",")

    failures = []
    rows = {}
    faults_fired = 0
    bailouts_by_kernel = {}
    saved_no_batch = os.environ.get("REPRO_NO_BATCH")
    saved_autotune = os.environ.get("REPRO_AUTOTUNE")
    saved_shards = os.environ.get("REPRO_SHARDS")
    saved_no_codegen = os.environ.get("REPRO_NO_CODEGEN")
    with telemetry.collect() as session:
        for spec in specs:
            for impl in impls:
                name = f"{spec.name}/{impl}"
                # The compile cache keys on the batch request, so toggling
                # the environment between runs compiles fresh modules
                # rather than rehydrating the other configuration's twin.
                os.environ.pop("REPRO_NO_BATCH", None)
                os.environ.pop("REPRO_AUTOTUNE", None)
                os.environ.pop("REPRO_SHARDS", None)
                os.environ.pop("REPRO_NO_CODEGEN", None)
                fused, fused_run, wall_f = _timed_pair(
                    session, spec, impl, superinstructions=True)
                unfused, _, wall_uf = _timed_pair(
                    session, spec, impl, superinstructions=False)
                try:
                    os.environ["REPRO_NO_BATCH"] = "1"
                    nobatch, nobatch_run, wall_nb = _timed_pair(
                        session, spec, impl, superinstructions=True)
                finally:
                    os.environ.pop("REPRO_NO_BATCH", None)
                # Whole-kernel codegen: same interleaved idiom as the
                # autotune floor — alternating batched/codegen samples so
                # machine-phase noise lands on both sides of the ratio.
                # The first codegen run pays the one-time compile; min(3)
                # reports the steady-state call-through cost.
                walls_cgb, walls_cg = [], []
                cgres = cg_run = None
                for _ in range(3):
                    run_impl(spec, impl, superinstructions=True,
                             codegen=False)
                    walls_cgb.append(
                        session.vm_runs[-1].get("wall_seconds") or 0.0)
                    cgres = run_impl(spec, impl, superinstructions=True,
                                     codegen=True)
                    cg_run = session.vm_runs[-1]
                    walls_cg.append(cg_run.get("wall_seconds") or 0.0)
                wall_cgb, wall_cg = min(walls_cgb), min(walls_cg)
                cg_report = cg_run.get("codegen") or {}
                cg_bailouts = dict(cg_report.get("bailouts") or {})
                bailouts_by_kernel[name] = cg_bailouts
                if impl == "parsimony" and cg_bailouts:
                    # The coverage floor: every fig4 kernel must compile.
                    # A bailout silently runs the kernel decoded — legal
                    # for correctness, but a coverage regression CI must
                    # name and fail.
                    failures.append(
                        f"{name}: codegen bailed out on a fig4 kernel "
                        f"(coverage floor is zero bailouts): {cg_bailouts}")

                tuned = tuned_run = wall_at = wall_nbi = None
                if args.autotune and impl == "parsimony":
                    # The floor compares *interleaved* unbatched/autotuned
                    # samples (min of 3 each): alternating the two configs
                    # run-by-run means a slow machine phase (CPU quota
                    # throttling, a noisy neighbor) lands on both sides of
                    # the ratio instead of biasing whichever ran last.
                    # The first autotuned run sweeps candidates and pins;
                    # the rest run the pinned configuration.
                    walls_nbi, walls_at = [], []
                    for _ in range(3):
                        try:
                            os.environ["REPRO_NO_BATCH"] = "1"
                            run_impl(spec, impl, superinstructions=True,
                                     codegen=False)
                        finally:
                            os.environ.pop("REPRO_NO_BATCH", None)
                        walls_nbi.append(
                            session.vm_runs[-1].get("wall_seconds") or 0.0)
                        try:
                            os.environ["REPRO_AUTOTUNE"] = "1"
                            tuned = run_impl(spec, impl,
                                             superinstructions=True)
                        finally:
                            os.environ.pop("REPRO_AUTOTUNE", None)
                        tuned_run = session.vm_runs[-1]
                        walls_at.append(
                            tuned_run.get("wall_seconds") or 0.0)
                    wall_at = min(walls_at)
                    wall_nbi = min(walls_nbi)

                shard_base = shard_result = shard_report = None
                fault_log = []
                wall_sh = plans = None
                if args.shards:
                    # Worker-fault plans stay armed around *both* runs:
                    # while any plan is active the compile cache is
                    # bypassed, so the in-process comparator must live
                    # under the same injection state as the sharded run to
                    # execute an identical module.  Worker sites are only
                    # consumed by the shard supervisor, so the comparator
                    # does not eat the plans' firing budget.
                    plans = faultinject.plans_from_env()
                    with faultinject.inject(*plans) as fstate:
                        shard_base = run_impl(spec, impl,
                                              superinstructions=True,
                                              codegen=False)
                        try:
                            os.environ["REPRO_SHARDS"] = str(args.shards)
                            shard_result = run_impl(spec, impl,
                                                    superinstructions=True)
                        finally:
                            os.environ.pop("REPRO_SHARDS", None)
                        fault_log = list(fstate.log)
                    shard_run = session.vm_runs[-1]
                    shard_report = shard_run.get("shard") or {}
                    wall_sh = shard_run.get("wall_seconds") or 0.0
                    faults_fired += len(fault_log)

                stats_ok = _stats_equal(fused, unfused)
                if not stats_ok:
                    failures.append(f"{name}: fused ExecStats diverge from unfused")
                out_ok = _outputs_equal(fused, unfused)
                if not out_ok:
                    failures.append(f"{name}: fused outputs diverge from unfused")
                batch_stats_ok = _stats_equal(fused, nobatch)
                if not batch_stats_ok:
                    failures.append(
                        f"{name}: batched ExecStats diverge from unbatched")
                batch_out_ok = _outputs_equal(fused, nobatch)
                if not batch_out_ok:
                    failures.append(
                        f"{name}: batched outputs diverge from unbatched")
                # Batched bodies decode straight to batch blocks, so the
                # fusion-coverage check belongs to the unbatched run.
                hits = nobatch_run.get("fusion", {}).get("hits", {})
                if not hits.get("window"):
                    failures.append(f"{name}: zero vm.fuse.window hits")

                cg_stats_ok = _stats_equal(fused, cgres)
                if not cg_stats_ok:
                    failures.append(
                        f"{name}: codegen ExecStats diverge from batched")
                cg_out_ok = _outputs_equal(fused, cgres)
                if not cg_out_ok:
                    failures.append(
                        f"{name}: codegen outputs diverge from batched")
                # The floor only binds where codegen actually engaged: a
                # bailed-out kernel runs the decoded engine on both sides
                # of the ratio, so comparing it against the floor would
                # just measure noise against itself.
                cg_ratio = (wall_cgb / wall_cg) if wall_cg else None
                if (cg_ratio is not None and cg_ratio < args.codegen_floor
                        and cg_report.get("calls")):
                    failures.append(
                        f"{name}: codegen config runs at {cg_ratio:.2f}x "
                        f"batched (< {args.codegen_floor} floor): "
                        f"{cg_report}")

                rows[name] = {
                    "wall_batched": wall_f,
                    "wall_unfused": wall_uf,
                    "wall_unbatched": wall_nb,
                    "wall_codegen": wall_cg,
                    "dispatch_speedup": (wall_uf / wall_f) if wall_f else None,
                    "batch_speedup": (wall_nb / wall_f) if wall_f else None,
                    "codegen_speedup": cg_ratio,
                    "stats_identical": stats_ok and batch_stats_ok and cg_stats_ok,
                    "outputs_identical": out_ok and batch_out_ok and cg_out_ok,
                    "fuse_hits": dict(hits),
                    "batch": fused_run.get("batch"),
                    "codegen": cg_report,
                }
                tuned_note = ""
                if tuned is not None:
                    if not _stats_equal(tuned, nobatch):
                        failures.append(
                            f"{name}: autotuned ExecStats diverge from unbatched")
                    if not _outputs_equal(tuned, nobatch):
                        failures.append(
                            f"{name}: autotuned outputs diverge from unbatched")
                    # The bug this layer closes: a statically mis-batched
                    # kernel must never run slower autotuned than plain
                    # unbatched (beyond noise).  A tuned factor of 1 means
                    # the tuner *chose* the unbatched engine — both sides
                    # of the ratio run the identical module, so the floor
                    # is vacuously met (comparing noise against itself).
                    ratio = (wall_nbi / wall_at) if wall_at else None
                    tuned_factor = (tuned_run.get("autotune") or {}).get("factor")
                    if (ratio is not None and ratio < args.autotune_floor
                            and tuned_factor != 1):
                        failures.append(
                            f"{name}: autotuned config runs at {ratio:.2f}x "
                            f"unbatched (< {args.autotune_floor} floor): "
                            f"{tuned_run.get('autotune')}")
                    rows[name]["wall_autotuned"] = wall_at
                    rows[name]["autotune_speedup"] = ratio
                    rows[name]["autotune"] = tuned_run.get("autotune")
                    tuned_note = (
                        f"autotuned={wall_at * 1e3:7.1f}ms "
                        f"atx={ratio:5.2f} "
                        f"B={tuned_run.get('autotune', {}).get('factor')} ")
                shard_note = ""
                if shard_result is not None:
                    if not _stats_equal(shard_base, shard_result):
                        failures.append(
                            f"{name}: sharded ExecStats diverge from "
                            f"in-process")
                    if not _outputs_equal(shard_base, shard_result):
                        failures.append(
                            f"{name}: sharded outputs diverge from "
                            f"in-process")
                    mode = shard_report.get("mode")
                    if mode == "degraded" and not plans:
                        failures.append(
                            f"{name}: sharded launch degraded with no "
                            f"faults armed: {shard_report}")
                    if fault_log and not (shard_report.get("retries")
                                          or shard_report.get("degraded")):
                        failures.append(
                            f"{name}: worker faults fired but no retry or "
                            f"degradation was recorded: {shard_report}")
                    rows[name]["shard"] = {
                        "wall": wall_sh,
                        "mode": mode,
                        "retries": shard_report.get("retries"),
                        "degraded": shard_report.get("degraded"),
                        "faults_fired": len(fault_log),
                    }
                    shard_note = f"sharded={wall_sh * 1e3:7.1f}ms [{mode}] "
                all_stats_ok = stats_ok and batch_stats_ok and cg_stats_ok
                all_out_ok = out_ok and batch_out_ok and cg_out_ok
                print(
                    f"{name:32s} unbatched={wall_nb * 1e3:7.1f}ms "
                    f"unfused={wall_uf * 1e3:7.1f}ms "
                    f"batched={wall_f * 1e3:7.1f}ms "
                    f"codegen={wall_cg * 1e3:7.1f}ms "
                    f"{tuned_note}{shard_note}"
                    f"batchx={rows[name]['batch_speedup']:5.2f} "
                    f"cgx={cg_ratio:5.2f} "
                    f"stats={'ok' if all_stats_ok else 'DIVERGED'} "
                    f"out={'ok' if all_out_ok else 'DIVERGED'}"
                )

    if saved_no_batch is not None:
        os.environ["REPRO_NO_BATCH"] = saved_no_batch
    if saved_autotune is not None:
        os.environ["REPRO_AUTOTUNE"] = saved_autotune
    if saved_shards is not None:
        os.environ["REPRO_SHARDS"] = saved_shards
    if saved_no_codegen is not None:
        os.environ["REPRO_NO_CODEGEN"] = saved_no_codegen

    session.meta["perf_smoke"] = rows
    fuse_totals = session.vm_fuse_totals()
    batch_totals = session.vm_batch_totals()
    codegen_totals = session.vm_codegen_totals()
    print(f"\nvm.fuse totals: {fuse_totals}")
    print(f"vm.batch totals: {batch_totals}")
    print(f"vm.codegen totals: {codegen_totals}")
    if not codegen_totals.get("vm.codegen.calls"):
        failures.append("whole-kernel codegen never ran a compiled kernel "
                        "across the sweep (every kernel bailed out)")
    if args.autotune:
        autotune_totals = session.vm_autotune_totals()
        print(f"vm.autotune totals: {autotune_totals}")
        # A persisted pin from an earlier process produces no fresh pin
        # event, so the liveness check is the per-run decision record.
        if "parsimony" in impls and not any(
            r.get("autotune") for r in session.vm_runs
        ):
            failures.append("autotuner made no decisions across the "
                            "parsimony sweep (layer silently dead)")
    if "parsimony" in impls and not batch_totals.get("vm.batch.applied"):
        failures.append("gang batching never applied across the parsimony sweep")
    if args.shards:
        shard_totals = session.vm_shard_totals()
        print(f"vm.shard totals: {shard_totals}")
        if "parsimony" in impls and not shard_totals.get("vm.shard.sharded"):
            failures.append("sharded executor never engaged across the "
                            "sweep (every launch was rejected)")
        if faultinject.plans_from_env() and not faults_fired:
            failures.append("REPRO_FAULT_PLAN armed worker faults but none "
                            "fired across the sweep")
    if args.out:
        session.write(args.out)
        print(f"telemetry written to {args.out}")
    if args.bailout_out:
        histogram = {}
        for per_kernel in bailouts_by_kernel.values():
            for reason, n in per_kernel.items():
                histogram[reason] = histogram.get(reason, 0) + int(n)
        with open(args.bailout_out, "w") as fh:
            json.dump({
                "schema": "repro-codegen-bailouts/1",
                "histogram": histogram,
                "per_kernel": bailouts_by_kernel,
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"codegen bailout histogram written to {args.bailout_out}")

    if failures:
        print("\nPERF-SMOKE FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("\nperf-smoke OK: batched/fused/codegen engines bit-identical "
          "to baseline")


if __name__ == "__main__":
    main()
