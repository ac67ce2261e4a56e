"""One benchmark process: set up, time whole passes of requests, check them.

Run by ``perfbench/run.py`` in a fresh process with every ``REPRO_*``
variable stripped and ``src`` on ``PYTHONPATH``.  Prints one JSON object
as the last line of standard output.  ``--setup-only`` stops after the
warm-up round and reports only ``setup_s``.

A request is the library flow of ``benchsuite.run_impl(spec,
"parsimony")``: ``driver.compile_parsimony`` → ``vm.Interpreter`` →
``Memory.alloc_array`` per input (plus the runner's guard gap) →
``Interpreter.run("kernel", ...)`` → ``Memory.read_array`` per output.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

#: Where a traced run writes its spans.
OUT_DIR = Path(__file__).resolve().parent / ".out"

#: Guard gap after each input, as ``benchsuite.runner`` allocates it.
GUARD_BYTES = 4096

#: Every request is timed at least this many times, so each has a best.
MIN_PASSES = 2

#: Distinct fuzz kernels in the ``fuzz-cold`` corpus.
FUZZ_CORPUS = 48
#: Warm-up fuzz kernels.
FUZZ_WARMUP = 12
#: First fuzz seed of the timed corpus and of the warm-up kernels: two
#: disjoint ranges, so no warm-up compile is reused.  Every run requests
#: the same corpus and ``--seed`` rotates its order: a fresh draw per seed
#: moved ``sim_cycles.geomean`` by 11% between seeds.
FUZZ_BASE = 1_000_000
FUZZ_WARMUP_BASE = 3_000_000

#: Nominal wall time of one pass over the request list on a 2-core x86
#: machine.  Only used to turn ``--seconds`` into a fixed pass count; the
#: count never depends on how fast this run happens to be.
NOMINAL_PASS_S = {"fig4-warm": 0.35, "fig5-suite": 2.6, "fuzz-cold": 2.5}

WORKLOADS = tuple(NOMINAL_PASS_S)


@dataclass
class Request:
    """One request: a PsimC source plus the inputs of its launch."""

    kernel: str
    source: str
    module_name: str
    arrays: list
    scalars: list
    #: Indices of ``arrays`` whose final contents are the result.
    outputs: list
    returns_value: bool = False
    rtol: float = None
    spec: object = None


def suite_request(spec) -> Request:
    wl = spec.workload()
    return Request(spec.name, spec.psim_src, f"{spec.name}.parsimony",
                   wl.arrays, wl.scalars, wl.outputs, wl.returns_value,
                   wl.rtol, spec)


def fuzz_request(fuzzgen, fuzz_seed: int) -> Request:
    kernel = fuzzgen.generate_kernel(fuzz_seed)
    A, B, C, OUT, IOUT, sv, si = fuzzgen.workload_arrays(fuzz_seed)
    return Request(f"fuzz{fuzz_seed}", kernel.source, "parsimony",
                   [A, B, C, OUT, IOUT], [sv, si, fuzzgen.N_THREADS], [3, 4])


def launch(Interpreter, module, req: Request, **engine):
    """The VM half of a request: returns ``(interp, outputs, returned)``."""
    interp = Interpreter(module, **engine)
    memory = interp.memory
    addrs = []
    for array in req.arrays:
        addrs.append(memory.alloc_array(array))
        memory.alloc(GUARD_BYTES)
    returned = interp.run("kernel", *addrs, *req.scalars)
    outputs = [memory.read_array(addrs[i], req.arrays[i].dtype,
                                 req.arrays[i].size)
               for i in req.outputs]
    return interp, outputs, returned


def request(driver, Interpreter, req: Request):
    """One timed request.  ``compile_parsimony`` is looked up on the driver
    module at call time, so the tracer's wrapper sees it."""
    module = driver.compile_parsimony(req.source, module_name=req.module_name)
    interp, outputs, returned = launch(Interpreter, module, req)
    return module, interp, outputs, returned


def signature(req: Request, outputs, returned):
    return list(outputs) + ([returned] if req.returns_value else [])


def stats_key(stats):
    return (stats.cycles, stats.instructions, sorted(stats.counts.items()))


def mismatches(req: Request, got, want, stats, want_stats,
               bitwise: bool) -> list:
    """Why a request's outputs or ``ExecStats`` differ from the oracle
    (empty when they agree).  Suite kernels compare as ``check_kernel``
    does (exact, or ``rtol``); fuzz kernels compare bit for bit."""
    import numpy as np

    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} outputs, oracle has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        g, w = np.asarray(g), np.asarray(w)
        if bitwise:
            same = g.dtype == w.dtype and g.shape == w.shape \
                and g.tobytes() == w.tobytes()
        elif req.rtol is None:
            same = g.shape == w.shape and bool(
                np.array_equal(g, w, equal_nan=g.dtype.kind == "f"))
        else:
            same = g.shape == w.shape and bool(
                np.allclose(g, w, rtol=req.rtol, atol=0.0, equal_nan=True))
        if not same:
            problems.append(f"output {i} differs")
    if stats_key(stats) != want_stats:
        problems.append("ExecStats differ from the reference engine")
    return problems


class Run:
    """State of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.driver = None
        self.Interpreter = None

    # -- set-up -------------------------------------------------------------------

    def import_repro(self) -> float:
        start = time.perf_counter()
        for name in ("numpy", "repro", "repro.driver", "repro.vm",
                     "repro.benchsuite", "repro.benchsuite.fuzzgen",
                     "repro.benchsuite.ispc_suite", "repro.benchsuite.simdlib"):
            importlib.import_module(name)
        elapsed = time.perf_counter() - start
        self.driver = sys.modules["repro.driver"]
        self.Interpreter = sys.modules["repro.vm"].Interpreter
        return elapsed

    def build_requests(self):
        """``(warmup, requests)``: the warm-up requests and the fixed
        request list that every pass sends in order."""
        bs = sys.modules["repro.benchsuite"]
        if self.workload == "fuzz-cold":
            fuzzgen = sys.modules["repro.benchsuite.fuzzgen"]
            corpus = [fuzz_request(fuzzgen, FUZZ_BASE + i)
                      for i in range(FUZZ_CORPUS)]
            warmup = [fuzz_request(fuzzgen, FUZZ_WARMUP_BASE + i)
                      for i in range(FUZZ_WARMUP)]
            return warmup, corpus
        specs = (bs.ispc_suite.BENCHMARKS if self.workload == "fig4-warm"
                 else bs.simdlib.KERNELS)
        start = self.seed % len(specs)
        rotation = [suite_request(s) for s in specs[start:] + specs[:start]]
        return rotation, rotation

    def pass_count(self) -> int:
        return max(MIN_PASSES,
                   round(self.seconds / NOMINAL_PASS_S[self.workload]))

    # -- oracle ---------------------------------------------------------------------

    def suite_oracle(self, rotation):
        """Expected outputs and reference ``ExecStats`` per suite kernel.

        Expected outputs come from ``spec.ref`` (numpy) or, without one,
        from the serial source compiled by ``compile_scalar`` and run on
        the reference engine.  Reference ``ExecStats`` come from the same
        Parsimony module on the reference engine.  The oracle compiles in
        the rotation's order, so the compile cache ends where a pass
        would leave it.
        """
        driver, Interpreter = self.driver, self.Interpreter
        oracle = {}
        for req in rotation:
            spec = req.spec
            module = driver.compile_parsimony(req.source,
                                              module_name=req.module_name)
            ref, _, _ = launch(Interpreter, module, req, predecode=False)
            if spec.ref is not None:
                want = list(spec.ref(spec.workload()))
            else:
                scalar = driver.compile_scalar(spec.scalar_src,
                                               f"{spec.name}.scalar")
                _, outs, ret = launch(Interpreter, scalar, req,
                                      predecode=False)
                want = signature(req, outs, ret)
            oracle[req.kernel] = (want, stats_key(ref.stats))
        return oracle

    def fuzz_oracle(self, corpus):
        """Outputs and ``ExecStats`` of the reference engine per fuzz
        kernel, on the module ``compile_parsimony`` builds for it.  Built
        before the timed passes, so no pass holds a module for checking."""
        oracle = {}
        for req in corpus:
            module = self.driver.compile_parsimony(req.source,
                                                   module_name=req.module_name)
            ref, outs, ret = launch(self.Interpreter, module, req,
                                    predecode=False)
            oracle[req.kernel] = (signature(req, outs, ret),
                                  stats_key(ref.stats))
        return oracle

    def self_check(self, req: Request, want, want_stats, bitwise: bool):
        """The checker must flag a corrupted output copy and corrupted
        ``ExecStats``; otherwise no verdict of this run can be trusted."""
        import numpy as np

        good = [np.array(w, copy=True) for w in want]
        cycles, instructions, counts = want_stats
        stats = SimpleNamespace(cycles=cycles, instructions=instructions,
                                counts=dict(counts))
        if mismatches(req, good, want, stats, want_stats, bitwise):
            raise RuntimeError(f"self-check: oracle for {req.kernel} does "
                               "not match itself")
        bad = [g.copy() for g in good]
        raw = bad[0].reshape(-1).view(np.uint8)
        raw[bad[0].itemsize - 1] ^= 0x7F  # top byte of element 0
        if not mismatches(req, bad, want, stats, want_stats, bitwise):
            raise RuntimeError("self-check: corrupted output was not caught")
        stats.cycles += 1
        if not mismatches(req, good, want, stats, want_stats, bitwise):
            raise RuntimeError("self-check: corrupted ExecStats were not caught")

    # -- measurement ------------------------------------------------------------------

    def timed_passes(self, requests, oracle, tracer=None):
        """Send the request list ``pass_count()`` times, timing every
        request; check each against the oracle after its pass, outside the
        timed window.

        ``fuzz-cold`` empties the compile cache before each pass, so every
        request still misses, and sends each pass in a fresh order drawn
        from ``--seed``: a garbage collection that falls at a fixed point
        of a pass then lands on a different kernel every pass, and the
        best times do not depend on which kernels it hit."""
        driver, Interpreter = self.driver, self.Interpreter
        perf = time.perf_counter
        fuzz = self.workload == "fuzz-cold"
        latencies, best, failures, per_kernel = [], {}, [], {}
        hits = misses = 0
        batched = codegen_calls = codegen_attempts = codegen_bailouts = 0
        order, rng = [], random.Random(self.seed)
        for _ in range(self.pass_count()):
            if fuzz:
                driver.clear_compile_cache()
                requests = rng.sample(requests, len(requests))
            order += [req.kernel for req in requests]
            cache0 = driver.compile_cache_stats()
            done = []
            for req in requests:
                if tracer is not None:
                    tracer.request = len(latencies) + len(done)
                t0 = perf()
                try:
                    module, interp, outputs, returned = request(
                        driver, Interpreter, req)
                except Exception:  # a failed request is counted, not fatal
                    done.append((req, perf() - t0, traceback.format_exc(limit=3)))
                    continue
                finally:
                    if tracer is not None:
                        tracer.request = None
                elapsed = perf() - t0
                # Keep only what the checks need: an interpreter holds 4 MiB.
                cg = interp.codegen_stats
                bailouts = sum(interp.codegen_bailouts.values())
                done.append((req, elapsed, SimpleNamespace(
                    stats=interp.stats,
                    got=signature(req, outputs, returned),
                    batched=bool(module.attrs.get("batch_applied")),
                    factor=module.attrs.get("batch_factor", 1),
                    codegen_calls=cg["calls"],
                    codegen_attempts=cg["compiles"] + cg["cache_hits"]
                    + cg["disk_hits"] + bailouts,
                    codegen_bailouts=bailouts)))
                del interp
            cache1 = driver.compile_cache_stats()
            hits += cache1["hits"] - cache0["hits"]
            misses += cache1["misses"] - cache0["misses"]
            for req, elapsed, res in done:
                latencies.append(elapsed)
                best[req.kernel] = min(elapsed, best.get(req.kernel, elapsed))
                if isinstance(res, str):
                    failures.append(f"{req.kernel}: {res}")
                    continue
                want, want_stats = oracle[req.kernel]
                problems = mismatches(req, res.got, want, res.stats,
                                      want_stats, bitwise=fuzz)
                if problems:
                    failures.append(f"{req.kernel}: " + "; ".join(problems))
                per_kernel[req.kernel] = (res.stats.cycles,
                                          res.stats.instructions, res.factor)
                batched += res.batched
                codegen_calls += res.codegen_calls
                codegen_attempts += res.codegen_attempts
                codegen_bailouts += res.codegen_bailouts
        return {
            "latencies": latencies,
            "order": order,
            "best": list(best.values()),
            "failures": failures,
            "per_kernel": per_kernel,
            "hits": hits,
            "misses": misses,
            "batched": batched,
            "codegen_calls": codegen_calls,
            "codegen_attempts": codegen_attempts,
            "codegen_bailouts": codegen_bailouts,
        }

    def warmup(self, warmup_reqs) -> float:
        """Wall time of the warm-up round.  A request that raises here
        aborts the run: the oracle could not be built for it either."""
        start = time.perf_counter()
        for req in warmup_reqs:
            request(self.driver, self.Interpreter, req)
        return time.perf_counter() - start

    def engine_config(self, per_kernel) -> dict:
        """The effective configuration the shipped defaults resolved to."""
        from repro import autotune, diskcache
        from repro.backend.batch import batching_request
        from repro.ir.module import Module

        probe = self.Interpreter(Module("config-probe"))
        factors = {}
        for _, _, factor in per_kernel.values():
            factors[str(factor)] = factors.get(str(factor), 0) + 1
        config = {
            "codegen": probe.codegen,
            "superinstructions": probe.superinstructions,
            "disk_cache": diskcache.enabled(),
            "autotune": autotune.enabled(),
            "batch_request": batching_request(),
            "batch_factor_histogram": factors,
        }
        if self.workload != "fuzz-cold":
            config["batch_factor"] = {k: v[2] for k, v in per_kernel.items()}
        return config


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def best_rate(rec) -> float:
    """Closed-loop rate at each request's best time: distinct requests
    over the sum of their best latencies."""
    return len(rec["best"]) / sum(rec["best"])


def end_to_end(rec) -> dict:
    """Latency metrics take each distinct request's best time over the
    run's passes; the plain figures over every timed request are under
    ``all_*`` and printed beside them."""
    from repro.benchsuite.runner import geomean

    best_ms = [x * 1000 for x in rec["best"]]
    lat_ms = [x * 1000 for x in rec["latencies"]]
    return {
        "request_ms.p50": (percentile(best_ms, 50), "ms"),
        "request_ms.p90": (percentile(best_ms, 90), "ms"),
        "requests_per_s": (best_rate(rec), "1/s"),
        "sim_cycles.geomean": (geomean([c for c, _, _ in rec["per_kernel"].values()]), "cycles"),
        "ok_share": (1 - len(rec["failures"]) / len(lat_ms), "share"),
        "all_request_ms.p50": (percentile(lat_ms, 50), "ms"),
        "all_request_ms.p90": (percentile(lat_ms, 90), "ms"),
        "all_requests_per_s": (len(lat_ms) / sum(rec["latencies"]), "1/s"),
    }


def per_layer(rec, tracer, untraced_rate) -> dict:
    from repro.benchsuite.runner import geomean

    n = len(rec["latencies"])
    totals = tracer.layer_totals()

    def self_ms(*layers):
        return sum(totals.get(layer, (0.0, 0.0, 0))[0] for layer in layers) * 1000 / n

    def incl_ms(layer):
        return totals.get(layer, (0.0, 0.0, 0))[1] * 1000 / n

    def ir(layer):
        counts = tracer.ir_instrs.get(layer, [])
        return sum(counts) / len(counts) if counts else 0.0

    lookups = rec["hits"] + rec["misses"]
    attributed = tracer.top_level_time()
    metrics = {
        "driver.compile_ms": (incl_ms("driver.compile"), "ms"),
        "driver.self_ms": (self_ms("driver.compile"), "ms"),
        "driver.cache_hit_ratio": (rec["hits"] / lookups if lookups else 0.0, "ratio"),
        "driver.clone_ms": (self_ms("driver.clone"), "ms"),
        "frontend.ms": (self_ms("frontend"), "ms"),
        "frontend.ir_instrs": (ir("frontend"), "count"),
        "passes.pipeline_ms": (self_ms("passes.pipeline"), "ms"),
        "passes.pipeline.ir_instrs": (ir("passes.pipeline"), "count"),
        "vectorizer.ms": (self_ms("vectorizer"), "ms"),
        "vectorizer.ir_instrs": (ir("vectorizer"), "count"),
        "passes.cleanup_ms": (self_ms("passes.cleanup"), "ms"),
        "passes.cleanup.ir_instrs": (ir("passes.cleanup"), "count"),
        "batch.ms": (self_ms("batch"), "ms"),
        "batch.ir_instrs": (ir("batch"), "count"),
        "batch.applied_share": (rec["batched"] / n, "share"),
        "codegen.emit_ms": (self_ms("codegen.emit"), "ms"),
        "codegen.calls": (rec["codegen_calls"], "count"),
        "codegen.bailout_share": (
            rec["codegen_bailouts"] / rec["codegen_attempts"]
            if rec["codegen_attempts"] else 0.0, "share"),
        "vm.launch_ms": (self_ms("vm.launch"), "ms"),
        "vm.run_ms": (self_ms("vm.run"), "ms"),
        "vm.replays": (totals.get("vm.replay", (0, 0, 0))[2], "count"),
        "vm.replay_ms": (incl_ms("vm.replay"), "ms"),
        "vm.instructions": (geomean([i for _, i, _ in rec["per_kernel"].values()]), "count"),
        "tracing.ms": (self_ms("tracing"), "ms"),
        "tracing.overhead_share": (1 - best_rate(rec) / untraced_rate, "share"),
        "unattributed_ms": ((sum(rec["latencies"]) - attributed) * 1000 / n, "ms"),
    }
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    run = Run(args.workload, args.seed, args.seconds)
    import_s = run.import_repro()
    warmup_reqs, requests = run.build_requests()
    setup_s = import_s + run.warmup(warmup_reqs)
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    fuzz = args.workload == "fuzz-cold"
    oracle = (run.fuzz_oracle(requests) if fuzz
              else run.suite_oracle(warmup_reqs))
    req = requests[0]
    run.self_check(req, *oracle[req.kernel], bitwise=fuzz)

    gc.collect()  # the timed passes start from a collected heap
    rec = run.timed_passes(requests, oracle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(rec)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    result = {
        "setup_s": setup_s,
        "setup_rss_mb": setup_rss_mb,
        "attempted": len(rec["latencies"]),
        "failed": len(rec["failures"]),
        "failures": rec["failures"][:5],
        "metrics": metrics,
        "cache": {"hits": rec["hits"], "misses": rec["misses"]},
        "config": run.engine_config(rec["per_kernel"]),
    }
    if args.trace:
        from tracing import Tracer  # beside this script, on sys.path

        tracer = Tracer()
        with tracer.installed():
            traced = run.timed_passes(requests, oracle, tracer)
        result["layers"] = per_layer(traced, tracer, best_rate(rec))
        result["attempted"] += len(traced["latencies"])
        result["failed"] += len(traced["failures"])
        result["failures"] += traced["failures"][:5]
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "config": result["config"],
                       "requests": traced["order"],
                       "spans": tracer.spans,
                       "ir_instrs": tracer.ir_instrs}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
