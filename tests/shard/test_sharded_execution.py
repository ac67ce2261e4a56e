"""Sharded multi-process execution (issue 7).

The contract under test: for every legal launch,
``shard.run_sharded(...)`` is **bitwise identical** to the in-process
engine — outputs, merged ``ExecStats`` (cycles, instructions, per-opcode
counts), and the hotspot/call-edge attribution dicts — including while
fault injection kills, hangs, corrupts, or silences workers mid-shard.
Illegal launches run in-process with a ``rejected`` report; failures
degrade, never error, never return a wrong answer.
"""

import os
import pickle

import numpy as np
import pytest

from repro import diskcache, faultinject, shard, telemetry
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.benchsuite.runner import _GUARD_BYTES, build_impl, run_impl
from repro.diagnostics import ExecutionError, ReproWarning
from repro.driver import clone_module, compile_parsimony
from repro.vm import Interpreter

_SPECS = {spec.name: spec for spec in BENCHMARKS}


def _setup(module, workload):
    # Shard workers run the decoded engine; pin the in-process baseline to
    # it too, or a relaunched (cached) module tiers up to codegen and its
    # fusion telemetry has nothing to match.
    interp = Interpreter(module, codegen=False)
    addrs = []
    for array in workload.arrays:
        addrs.append(interp.memory.alloc_array(array))
        interp.memory.alloc(_GUARD_BYTES)
    interp.reset_stats()
    return interp, addrs


def _attribution(engine):
    return (
        engine.stats.cycles, engine.stats.instructions,
        dict(engine.stats.counts),
        dict(engine.func_cycles), dict(engine.func_calls),
        dict(engine.edge_cycles), dict(engine.edge_calls),
        dict(engine.fuse_hits),
    )


def _baseline(module, workload):
    interp, addrs = _setup(module, workload)
    interp.run("kernel", *addrs, *workload.scalars)
    return _attribution(interp), interp.memory.data.copy()


def _sharded(module, workload, **kwargs):
    # A rejected launch runs in-process on the default engine; a fresh
    # copy keeps that its first launch, on the decoded engine the baseline
    # pins, instead of a codegen tier-up of the shared cached module.
    module = clone_module(module)
    interp, addrs = _setup(module, workload)
    result = shard.run_sharded(
        module, "kernel", (*addrs, *workload.scalars),
        memory=interp.memory, **kwargs,
    )
    return result, _attribution(result), interp.memory.data


def _build(spec, batch=None):
    saved = {k: os.environ.pop(k, None)
             for k in ("REPRO_BATCH", "REPRO_NO_BATCH")}
    try:
        if batch is not None:
            os.environ["REPRO_BATCH"] = str(batch)
        return build_impl(spec, "parsimony")
    finally:
        os.environ.pop("REPRO_BATCH", None)
        for key, value in saved.items():
            if value is not None:
                os.environ[key] = value


# -- bitwise identity ----------------------------------------------------------


@pytest.mark.parametrize("name", ["mandelbrot", "noise", "binomial_options"])
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_bitwise_identical(name, shards):
    spec = _SPECS[name]
    workload = spec.workload()
    module = _build(spec)
    base, base_mem = _baseline(module, workload)
    result, got, got_mem = _sharded(module, workload, shards=shards)
    assert result.report["mode"] == "sharded", result.report
    assert got == base
    assert np.array_equal(got_mem, base_mem)


def test_sharded_bitwise_identical_batched():
    """Gang-batched modules shard too (batched + remainder loop both)."""
    spec = _SPECS["noise"]
    workload = spec.workload()
    module = _build(spec, batch=4)
    assert module.attrs.get("batch_applied"), "batching must engage"
    base, base_mem = _baseline(module, workload)
    result, got, got_mem = _sharded(module, workload, shards=3)
    assert result.report["mode"] == "sharded", result.report
    assert got == base
    assert np.array_equal(got_mem, base_mem)


def test_hotspots_and_fusion_match_in_process():
    spec = _SPECS["noise"]
    workload = spec.workload()
    module = _build(spec)
    interp, addrs = _setup(module, workload)
    interp.run("kernel", *addrs, *workload.scalars)
    result, _, _ = _sharded(module, workload, shards=2)
    assert result.hotspots() == interp.hotspots()
    assert result.fusion_report() == interp.fusion_report()


# -- legality rejections -------------------------------------------------------


def test_nested_gang_loop_rejects():
    """A gang loop under a serial timestep loop (stencil) must reject:
    each timestep reads the previous one's full image, which a worker
    that skimmed those units never computed."""
    spec = _SPECS["stencil"]
    workload = spec.workload()
    module = _build(spec)
    base, base_mem = _baseline(module, workload)
    result, got, got_mem = _sharded(module, workload, shards=2)
    assert result.report["mode"] == "rejected"
    assert any("gang loop" in r for r in result.report["reasons"])
    assert got == base
    assert np.array_equal(got_mem, base_mem)


def test_scalar_impl_rejects():
    spec = _SPECS["noise"]
    workload = spec.workload()
    module = build_impl(spec, "scalar")
    base, base_mem = _baseline(module, workload)
    result, got, got_mem = _sharded(module, workload, shards=2)
    assert result.report["mode"] == "rejected"
    assert got == base
    assert np.array_equal(got_mem, base_mem)


def test_single_shard_rejects():
    spec = _SPECS["noise"]
    workload = spec.workload()
    module = _build(spec)
    result, _, _ = _sharded(module, workload, shards=1)
    assert result.report["mode"] == "rejected"
    assert any("at least 2" in r for r in result.report["reasons"])


def test_non_worker_fault_sites_reject():
    """A ``memory``-site plan would fire once per worker instead of once
    per run; the launch must run in-process while it is armed."""
    spec = _SPECS["noise"]
    workload = spec.workload()
    module = _build(spec)
    with faultinject.inject(
        faultinject.FaultPlan(site="memory", match="nothing-matches")
    ):
        result, _, _ = _sharded(module, workload, shards=2)
    assert result.report["mode"] == "rejected"
    assert any("non-worker" in r for r in result.report["reasons"])


# -- fault matrix --------------------------------------------------------------


@pytest.mark.parametrize(
    "site", ["worker_crash", "worker_hang", "worker_corrupt", "ipc_drop"]
)
def test_injected_worker_fault_survives_bitwise(site):
    spec = _SPECS["noise"]
    workload = spec.workload()
    module = _build(spec)
    base, base_mem = _baseline(module, workload)
    plan = faultinject.FaultPlan(site=site, times=1)
    timeout = 3.0 if site in ("worker_hang", "ipc_drop") else 30.0
    with faultinject.inject(plan):
        result, got, got_mem = _sharded(
            module, workload, shards=3, timeout=timeout
        )
    assert plan.fired == 1, "the fault must actually fire"
    assert result.report["mode"] == "sharded", result.report
    # Every injected fault produces a successful retry (or a recorded
    # degradation) — never a wrong answer.
    assert result.report["retries"] + result.report["degraded"] >= 1
    assert got == base
    assert np.array_equal(got_mem, base_mem)


def test_unbounded_crash_plan_degrades_to_local_drain():
    """When every dispatch of a shard dies, the supervisor drains it
    in-process after ``MAX_ATTEMPTS`` — same bits, recorded degradation."""
    spec = _SPECS["noise"]
    workload = spec.workload()
    module = _build(spec)
    base, base_mem = _baseline(module, workload)
    with faultinject.inject(faultinject.FaultPlan(site="worker_crash")):
        result, got, got_mem = _sharded(
            module, workload, shards=2, timeout=10.0
        )
    assert result.report["mode"] == "sharded"
    assert result.report["degraded"] >= 1
    assert result.report["retries"] >= 1
    assert got == base
    assert np.array_equal(got_mem, base_mem)


def test_spawn_failure_degrades_to_full_local_drain(monkeypatch):
    """A pool that cannot start a single worker drains every shard
    in-process — graceful degradation, never an error."""
    monkeypatch.setattr(
        shard._Supervisor, "_spawn", lambda self, slot_id: None
    )
    spec = _SPECS["noise"]
    workload = spec.workload()
    module = _build(spec)
    base, base_mem = _baseline(module, workload)
    result, got, got_mem = _sharded(module, workload, shards=2)
    assert result.report["mode"] == "sharded"
    assert result.report["degraded"] == 2
    assert got == base
    assert np.array_equal(got_mem, base_mem)


def test_kernel_error_fails_over_to_authoritative_rerun():
    """A genuine kernel trap inside a shard must surface as the same
    in-process error (full fallback rerun), with shard provenance."""
    src = """
    void kernel(f32* out, u64 n) {
        psim (gang_size=4, num_threads=n) {
            u64 i = psim_get_thread_num();
            out[i + 10000000] = 1.0f;
        }
    }
    """
    module = compile_parsimony(src)
    interp = Interpreter(module)
    out = interp.memory.alloc_array(np.zeros(64, dtype=np.float32))
    with pytest.raises(ExecutionError) as in_process:
        interp.run("kernel", out, 64)

    interp2 = Interpreter(module)
    out2 = interp2.memory.alloc_array(np.zeros(64, dtype=np.float32))
    with pytest.raises(ExecutionError) as sharded:
        shard.run_sharded(module, "kernel", (out2, 64),
                          memory=interp2.memory, shards=2)
    assert type(sharded.value) is type(in_process.value)
    assert str(sharded.value) == str(in_process.value)
    assert sharded.value.diagnostic.detail.get("shard") is not None


# -- warm start ----------------------------------------------------------------


def test_warm_start_recipe_pickled_module(tmp_path):
    """Workers rebuilt from a shipped pickle (the disk-cache pickler)
    produce the same bits as fork-inherited workers."""
    spec = _SPECS["noise"]
    workload = spec.workload()
    module = _build(spec)
    base, base_mem = _baseline(module, workload)
    recipe = {"pickled": diskcache.dumps_module(module)}
    result, got, got_mem = _sharded(
        module, workload, shards=2, recipe=recipe
    )
    assert result.report["mode"] == "sharded"
    assert got == base
    assert np.array_equal(got_mem, base_mem)


def test_warm_start_recipe_recompile(tmp_path, monkeypatch):
    """Workers warm-started through the driver (disk cache enabled in a
    scratch dir) match the fork-inherited module bitwise."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    diskcache.set_enabled(True)
    try:
        spec = _SPECS["noise"]
        workload = spec.workload()
        module = _build(spec)
        base, base_mem = _baseline(module, workload)
        recipe = {"source": spec.psim_src,
                  "module_name": f"{spec.name}.parsimony"}
        result, got, got_mem = _sharded(
            module, workload, shards=2, recipe=recipe
        )
        assert result.report["mode"] == "sharded"
        assert got == base
        assert np.array_equal(got_mem, base_mem)
    finally:
        diskcache.set_enabled(None)


# -- environment knobs ---------------------------------------------------------


@pytest.mark.parametrize("value,expected", [
    ("banana", 0), ("-3", 0), ("999", shard.MAX_SHARDS),
])
def test_bad_repro_shards_warns_and_defaults(monkeypatch, value, expected):
    monkeypatch.setenv("REPRO_SHARDS", value)
    with pytest.warns(ReproWarning) as record:
        assert shard.shard_count() == expected
    detail = record[0].message.diagnostic.detail
    assert detail["variable"] == "REPRO_SHARDS"
    assert detail["value"] == value


def test_good_repro_shards_no_warning(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "4")
    assert shard.shard_count() == 4
    monkeypatch.delenv("REPRO_SHARDS")
    assert shard.shard_count() == 0


@pytest.mark.parametrize("value", ["soon", "0", "-1.5", "nan"])
def test_bad_repro_shard_timeout_warns_and_defaults(monkeypatch, value):
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", value)
    with pytest.warns(ReproWarning) as record:
        assert shard.shard_timeout() == shard.DEFAULT_TIMEOUT
    detail = record[0].message.diagnostic.detail
    assert detail["variable"] == "REPRO_SHARD_TIMEOUT"


def test_good_repro_shard_timeout(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "7.5")
    assert shard.shard_timeout() == 7.5


# -- runner + telemetry integration --------------------------------------------


def test_run_impl_sharded_matches_and_records_telemetry(monkeypatch):
    spec = _SPECS["noise"]
    reference = run_impl(spec, "parsimony")
    monkeypatch.setenv("REPRO_SHARDS", "2")
    with telemetry.collect() as session:
        sharded = run_impl(spec, "parsimony")
    assert sharded.stats.cycles == reference.stats.cycles
    assert sharded.stats.instructions == reference.stats.instructions
    assert dict(sharded.stats.counts) == dict(reference.stats.counts)
    for got, want in zip(sharded.output_signature(),
                         reference.output_signature()):
        np.testing.assert_array_equal(got, want)
    run = session.vm_runs[-1]
    assert run["shard"]["mode"] == "sharded"
    assert run["shard"]["shards"] == 2
    totals = session.vm_shard_totals()
    assert totals["vm.shard.sharded"] == 1
    assert totals["vm.shard.degraded"] == 0
    doc = session.as_dict()
    assert doc["schema"] == telemetry.SCHEMA
    assert doc["vm"]["shard_totals"]["vm.shard.sharded"] == 1


def test_run_impl_rejected_records_telemetry(monkeypatch):
    spec = _SPECS["noise"]
    monkeypatch.setenv("REPRO_SHARDS", "2")
    with telemetry.collect() as session:
        run_impl(spec, "scalar")
    assert session.vm_runs[-1]["shard"]["mode"] == "rejected"
    assert session.vm_shard_totals()["vm.shard.rejected"] == 1


# -- shard plan payloads survive pickling (supervisor <-> worker) -------------


def test_worker_error_payload_roundtrips():
    err = ExecutionError("boom", stage="vm", function="kernel",
                         detail={"shard": 3})
    clone = pickle.loads(pickle.dumps(shard._picklable_error(err)))
    assert clone.diagnostic.stage == "vm"
    assert clone.diagnostic.function == "kernel"
    assert clone.diagnostic.detail == {"shard": 3}
