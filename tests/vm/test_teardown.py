"""Acyclic interpreter teardown.

Dropping the last reference to an :class:`Interpreter` must free it and
its :class:`Memory` by refcount alone: no decoded thunk, fused window,
generated kernel or trap-replay twin may hold a strong reference back to
the interpreter.  A cycle would keep each request's 4 MiB memory alive
until the next cyclic collection.  Every test runs with the cyclic
collector disabled and checks weak references right after ``del``.
Fused windows and generated kernels therefore bind the instruction
budget by value; a test checks that changing it still applies.

The same holds one level up: a compiled module's codegen emissions live
on its functions (``Function.emit_memo``), so no process-wide table may
keep a module alive after the compile cache drops it.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.driver import clear_compile_cache, compile_parsimony
from repro.ir import I32, Function, FunctionType, IRBuilder, Module, verify_function
from repro.vm import ExecutionLimitExceeded, Interpreter

#: Exercises windows, external math calls and a cross-lane reduction.
SRC = """
void kernel(f32* a, f32* out, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        f32 x = a[i];
        f32 s = psim_reduce_add_sync(x);
        out[i] = sqrt(x * x + 1.0f) + exp(-x) + s;
    }
}
"""

#: Divergent per-lane loop: a mid-run budget lands inside a batched chunk.
TRAP_SRC = """
void kernel(f32* a, f32* out, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        f32 x = a[i];
        f32 acc = 0.0f;
        i32 k = 0;
        i32 lim = (i32)(i % 17ul) + 3;
        while (k < lim) {
            acc = acc + x * 0.25f + (f32)k;
            k = k + 1;
        }
        out[i] = acc;
    }
}
"""

N = 64


@pytest.fixture(autouse=True)
def no_cyclic_gc(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CODEGEN", raising=False)
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _weakrefs(interp):
    """Weak references to the interpreter, its memory and its replay twin."""
    refs = {"interp": weakref.ref(interp), "memory": weakref.ref(interp.memory)}
    if interp._fallback_interp is not None:
        refs["fallback"] = weakref.ref(interp._fallback_interp)
    return refs


def _alive(refs):
    return [name for name, ref in refs.items() if ref() is not None]


def _launch(module, **engine):
    interp = Interpreter(module, **engine)
    rng = np.random.default_rng(3)
    a = interp.memory.alloc_array(rng.random(N, dtype=np.float32))
    out = interp.memory.alloc_array(np.zeros(N, np.float32))
    interp.run("kernel", a, out, N)
    return interp


def test_reference_engine_frees_by_refcount():
    interp = _launch(compile_parsimony(SRC), predecode=False)
    refs = _weakrefs(interp)
    del interp
    assert _alive(refs) == []


def test_decoded_fused_engine_frees_by_refcount():
    # codegen=False: SRC's module is shared, and a launch of it elsewhere
    # would otherwise tier this one up past the fused engine.
    interp = _launch(compile_parsimony(SRC), superinstructions=True,
                     codegen=False)
    assert interp.fuse_static.get("window", 0) > 0
    refs = _weakrefs(interp)
    del interp
    assert _alive(refs) == []


def test_codegen_engine_frees_by_refcount():
    interp = _launch(compile_parsimony(SRC), codegen=True)
    assert interp.codegen_stats["calls"] >= 1, interp.codegen_report()
    refs = _weakrefs(interp)
    del interp
    assert _alive(refs) == []


@pytest.mark.parametrize("codegen", [False, True])
def test_batched_trap_replay_frees_by_refcount(codegen):
    module = compile_parsimony(TRAP_SRC)
    assert module.attrs.get("batch_applied"), module.attrs.get("batch_rejected")
    interp = Interpreter(module, max_instructions=2_000, codegen=codegen)
    a = interp.memory.alloc_array(np.ones(256, np.float32))
    out = interp.memory.alloc_array(np.zeros(256, np.float32))
    with pytest.raises(ExecutionLimitExceeded):
        interp.run("kernel", a, out, 256)
    assert interp.batch_replays == 1
    refs = _weakrefs(interp)
    assert "fallback" in refs
    del interp
    assert _alive(refs) == []


@pytest.mark.parametrize("engine", [
    {"predecode": False}, {"superinstructions": True}, {"codegen": True},
])
def test_internal_calls_free_by_refcount(engine):
    """Call thunks and generated ``_exec`` calls re-enter the interpreter
    without owning it."""
    module = Module("calls")
    helper = Function("helper", FunctionType(I32, (I32,)), ["x"])
    module.add_function(helper)
    hb = IRBuilder(helper, helper.add_block("entry"))
    hb.ret(hb.binop("add", helper.args[0], hb.const(I32, 1)))
    main = Function("main", FunctionType(I32, (I32,)), ["x"])
    module.add_function(main)
    mb = IRBuilder(main, main.add_block("entry"))
    mb.ret(mb.call(helper, [mb.call(helper, [main.args[0]])]))
    verify_function(helper)
    verify_function(main)

    interp = Interpreter(module, **engine)
    assert interp.run("main", 40) == 42
    refs = _weakrefs(interp)
    del interp
    assert _alive(refs) == []


@pytest.mark.parametrize("engine", [{"superinstructions": True}, {"codegen": True}])
def test_budget_set_after_decode_applies(engine):
    """Windows and generated kernels bind the budget by value, so setting
    ``max_instructions`` after a run must re-decode: the next run traps
    exactly as a fresh interpreter with that budget does."""
    module = compile_parsimony(TRAP_SRC)

    def trap(interp):
        a = interp.memory.alloc_array(np.ones(256, np.float32))
        out = interp.memory.alloc_array(np.zeros(256, np.float32))
        interp.reset_stats()
        with pytest.raises(ExecutionLimitExceeded) as excinfo:
            interp.run("kernel", a, out, 256)
        stats = interp.stats
        return str(excinfo.value), stats.cycles, stats.instructions, dict(stats.counts)

    reused = Interpreter(module, **engine)
    a = reused.memory.alloc_array(np.ones(256, np.float32))
    out = reused.memory.alloc_array(np.zeros(256, np.float32))
    reused.run("kernel", a, out, 256)
    reused.max_instructions = 2_000
    assert trap(reused) == trap(Interpreter(module, max_instructions=2_000, **engine))


def _launch_twice(module):
    """Two default-engine launches: the decoded tier, then codegen."""
    first = _launch(module)
    second = _launch(module)
    assert first.codegen_stats["calls"] == 0, first.codegen_report()
    assert second.codegen_stats["calls"] >= 1, second.codegen_report()


def test_tiered_module_freed_after_cache_clear():
    """A module that tiered up to codegen dies with the compile cache: its
    emission memo rides on its own functions, not in a global table."""
    module = compile_parsimony(SRC.replace("1.0f", "3.0f"))
    _launch_twice(module)
    assert module.get("kernel").emit_memo
    refs = {"module": weakref.ref(module),
            "kernel": weakref.ref(module.get("kernel"))}
    del module
    clear_compile_cache()
    gc.collect()
    assert _alive(refs) == []


def test_many_tiered_kernels_pin_no_modules():
    """More kernels than the compile cache holds, each launched twice:
    every module the cache evicts is freed, and after a clear none
    survives, so no process-wide state pins a module."""
    refs = []
    for k in range(70):
        module = compile_parsimony(SRC.replace("1.0f", f"{k + 5}.0f"))
        _launch_twice(module)
        refs.append(weakref.ref(module.get("kernel")))
        del module
    gc.collect()
    alive = [k for k, ref in enumerate(refs) if ref() is not None]
    assert len(alive) <= 64 and alive == list(range(70 - len(alive), 70))
    clear_compile_cache()
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
