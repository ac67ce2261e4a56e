"""Decode-level superinstruction tests.

Pins the accounting-transparency contract of the fused engine: for every
fusion pattern, on randomized inputs, the fused pre-decoded engine must
produce bit-identical results *and* bit-identical ``ExecStats`` to both
the unfused pre-decoded engine and the reference engine — including when
the instruction budget traps mid-window.  Also covers decode-cache
invalidation of fused blocks, the fusion toggle/escape hatch, the
fusion report, and call-edge attribution.
"""

import numpy as np
import pytest

from repro.ir import (
    F32,
    I32,
    I64,
    Constant,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    PointerType,
    VectorType,
    verify_function,
)
from repro.vm import ExecutionLimitExceeded, Interpreter
from repro.vm.interp import FUSION_PATTERNS

ENGINES = ("fused", "unfused", "reference")


def _interp(module, mode, **kwargs):
    # codegen=False: these tests relaunch one module, and a reused kernel
    # would otherwise tier up past the decoded engine under test.
    return Interpreter(
        module,
        predecode=mode != "reference",
        superinstructions=mode == "fused",
        codegen=False,
        **kwargs,
    )


def _stats_snapshot(interp):
    s = interp.stats
    return (s.cycles, s.instructions, dict(s.counts))


def _compare_engines(module, run, seeds=range(8), expect_hits=()):
    """Run fused/unfused/reference on identical randomized inputs.

    ``run(interp, rng)`` executes the kernel and returns a comparable
    result; all three engines must agree bit-for-bit on it and on
    ``ExecStats``.  ``expect_hits`` patterns must fire in the fused engine
    (otherwise the equivalence claim is vacuous).
    """
    for seed in seeds:
        outcomes = {}
        for mode in ENGINES:
            interp = _interp(module, mode)
            result = run(interp, np.random.default_rng(seed))
            outcomes[mode] = (result, _stats_snapshot(interp))
            if mode == "fused":
                for pattern in expect_hits:
                    assert interp.fuse_hits.get(pattern, 0) > 0, (
                        f"seed {seed}: pattern {pattern!r} never fired"
                    )
        for mode in ("fused", "unfused"):
            got_result, got_stats = outcomes[mode]
            want_result, want_stats = outcomes["reference"]
            np.testing.assert_array_equal(
                np.asarray(got_result), np.asarray(want_result),
                err_msg=f"seed {seed}: {mode} result differs from reference",
            )
            assert got_stats == want_stats, (
                f"seed {seed}: {mode} ExecStats differ from reference"
            )


# -- per-pattern equivalence matrix -------------------------------------------

def _gep_load_module():
    module = Module("t")
    f = Function("f", FunctionType(I32, (PointerType(I32), I64)), ["p", "i"])
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    b.ret(b.load(b.gep(f.args[0], f.args[1])))
    verify_function(f)
    return module


def test_gep_load_pattern():
    module = _gep_load_module()

    def run(interp, rng):
        data = rng.integers(0, 2**31, size=16, dtype=np.uint32)
        addr = interp.memory.alloc_array(data)
        return interp.run("f", addr, int(rng.integers(0, 16)))

    _compare_engines(module, run, expect_hits=("window", "gep_load"))


def _gep_store_module():
    module = Module("t")
    f = Function(
        "f", FunctionType(I32, (PointerType(I32), I64, I32)), ["p", "i", "v"]
    )
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    b.store(f.args[2], b.gep(f.args[0], f.args[1]))
    b.ret(f.args[2])
    verify_function(f)
    return module


def test_gep_store_pattern():
    module = _gep_store_module()

    def run(interp, rng):
        data = np.zeros(16, dtype=np.uint32)
        addr = interp.memory.alloc_array(data)
        idx = int(rng.integers(0, 16))
        val = int(rng.integers(0, 2**31))
        interp.run("f", addr, idx, val)
        return interp.memory.read_array(addr, np.uint32, 16)

    _compare_engines(module, run, expect_hits=("window", "gep_store"))


def _binop_chain_module(opcodes, type_):
    module = Module("t")
    f = Function("f", FunctionType(type_, (type_, type_)), ["x", "y"])
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    acc = f.args[0]
    for opcode in opcodes:
        acc = b.binop(opcode, acc, f.args[1])
    b.ret(acc)
    verify_function(f)
    return module


def test_binop_binop_int_chain():
    module = _binop_chain_module(("add", "mul", "xor", "sub", "and"), I32)

    def run(interp, rng):
        return interp.run(
            "f", int(rng.integers(0, 2**32)), int(rng.integers(0, 2**32))
        )

    _compare_engines(module, run, expect_hits=("window", "binop_binop"))


def test_binop_binop_float_chain():
    module = _binop_chain_module(("fmul", "fadd", "fsub", "fdiv"), F32)

    def run(interp, rng):
        x = float(np.float32(rng.uniform(-1e3, 1e3)))
        y = float(np.float32(rng.uniform(-1e3, 1e3)))
        return interp.run("f", x, y)

    _compare_engines(module, run, expect_hits=("window", "binop_binop"))


def _cmp_condbr_module(cmp):
    """Count down from n — every iteration ends in icmp/fcmp + condbr."""
    module = Module("t")
    f = Function("f", FunctionType(I32, (I32,)), ["n"])
    module.add_function(f)
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    done = f.add_block("done")
    b = IRBuilder(f, entry)
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I32, "i")
    total = b.phi(I32, "total")
    nxt = b.sub(i, b.const(I32, 1))
    acc = b.binop("add", total, i)
    if cmp == "icmp":
        cond = b.icmp("ugt", nxt, b.const(I32, 0))
    else:
        fi = b.cast("uitofp", nxt, F32)
        cond = b.fcmp("ogt", fi, b.const(F32, 0.0))
    b.condbr(cond, loop, done)
    for phi, first, again in ((i, f.args[0], nxt), (total, b.const(I32, 0), acc)):
        phi.append_operand(first)
        phi.append_operand(entry)
        phi.append_operand(again)
        phi.append_operand(loop)
    b.position_at_end(done)
    b.ret(acc)
    verify_function(f)
    return module


@pytest.mark.parametrize("cmp", ["icmp", "fcmp"])
def test_cmp_condbr_pattern(cmp):
    module = _cmp_condbr_module(cmp)

    def run(interp, rng):
        return interp.run("f", int(rng.integers(1, 50)))

    _compare_engines(module, run, expect_hits=("cmp_condbr",))


def _stream_triple_module():
    module = Module("t")
    ptr = PointerType(F32)
    f = Function("f", FunctionType(I32, (ptr, ptr)), ["src", "dst"])
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    mask = b.all_ones_mask(8)
    v = b.vload(f.args[0], 8, mask)
    o = b.binop("fadd", v, v)
    b.vstore(o, f.args[1], mask)
    b.ret(b.const(I32, 0))
    verify_function(f)
    return module


def test_vload_binop_vstore_pattern():
    module = _stream_triple_module()

    def run(interp, rng):
        src = rng.uniform(-100, 100, size=8).astype(np.float32)
        a_src = interp.memory.alloc_array(src)
        a_dst = interp.memory.alloc_array(np.zeros(8, dtype=np.float32))
        interp.run("f", a_src, a_dst)
        return interp.memory.read_array(a_dst, np.float32, 8)

    _compare_engines(module, run, expect_hits=("window", "vload_binop_vstore"))


def test_fusion_patterns_all_covered():
    """Every advertised pattern has a matrix test in this module."""
    assert set(FUSION_PATTERNS) == {
        "window", "gep_load", "gep_store", "binop_binop",
        "vload_binop_vstore", "cmp_condbr",
    }


# -- instruction-budget traps inside fused groups -----------------------------

@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, 6])
def test_budget_trap_mid_window_matches_reference(limit):
    """A bulk-charged window crossing the budget must roll back to the
    exact reference trap state (instructions == limit + 1, same counts)."""
    module = _binop_chain_module(("add", "mul", "xor", "sub", "and", "or"), I32)
    outcomes = {}
    for mode in ENGINES:
        interp = _interp(module, mode, max_instructions=limit)
        with pytest.raises(ExecutionLimitExceeded, match="@f"):
            interp.run("f", 7, 9)
        outcomes[mode] = _stats_snapshot(interp)
        assert interp.stats.instructions == limit + 1
    assert outcomes["fused"] == outcomes["reference"]
    assert outcomes["unfused"] == outcomes["reference"]


@pytest.mark.parametrize("limit", [3, 4, 5, 10, 17])
def test_budget_trap_in_loop_matches_reference(limit):
    module = _cmp_condbr_module("icmp")
    outcomes = {}
    for mode in ENGINES:
        interp = _interp(module, mode, max_instructions=limit)
        with pytest.raises(ExecutionLimitExceeded, match="@f"):
            interp.run("f", 1000)
        outcomes[mode] = _stats_snapshot(interp)
        assert interp.stats.instructions == limit + 1
    assert outcomes["fused"] == outcomes["reference"]
    assert outcomes["unfused"] == outcomes["reference"]


def test_budget_trap_mid_memory_window_leaves_exact_state():
    """Trapping ops inside a window keep exact interleaved accounting, so
    a store before the trap point has happened, one after it has not."""
    module = Module("t")
    ptr = PointerType(I32)
    f = Function("f", FunctionType(I32, (ptr,)), ["p"])
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    one = b.const(I64, 1)
    b.store(b.const(I32, 11), b.gep(f.args[0], b.const(I64, 0)))
    b.store(b.const(I32, 22), b.gep(f.args[0], one))
    b.store(b.const(I32, 33), b.gep(f.args[0], b.const(I64, 2)))
    b.ret(b.const(I32, 0))
    verify_function(f)

    cells = {}
    for mode in ENGINES:
        interp = _interp(module, mode, max_instructions=3)
        addr = interp.memory.alloc_array(np.zeros(3, dtype=np.uint32))
        with pytest.raises(ExecutionLimitExceeded):
            interp.run("f", addr)
        cells[mode] = interp.memory.read_array(addr, np.uint32, 3).tolist()
    assert cells["fused"] == cells["reference"]
    assert cells["unfused"] == cells["reference"]


# -- decode-cache invalidation ------------------------------------------------

def test_clear_decode_cache_invalidates_fused_blocks():
    module = _binop_chain_module(("add", "mul"), I32)
    interp = Interpreter(module, superinstructions=True, codegen=False)
    assert interp.run("f", 3, 5) == (3 + 5) * 5
    assert interp.fuse_static.get("window", 0) > 0

    # Transform the module: the accumulation chain becomes sub/xor.
    f = module.functions["f"]
    instrs = [i for i in f.blocks[0].instructions if i.opcode in ("add", "mul")]
    instrs[0].opcode = "sub"
    instrs[1].opcode = "xor"

    # Stale decode: the fused window still computes the old chain.
    assert interp.run("f", 3, 5) == (3 + 5) * 5

    interp.clear_decode_cache()
    assert interp.fuse_static == {}
    assert interp.run("f", 3, 5) == ((3 - 5) & 0xFFFFFFFF) ^ 5
    assert interp.fuse_static.get("window", 0) > 0


# -- toggle / escape hatch ----------------------------------------------------

def test_superinstructions_default_and_escape_hatch(monkeypatch):
    module = _binop_chain_module(("add", "mul"), I32)
    monkeypatch.delenv("REPRO_NO_FUSE", raising=False)
    assert Interpreter(module).superinstructions is True
    monkeypatch.setenv("REPRO_NO_FUSE", "1")
    assert Interpreter(module).superinstructions is False
    # An explicit argument always wins over the environment.
    assert Interpreter(module, superinstructions=True).superinstructions is True


def test_unfused_engine_records_no_hits():
    module = _binop_chain_module(("add", "mul", "sub"), I32)
    interp = Interpreter(module, superinstructions=False)
    interp.run("f", 1, 2)
    assert interp.fuse_hits == {}
    assert interp.fusion_report()["superinstructions"] is False


def test_fusion_report_and_hotspots_entry():
    module = _binop_chain_module(("add", "mul", "sub"), I32)
    interp = Interpreter(module, superinstructions=True)
    interp.run("f", 1, 2)
    report = interp.fusion_report()
    assert report["superinstructions"] is True
    assert report["sites"].get("window", 0) > 0
    assert report["hits"].get("window", 0) > 0
    fuse_entries = [h for h in interp.hotspots() if h["function"] == "(vm.fuse)"]
    assert len(fuse_entries) == 1
    assert fuse_entries[0]["fusion"]["hits"] == report["hits"]

    # reset_stats drops run counters but keeps decode-time site counters.
    interp.reset_stats()
    assert interp.fuse_hits == {}
    assert interp.fuse_static.get("window", 0) > 0


# -- call-edge attribution ----------------------------------------------------

def _call_module():
    module = Module("t")
    helper = Function("helper", FunctionType(I32, (I32,)), ["x"])
    module.add_function(helper)
    hb = IRBuilder(helper, helper.add_block("entry"))
    hb.ret(hb.binop("add", helper.args[0], hb.const(I32, 1)))
    main = Function("main", FunctionType(I32, (I32,)), ["x"])
    module.add_function(main)
    mb = IRBuilder(main, main.add_block("entry"))
    a = mb.call(helper, [main.args[0]])
    c = mb.call(helper, [a])
    mb.ret(c)
    verify_function(helper)
    verify_function(main)
    return module


def test_call_edge_attribution():
    module = _call_module()
    interp = Interpreter(module)
    assert interp.run("main", 40) == 42

    edges = {(e["caller"], e["callee"]): e for e in interp.call_edges()}
    assert ("<root>", "main") in edges
    assert ("main", "helper") in edges
    assert edges[("main", "helper")]["calls"] == 2
    assert edges[("<root>", "main")]["calls"] == 1
    # The root edge's inclusive cycles cover the whole run.
    assert edges[("<root>", "main")]["inclusive_cycles"] == pytest.approx(
        interp.stats.cycles
    )
    assert edges[("main", "helper")]["inclusive_cycles"] > 0

    hot = {h["function"]: h for h in interp.hotspots()}
    assert hot["helper"]["callers"]["main"]["calls"] == 2
    assert hot["main"]["callers"]["<root>"]["calls"] == 1


def test_telemetry_vm_fuse_totals():
    from repro import telemetry

    module = _binop_chain_module(("add", "mul", "sub"), I32)
    with telemetry.collect() as session:
        interp = Interpreter(module, superinstructions=True)
        interp.run("f", 1, 2)
        telemetry.record_vm_run(
            "t/f", interp.stats, interp.hotspots(),
            fusion=interp.fusion_report(), wall_seconds=0.001,
        )
    totals = session.vm_fuse_totals()
    assert totals.get("vm.fuse.window", 0) > 0
    doc = session.as_dict()
    assert doc["vm"]["fuse_totals"] == totals
    assert doc["vm"]["runs"][0]["wall_seconds"] == 0.001
