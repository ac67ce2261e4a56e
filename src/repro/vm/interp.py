"""The VM: a direct interpreter for the IR with cycle cost accounting.

Executes scalar *and* vector IR (one unified engine), so the same machine
runs the un-vectorized baseline, the auto-vectorized code, the ispc-mode
output, the Parsimony output, and the hand-written intrinsics kernels —
exactly the five configurations the paper measures (§5).

Every dynamically executed instruction is charged by the
:class:`~repro.backend.costmodel.CostModel` on the configured
:class:`~repro.backend.machine.Machine`; ``run()`` returns the result plus
:class:`~repro.backend.machine.ExecStats` with cycles and per-opcode
counts.

Execution engines
-----------------

The interpreter has two engines that produce bit-identical results *and*
bit-identical ``ExecStats``:

* the **pre-decoded engine** (default): each basic block is decoded once,
  on first entry, into a :class:`_DecodedBlock` — a list of
  ``(instr, opcode, cost, thunk)`` tuples whose thunks have already
  resolved the opcode dispatch, operand lookups, cost-model query, and
  type-directed specialization.  The per-dynamic-instruction work drops to
  one tuple unpack, three counter updates, and one call;
* the **reference engine** (``predecode=False``): the original
  opcode-string dispatch loop, kept as the executable specification the
  equivalence tests compare against.

On top of the pre-decoded engine, the **whole-kernel codegen** engine
(:mod:`repro.backend.codegen`) runs reused kernels: by default
(``codegen=None``) a function's first top-level launch runs decoded and
every later launch of the same ``Function`` object runs generated code.
The launch count lives on the function, so every interpreter over a
shared compile-cache module sees it.  ``codegen=True`` arms codegen
from the first launch; ``codegen=False`` or ``REPRO_NO_CODEGEN=1`` (which
beats everything) keeps the decoded engine.

Superinstructions
-----------------

On top of pre-decoding, the decoder peephole-fuses the dominant dynamic
chains into single composite thunks (``superinstructions=True``, the
default; ``REPRO_NO_FUSE=1`` disables it process-wide):

=====================  =========================================================
pattern                fused chain
=====================  =========================================================
``window``             maximal call-free run of body instructions (ALU ops,
                       cmps, casts, selects, shuffles, and the memory ops)
                       compiled by decode-time codegen into one generated
                       Python function; the hottest scalar ops are inlined
                       as raw expressions (no impl-callable either)
``gep_load``           address computation + dependent scalar load,
                       embedded in a ``window`` and counted per pair
``gep_store``          address computation + dependent scalar store,
                       embedded in a ``window`` and counted per pair
``binop_binop``        dependent int/float binop chains (accumulation),
                       embedded in a ``window`` and counted per pair
``vload_binop_vstore`` streaming triple packed load → vector binop → packed
                       store, embedded in a ``window`` and counted per triple
``cmp_condbr``         scalar icmp/fcmp + the conditional branch it feeds
                       (block terminator fusion, outside windows)
=====================  =========================================================

Phi runs are batched the same way: one resolver sweep, one bulk charge,
one ``dict.update`` per block entry.

Fusion is **accounting-transparent**: inside a window, trapping or
side-effecting constituents (loads, stores, divisions, float→int casts)
keep the exact per-constituent accounting of the reference engine —
charge the cost-model cycles, bump the per-opcode counter, check the
instruction budget, *then* execute — in program order, so ``ExecStats``
stays bit-identical to the reference engine even when a constituent
traps mid-group.  Pure runs between them, and batched phi sweeps, are
bulk-charged (nothing in them can trap, so the reorder is unobservable);
an instruction budget crossing inside a bulk charge is rolled back to
the exact reference trap point before raising.  An intermediate value is only
elided from the environment when every consumer is inside the same group
(checked against the IR's def-use chains), which is what removes the
per-instruction env writes and tuple unpacks the dispatch loop otherwise
pays.

Both engines assume the module is not mutated once execution has started.
Modules from the driver's compile cache are sealed, shared values: every
transform entry point refuses them, so transform a ``clone_module`` copy
and run it on a fresh interpreter.  For a module of your own, call
:meth:`Interpreter.clear_decode_cache` after transforming a function that
has already run (this also drops fused blocks and decode-time fusion
counters).

Teardown is acyclic: decoded thunks, fused windows and generated kernels
bind the payloads they use (stats, memory, the instruction budget) and
reach back into their interpreter only through a weak reference, so
dropping the last reference to an interpreter frees it and its
:class:`Memory` by refcount, without waiting for a cyclic collection.

Constant payloads are shared across dynamic uses in
the decoded engine — no opcode mutates its operand arrays, so this is
observationally equivalent to the reference engine's fresh-per-use arrays.
"""

from __future__ import annotations

import operator
import os
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import faultinject
from ..backend.costmodel import DEFAULT_COST_MODEL, CostModel
from ..envflags import env_flag
from ..backend.machine import AVX512, ExecStats, Machine
from ..ir.instructions import (
    ATOMIC_RMW_OPS,
    CAST_OPS,
    FLOAT_BINOPS,
    INT_BINOPS,
    Instruction,
    REDUCE_OPS,
    UNARY_OPS,
)
from ..ir.module import BasicBlock, ExternalFunction, Function, Module
from ..ir.types import FloatType, IntType, PointerType, Type, VectorType
from ..ir.values import Argument, Constant, UndefValue, Value
from .memory import Memory, MemoryError_
from .nputil import elem_dtype, mask_int, to_signed
from .ops import (
    VMTrap,
    _c_float,
    gang_activity_count,
    eval_scalar_binop,
    eval_scalar_cast,
    eval_scalar_fcmp,
    eval_scalar_icmp,
    eval_scalar_unop,
    eval_vector_binop,
    eval_vector_cast,
    eval_vector_fcmp,
    eval_vector_icmp,
    eval_vector_unop,
    round_float,
    scalar_binop_impl,
    scalar_fcmp_impl,
    scalar_icmp_impl,
    vector_binop_impl,
)

__all__ = ["Interpreter", "VMTrap", "ExecutionLimitExceeded"]


class ExecutionLimitExceeded(VMTrap):
    """The dynamic instruction budget was exhausted (likely infinite loop)."""


_MAX_CALL_DEPTH = 256

#: Under the default engine a function's first top-level launch runs
#: decoded and later ones run whole-kernel codegen: emission plus
#: ``compile()`` costs about 7–12 ms per kernel, which a run-once kernel
#: never earns back.
_TIER_UP_LAUNCHES = 1

#: Sentinel distinguishing "never attempted" from a sticky ``None``
#: bailout in the per-function codegen memo.
_CODEGEN_UNCOMPILED = object()

# Terminator kinds in decoded form.
_T_BR = 0
_T_CONDBR = 1
_T_RET = 2
_T_UNREACHABLE = 3
_T_FUSED_CMPBR = 4

#: Names of every fusion pattern the decoder reports.  ``window`` is the
#: carrier group (one codegen superinstruction per call-free run); the
#: named chains of the fusion table are detected *inside* windows and
#: counted per embedded occurrence.
FUSION_PATTERNS = (
    "window",
    "vload_binop_vstore",
    "gep_load",
    "gep_store",
    "binop_binop",
    "cmp_condbr",
)

#: Opcodes that are pure and can never trap: safe to bulk-charge inside a
#: codegen window.  Integer div/rem trap on zero and scalar fptosi/fptoui
#: raise on nan/inf, so they get exact interleaved accounting instead.
_PURE_OPS = frozenset(
    (INT_BINOPS - {"sdiv", "udiv", "srem", "urem"})
    | FLOAT_BINOPS
    | UNARY_OPS
    | (CAST_OPS - {"fptosi", "fptoui"})
    | REDUCE_OPS
    | {
        "icmp", "fcmp", "select", "fma", "gep", "broadcast",
        "extractelement", "insertelement", "shuffle", "shuffle2", "sad",
        "mask_any", "mask_all", "mask_popcnt",
    }
)

#: Opcodes that can trap (or touch VM state) mid-group: fusable, but each
#: one keeps the reference engine's exact charge-then-execute accounting
#: inside the generated window.
_EXACT_OPS = frozenset(
    {
        "load", "store", "vload", "vstore", "gather", "scatter",
        "alloca", "atomicrmw",
        "sdiv", "udiv", "srem", "urem",
        "fptosi", "fptoui",
    }
)

#: Everything a window may contain — every body opcode except ``call``
#: (calls re-enter the interpreter and split the group).
_GROUP_OPS = _PURE_OPS | _EXACT_OPS

_BINOPS = INT_BINOPS | FLOAT_BINOPS


def _budget_trap(limit: int, fname: str):
    """Raise the budget trap exactly as the main dispatch loop words it."""
    raise ExecutionLimitExceeded(f"exceeded {limit} instructions in @{fname}")


#: Generated window source → compiled code object.  The source text embeds
#: only structure (opcode strings, costs, hoisted-name wiring), never
#: payloads, so groups with the same shape share one ``compile()`` across
#: all interpreters in the process; per-group state binds at ``exec`` time
#: through default arguments.
_WINDOW_CODE_CACHE: Dict[str, object] = {}


def _bulk_limit_repair(stats: ExecStats, meta, limit: int, fname: str):
    """Exact trap point for a bulk-charged group that crossed the budget.

    ``meta`` is the ``(opcode, cost)`` list of the bulk-charged
    constituents, in program order.  The reference engine raises while
    charging instruction ``limit + 1``; roll back every charge past that
    point, then raise with the counters exactly as the reference engine
    would leave them.
    """
    over = stats.instructions - (limit + 1)
    if over > 0:
        counts = stats.counts
        for opcode, cost in meta[len(meta) - over:]:
            stats.cycles -= cost
            remaining = counts[opcode] - 1
            if remaining:
                counts[opcode] = remaining
            else:
                # The reference engine creates a counter key only when it
                # charges the opcode; a full rollback must erase the key,
                # not leave a zero (counts compare with ``==``).
                del counts[opcode]
    stats.instructions = limit + 1
    raise ExecutionLimitExceeded(f"exceeded {limit} instructions in @{fname}")


def _uses_exactly(value: Value, user, idx: int) -> bool:
    """True iff ``value`` has exactly one use: operand ``idx`` of ``user``."""
    uses = value.uses
    return len(uses) == 1 and uses[0][0] is user and uses[0][1] == idx


def _all_uses_by(value: Value, user) -> bool:
    """True iff every use of ``value`` is an operand of ``user``."""
    uses = value.uses
    return bool(uses) and all(u is user for u, _ in uses)


def _cmp_condbr_fusible(cond_instr: Instruction, term_instr: Instruction) -> bool:
    """True iff the block's trailing scalar cmp can fuse into its condbr."""
    cond = term_instr.operands[0]
    return (
        cond is cond_instr
        and cond.opcode in ("icmp", "fcmp")
        and not isinstance(cond.operands[0].type, VectorType)
        and _uses_exactly(cond, term_instr, 0)
    )


def _embedded_idioms(group) -> Dict[str, int]:
    """Count the named fusion chains embedded in one codegen group.

    The decode-level pattern table (``gep_load``, ``gep_store``,
    ``binop_binop``, ``vload_binop_vstore``) is realized *inside* windows:
    the group keeps the producer's value in a Python local, which is
    exactly what each named chain's dedicated thunk would do.  This
    function recovers the per-pattern telemetry counters.
    """
    idioms: Dict[str, int] = {}

    def bump(pattern: str) -> None:
        idioms[pattern] = idioms.get(pattern, 0) + 1

    for x, y in zip(group, group[1:]):
        xo, yo = x.opcode, y.opcode
        if xo == "gep" and yo == "load" and y.operands[0] is x and _uses_exactly(x, y, 0):
            bump("gep_load")
        elif xo == "gep" and yo == "store" and y.operands[1] is x and _uses_exactly(x, y, 1):
            bump("gep_store")
        elif (
            xo in _BINOPS
            and yo in _BINOPS
            and (y.operands[0] is x or y.operands[1] is x)
        ):
            bump("binop_binop")
    for v, o, s in zip(group, group[1:], group[2:]):
        if (
            v.opcode == "vload"
            and s.opcode == "vstore"
            and o.opcode in _BINOPS
            and isinstance(o.type, VectorType)
            and (o.operands[0] is v or o.operands[1] is v)
            and s.operands[0] is o
            and _all_uses_by(v, o)
            and _uses_exactly(o, s, 0)
        ):
            bump("vload_binop_vstore")
    return idioms


class _DecodedBlock:
    """One basic block, decoded for the fast engine.

    ``phis``  — list of ``(instr, {pred_block: resolver})``;
    ``phi_plan`` — with superinstructions on, ``{pred_block: (targets,
    resolvers)}`` for batched parallel-phi assignment (``None`` when fusion
    is off); a predecessor missing from any phi's edge map has no plan
    entry, and the runtime falls back to the per-phi walk to raise the
    reference error;
    ``body``  — list of ``(instr, opcode, cost, thunk)`` for the non-phi,
    non-terminator instructions, where ``thunk(env, depth)`` computes the
    value;
    ``term``  — ``(_T_BR, cost, opcode, target)`` |
    ``(_T_CONDBR, cost, opcode, cond_resolver, iftrue, iffalse)`` |
    ``(_T_RET, cost, opcode, resolver_or_None)`` |
    ``(_T_UNREACHABLE, cost, opcode)``;
    ``batch`` — ``None`` for ordinary blocks, else the gang-batched decode
    ``(phis, body, term)`` described at :meth:`Interpreter._decode_batch_block`
    (and the other fields are unused).
    """

    __slots__ = ("phis", "phi_plan", "body", "term", "batch")

    def __init__(self, phis, body, term, phi_plan=None, batch=None):
        self.phis = phis
        self.phi_plan = phi_plan
        self.body = body
        self.term = term
        self.batch = batch


class Interpreter:
    """Executes functions from one module against a flat memory."""

    def __init__(
        self,
        module: Module,
        machine: Machine = AVX512,
        cost_model: Optional[CostModel] = None,
        memory: Optional[Memory] = None,
        max_instructions: int = 500_000_000,
        predecode: bool = True,
        superinstructions: Optional[bool] = None,
        codegen: Optional[bool] = None,
    ):
        self.module = module
        self.machine = machine
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.memory = memory or Memory()
        self._max_instructions = max_instructions
        self.predecode = predecode
        if superinstructions is None:
            superinstructions = not env_flag("REPRO_NO_FUSE")
        self.superinstructions = superinstructions
        #: Earlier top-level launches a function needs before codegen arms
        #: for it: the default tiers reused kernels up, ``codegen=True``
        #: arms from the first launch.
        self._codegen_after = _TIER_UP_LAUNCHES if codegen is None else 0
        if env_flag("REPRO_NO_CODEGEN"):
            # The escape hatch beats everything, including an explicit
            # ``codegen=True`` — it must restore the prior engine exactly.
            codegen = False
        #: Whole-kernel codegen engine (see :mod:`repro.backend.codegen`):
        #: linearized functions bypass the dispatch loop entirely.  Rides
        #: on top of predecode (the decoded engine stays the bailout and
        #: trap-replay fallback).
        self.codegen = bool(codegen is None or codegen) and predecode
        self.stats = ExecStats()
        #: Exclusive (self-only) cycles per function name, for hot-spot telemetry.
        self.func_cycles: Dict[str, float] = {}
        #: Dynamic call count per function name.
        self.func_calls: Dict[str, int] = {}
        #: (caller, callee) -> inclusive cycles / dynamic calls along that edge.
        #: The root edge uses caller name ``"<root>"``.
        self.edge_cycles: Dict[Tuple[str, str], float] = {}
        self.edge_calls: Dict[Tuple[str, str], int] = {}
        #: Dynamic executions per fusion pattern (run counter, like stats).
        self.fuse_hits: Dict[str, int] = {}
        #: Fused sites per pattern, counted at decode time (decode artifact).
        self.fuse_static: Dict[str, int] = {}
        self._call_stack: List[str] = []
        self._child_cycles = 0.0
        self._cost_cache: Dict[Instruction, float] = {}
        self._decoded: Dict[Function, Dict[BasicBlock, _DecodedBlock]] = {}
        #: Trap replays on the unbatched twin this run (see :meth:`run`).
        self.batch_replays = 0
        self._fallback_interp: Optional["Interpreter"] = None
        self._batch_cache: Dict[Instruction, tuple] = {}
        #: Linearized function cache: Function -> generated callable, or
        #: ``None`` (sticky) when emission bailed out.
        self._codegen_fns: Dict[Function, object] = {}
        #: ``vm.codegen.*`` counters.  compiles/cache_hits/disk_hits are
        #: decode artifacts; calls/replays are run counters
        #: (:meth:`reset_stats` zeroes only the latter).
        self.codegen_stats: Dict[str, int] = {
            "compiles": 0, "cache_hits": 0, "disk_hits": 0,
            "calls": 0, "replays": 0,
        }
        #: Bailout reason -> count (decode artifact).
        self.codegen_bailouts: Dict[str, int] = {}
        #: True only while executing under :meth:`_run_replayable`: the
        #: generated code's block-merged charges are exact for completed
        #: runs but approximate at trap points, so the codegen engine
        #: requires the replay umbrella.
        self._codegen_armed = False
        #: When set (a ``repro.shard._ShardRun``), the top-level decoded
        #: dispatch loop executes only this shard's slice of every matched
        #: gang loop and rolls serial charges back on shards > 0 — see
        #: :mod:`repro.shard`.  ``None`` = normal full execution.
        self.shard = None

    # -- public API -----------------------------------------------------------------

    @property
    def max_instructions(self) -> int:
        """Instruction budget: a run charging more traps with
        :class:`ExecutionLimitExceeded`."""
        return self._max_instructions

    @max_instructions.setter
    def max_instructions(self, limit: int) -> None:
        # Fused windows and generated kernels bind the budget when they
        # are built, so a new budget needs fresh decodes.
        self._max_instructions = limit
        self.clear_decode_cache()
        self._fallback_interp = None

    def run(self, function, *args):
        """Execute ``function`` (a ``Function`` or name) with Python args."""
        if isinstance(function, str):
            function = self.module.get(function)
        if len(args) != len(function.args):
            raise TypeError(
                f"@{function.name} takes {len(function.args)} args, got {len(args)}"
            )
        argvals = [
            _coerce_arg(a.type, v) for a, v in zip(function.args, args)
        ]
        if not faultinject.active() and self.shard is None:
            # Sharded runs bypass trap replay: a shard that traps fails the
            # whole launch over to the supervisor's full in-process rerun,
            # which takes this path and is authoritative.
            codegen = False
            if self.codegen:
                launches = function.launches
                function.launches = launches + 1
                codegen = launches >= self._codegen_after
            batch_twin = self.module.attrs.get("batch_fallback")
            if batch_twin is not None or codegen:
                # Traps replay on the unbatched twin, or on the predecoded
                # engine over this module, so trap identity / trap-point
                # stats / memory effects are authoritative even across
                # emission seams.
                fallback = self.module if batch_twin is None else batch_twin
                return self._run_replayable(
                    function, argvals, args, fallback, codegen
                )
        return self._exec_function(function, argvals, depth=0)

    def _run_replayable(
        self, function: Function, argvals: List, args,
        fallback_module: Module, codegen: bool,
    ):
        """Top-level run with the gang-batching trap-replay contract.

        Any :class:`ExecutionError` raised while running a batched module
        (a genuine kernel trap, a budget trap, or a spurious batched-only
        trap from a finished gang's unmasked lanes) rolls the VM back to
        the pre-run state and replays the call wholesale on
        ``fallback_module`` — the unbatched twin stashed in
        ``module.attrs["batch_fallback"]``, or the module itself under
        the codegen engine (``codegen`` arms it for this launch; the
        fallback interpreter always runs with ``codegen=False``, i.e. the
        predecoded twin).  The replay's outcome — result or trap — is
        authoritative, so trap identity, trap-point ``ExecStats``, and
        attribution all match the fallback engine bit-for-bit.  Skipped
        under active fault injection: the
        driver never batches then, and replaying would double-fire
        one-shot fault plans.
        """
        memory = self.memory
        saved_data = memory.data.copy()
        saved_brk = memory._brk
        stats = self.stats
        snap = (
            stats.cycles, stats.instructions, dict(stats.counts),
            dict(self.func_cycles), dict(self.func_calls),
            dict(self.edge_cycles), dict(self.edge_calls),
            dict(self.fuse_hits), self._child_cycles,
        )
        self._codegen_armed = codegen
        try:
            return self._exec_function(function, argvals, depth=0)
        except (VMTrap, MemoryError_):
            memory.data[:] = saved_data
            memory._brk = saved_brk
            stats.cycles, stats.instructions = snap[0], snap[1]
            stats.counts.clear()
            stats.counts.update(snap[2])
            for live, saved in (
                (self.func_cycles, snap[3]), (self.func_calls, snap[4]),
                (self.edge_cycles, snap[5]), (self.edge_calls, snap[6]),
                (self.fuse_hits, snap[7]),
            ):
                live.clear()
                live.update(saved)
            self._child_cycles = snap[8]
            if fallback_module is self.module:
                self.codegen_stats["replays"] += 1
            else:
                self.batch_replays += 1
            fb = self._fallback_interp
            if fb is None:
                fb = self._fallback_interp = Interpreter(
                    fallback_module,
                    machine=self.machine,
                    cost_model=self.cost_model,
                    memory=memory,
                    max_instructions=self.max_instructions,
                    predecode=self.predecode,
                    superinstructions=self.superinstructions,
                    codegen=False,
                )
            fb.reset_stats()
            try:
                return fb.run(function.name, *args)
            finally:
                # Merge whatever the replay charged — including a trap's
                # partial charges — into this interpreter's counters.
                stats.merge(fb.stats)
                for live, other in (
                    (self.func_cycles, fb.func_cycles),
                    (self.edge_cycles, fb.edge_cycles),
                ):
                    for k, v in other.items():
                        live[k] = live.get(k, 0.0) + v
                for live, other in (
                    (self.func_calls, fb.func_calls),
                    (self.edge_calls, fb.edge_calls),
                    (self.fuse_hits, fb.fuse_hits),
                ):
                    for k, v in other.items():
                        live[k] = live.get(k, 0) + v
                self._child_cycles += fb._child_cycles
        finally:
            self._codegen_armed = False

    def reset_stats(self) -> ExecStats:
        """Zero all counters in place (``self.stats`` stays the same object).

        Reusing one interpreter for several timed runs without calling this
        silently accumulates cycles from earlier runs into every
        measurement.
        """
        stats = self.stats
        stats.cycles = 0.0
        stats.instructions = 0
        stats.counts.clear()
        self.func_cycles.clear()
        self.func_calls.clear()
        self.edge_cycles.clear()
        self.edge_calls.clear()
        self.fuse_hits.clear()
        self._child_cycles = 0.0
        self.batch_replays = 0
        self.codegen_stats["calls"] = 0
        self.codegen_stats["replays"] = 0
        return stats

    def clear_decode_cache(self) -> None:
        """Drop decoded blocks and cached costs (after mutating the module).

        Fused blocks are invalidated along with plain ones; the decode-time
        fusion site counters reset with them (dynamic ``fuse_hits`` are run
        counters and belong to :meth:`reset_stats` instead).  On an
        unsealed module the functions' codegen emission memos are dropped
        too: their guard sees only block/instruction counts and batching,
        so an in-place operand or opcode edit would replay stale code.  A
        sealed module is never edited, and its memos are shared by every
        interpreter over it.
        """
        self._decoded.clear()
        self._cost_cache.clear()
        self._batch_cache.clear()
        self.fuse_static.clear()
        self._codegen_fns.clear()
        if not self.module.sealed:
            for function in self.module.functions.values():
                function.emit_memo.clear()
        self.codegen_bailouts.clear()
        for key in ("compiles", "cache_hits", "disk_hits"):
            self.codegen_stats[key] = 0

    def hotspots(self) -> List[Dict[str, object]]:
        """Per-function cycle attribution, hottest first (for telemetry).

        Each entry carries the function's exclusive cycles plus its incoming
        call edges (``callers``: caller name → inclusive cycles and dynamic
        calls along that edge; the entry function's caller is ``"<root>"``).
        When superinstruction fusion fired, a final ``"(vm.fuse)"`` entry
        reports the decode-time fusion sites and dynamic hits per pattern.
        """
        incoming: Dict[str, Dict[str, Dict[str, object]]] = {}
        for (caller, callee), cycles in self.edge_cycles.items():
            incoming.setdefault(callee, {})[caller] = {
                "inclusive_cycles": cycles,
                "calls": self.edge_calls.get((caller, callee), 0),
            }
        entries: List[Dict[str, object]] = [
            {
                "function": name,
                "exclusive_cycles": cycles,
                "calls": self.func_calls.get(name, 0),
                "callers": incoming.get(name, {}),
            }
            for name, cycles in sorted(
                self.func_cycles.items(), key=lambda kv: -kv[1]
            )
        ]
        if any(self.fuse_hits.values()):
            entries.append(
                {
                    "function": "(vm.fuse)",
                    "exclusive_cycles": 0.0,
                    "calls": 0,
                    "callers": {},
                    "fusion": self.fusion_report(),
                }
            )
        return entries

    def call_edges(self) -> List[Dict[str, object]]:
        """Caller→callee cycle edges, heaviest first (for telemetry)."""
        return [
            {
                "caller": caller,
                "callee": callee,
                "inclusive_cycles": cycles,
                "calls": self.edge_calls.get((caller, callee), 0),
            }
            for (caller, callee), cycles in sorted(
                self.edge_cycles.items(), key=lambda kv: -kv[1]
            )
        ]

    def fusion_report(self) -> Dict[str, object]:
        """Decode-time fusion summary: sites fused per pattern and dynamic
        executions per pattern (``vm.fuse.<pattern>`` in telemetry)."""
        return {
            "superinstructions": self.superinstructions,
            "sites": dict(self.fuse_static),
            "hits": dict(self.fuse_hits),
        }

    # -- execution ---------------------------------------------------------------------

    def _exec_function(self, function: Function, argvals: List, depth: int):
        if depth > _MAX_CALL_DEPTH:
            raise VMTrap(f"call depth exceeded calling @{function.name}")
        stats = self.stats
        cycles_at_entry = stats.cycles
        saved_child_cycles = self._child_cycles
        self._child_cycles = 0.0
        name = function.name
        stack = self._call_stack
        caller = stack[-1] if stack else "<root>"
        stack.append(name)
        try:
            if self._codegen_armed:
                # Armed only inside _run_replayable: the generated code
                # bulk-charges per block, so its trap-point stats are
                # approximate and a replay on the predecoded twin must be
                # standing by.  Sharded and fault-injected runs skip the
                # wrapper and therefore transparently use the decoded
                # engine.
                kfn = self._codegen_fns.get(
                    function, _CODEGEN_UNCOMPILED
                )
                if kfn is _CODEGEN_UNCOMPILED:
                    kfn = self._codegen_compile(function)
                if kfn is not None:
                    self.codegen_stats["calls"] += 1
                    return kfn(argvals, depth)
            if self.predecode:
                return self._exec_decoded(function, argvals, depth)
            return self._exec_reference(function, argvals, depth)
        finally:
            stack.pop()
            inclusive = stats.cycles - cycles_at_entry
            exclusive = inclusive - self._child_cycles
            fc = self.func_cycles
            fc[name] = fc.get(name, 0.0) + exclusive
            calls = self.func_calls
            calls[name] = calls.get(name, 0) + 1
            edge = (caller, name)
            ec = self.edge_cycles
            ec[edge] = ec.get(edge, 0.0) + inclusive
            en = self.edge_calls
            en[edge] = en.get(edge, 0) + 1
            self._child_cycles = saved_child_cycles + inclusive

    # -- whole-kernel codegen engine -------------------------------------------------

    def _codegen_compile(self, function: Function):
        """Linearize ``function`` into one generated callable (or ``None``).

        Bailouts are sticky per function (the reason lands in
        ``codegen_bailouts``); successful compiles report their source
        origin in ``codegen_stats`` (``compiles`` / ``cache_hits`` /
        ``disk_hits``).  Emission failures of *any* kind degrade to the
        decoded engine — codegen is an accelerator, never a requirement.
        """
        from ..backend import codegen as _cg

        bailouts = self.codegen_bailouts
        kfn = None
        try:
            faultinject.maybe_fail("codegen", function.name)
            source, bindings = _cg.emit_function(self, function)
            code, origin = _cg.compiled_code(source)
            kfn = _cg.bind_code(code, bindings)
        except _cg.CodegenBailout as exc:
            bailouts[exc.reason] = bailouts.get(exc.reason, 0) + 1
        except faultinject.InjectedFault:
            bailouts["injected-fault"] = bailouts.get("injected-fault", 0) + 1
        except Exception as exc:  # defensive: an emitter bug must not trap
            reason = f"error:{type(exc).__name__}"
            bailouts[reason] = bailouts.get(reason, 0) + 1
        else:
            key = {"cache": "cache_hits", "disk": "disk_hits"}.get(
                origin, "compiles"
            )
            self.codegen_stats[key] += 1
        self._codegen_fns[function] = kfn
        return kfn

    def codegen_report(self) -> Dict[str, object]:
        """Whole-kernel codegen summary (``vm.codegen.*`` in telemetry)."""
        return {
            "enabled": self.codegen,
            "compiles": self.codegen_stats["compiles"],
            "cache_hits": self.codegen_stats["cache_hits"],
            "disk_hits": self.codegen_stats["disk_hits"],
            "calls": self.codegen_stats["calls"],
            "replays": self.codegen_stats["replays"],
            "bailouts": dict(self.codegen_bailouts),
        }

    # -- pre-decoded engine ---------------------------------------------------------

    def _exec_decoded(self, function: Function, argvals: List, depth: int):
        decoded = self._decoded.get(function)
        if decoded is None:
            decoded = self._decoded[function] = {}
        env: Dict[Value, object] = dict(zip(function.args, argvals))
        memory = self.memory
        stack_mark = memory._brk  # frame-local alloca discipline
        stats = self.stats
        counts = stats.counts
        limit = self._max_instructions
        fuse_hits = self.fuse_hits
        block = function.entry
        prev: Optional[BasicBlock] = None
        if function.attrs.get("batched"):
            # Per-frame divergent-loop gang-activity state (see
            # ``_exec_batch_block``): loop id -> committed / pending count.
            activity: Dict[str, int] = {}
            pending: Dict[str, int] = {}
        else:
            activity = pending = None  # type: ignore[assignment]
        shard = self.shard
        ctl = (shard.controller(function, self)
               if shard is not None and depth == 0 else None)
        try:
            while True:
                if ctl is not None:
                    jump = ctl.step(block, prev, env)
                    if jump is not None:
                        prev, block = jump
                        continue
                d = decoded.get(block)
                if d is None:
                    d = decoded[block] = self._decode_block(block, function)
                if d.batch is not None:
                    done, payload = self._exec_batch_block(
                        d.batch, env, depth, function, prev, activity, pending
                    )
                    if done:
                        if ctl is not None:
                            ctl.finish()
                        return payload
                    prev, block = block, payload
                    continue
                phis = d.phis
                if phis:
                    plan_map = d.phi_plan
                    if plan_map is not None:
                        # Batched parallel-phi assignment: resolve every
                        # incoming value (pure), bulk-charge the group, then
                        # assign via dict.update.  phi cost is 0.0, so the
                        # bulk charge touches only the instruction counter;
                        # a budget crossing is repaired to the exact
                        # reference trap point before raising.
                        plan = plan_map.get(prev)
                        if plan is None:
                            for _, edges in phis:
                                if prev not in edges:
                                    raise KeyError(
                                        f"phi has no incoming edge from block {prev.name}"
                                    )
                            raise KeyError(
                                f"phi has no incoming edge from block {prev.name}"
                            )
                        resolvers = plan[1]
                        vals = [r(env) for r in resolvers]
                        ni = stats.instructions + len(vals)
                        stats.instructions = ni
                        counts["phi"] = counts.get("phi", 0) + len(vals)
                        if ni > limit:
                            counts["phi"] -= ni - limit - 1
                            stats.instructions = limit + 1
                            raise ExecutionLimitExceeded(
                                f"exceeded {limit} instructions in @{function.name}"
                            )
                        env.update(zip(plan[0], vals))
                    else:
                        # Evaluate phis in parallel against the incoming edge.
                        phi_vals = []
                        for _, edges in phis:
                            resolver = edges.get(prev)
                            if resolver is None:
                                raise KeyError(
                                    f"phi has no incoming edge from block {prev.name}"
                                )
                            phi_vals.append(resolver(env))
                            stats.cycles += 0.0
                            stats.instructions += 1
                            counts["phi"] = counts.get("phi", 0) + 1
                            if stats.instructions > limit:
                                raise ExecutionLimitExceeded(
                                    f"exceeded {limit} instructions in @{function.name}"
                                )
                        for (instr, _), val in zip(phis, phi_vals):
                            env[instr] = val
                for instr, opcode, cost, thunk in d.body:
                    stats.cycles += cost
                    stats.instructions += 1
                    counts[opcode] = counts.get(opcode, 0) + 1
                    if stats.instructions > limit:
                        raise ExecutionLimitExceeded(
                            f"exceeded {limit} instructions in @{function.name}"
                        )
                    env[instr] = thunk(env, depth)
                term = d.term
                kind = term[0]
                if kind == _T_FUSED_CMPBR:
                    # Fused cmp+condbr: per-constituent accounting in the
                    # reference engine's charge-then-execute order.
                    stats.cycles += term[1]
                    stats.instructions += 1
                    opcode = term[2]
                    counts[opcode] = counts.get(opcode, 0) + 1
                    if stats.instructions > limit:
                        raise ExecutionLimitExceeded(
                            f"exceeded {limit} instructions in @{function.name}"
                        )
                    cond = term[3](env)
                    stats.cycles += term[6]
                    stats.instructions += 1
                    counts["condbr"] = counts.get("condbr", 0) + 1
                    if stats.instructions > limit:
                        raise ExecutionLimitExceeded(
                            f"exceeded {limit} instructions in @{function.name}"
                        )
                    fuse_hits["cmp_condbr"] = fuse_hits.get("cmp_condbr", 0) + 1
                    prev = block
                    block = term[4] if cond else term[5]
                    continue
                stats.cycles += term[1]
                stats.instructions += 1
                opcode = term[2]
                counts[opcode] = counts.get(opcode, 0) + 1
                if stats.instructions > limit:
                    raise ExecutionLimitExceeded(
                        f"exceeded {limit} instructions in @{function.name}"
                    )
                if kind == _T_BR:
                    prev, block = block, term[3]
                elif kind == _T_CONDBR:
                    prev = block
                    block = term[4] if term[3](env) else term[5]
                elif kind == _T_RET:
                    if ctl is not None:
                        ctl.finish()
                    resolver = term[3]
                    return resolver(env) if resolver is not None else None
                else:
                    raise VMTrap(f"reached 'unreachable' in @{function.name}")
        finally:
            memory._brk = stack_mark

    # -- decoding --------------------------------------------------------------------

    def _decode_block(self, block: BasicBlock, function: Function) -> _DecodedBlock:
        instructions = block.instructions
        if not instructions or not instructions[-1].is_terminator:
            raise VMTrap(
                f"block {block.name} in @{function.name} has no terminator"
            )
        if any("batch_mult" in instr.attrs for instr in instructions):
            return self._decode_batch_block(block, function)
        phis = []
        i = 0
        while i < len(instructions) and instructions[i].opcode == "phi":
            instr = instructions[i]
            edges = {
                pred: self._resolver(value)
                for value, pred in instr.phi_incoming()
            }
            phis.append((instr, edges))
            i += 1
        body_instrs = instructions[i:-1]
        term_instr = instructions[-1]
        phi_plan = None
        if self.superinstructions:
            if phis:
                targets = tuple(instr for instr, _ in phis)
                common = set(phis[0][1])
                for _, edges in phis[1:]:
                    common &= set(edges)
                phi_plan = {
                    pred: (targets, tuple(edges[pred] for _, edges in phis))
                    for pred in common
                }
            reserve = (
                term_instr.opcode == "condbr"
                and bool(body_instrs)
                and _cmp_condbr_fusible(body_instrs[-1], term_instr)
            )
            body = self._fuse_body(body_instrs, function, reserve)
        else:
            body = [
                (instr, instr.opcode, self._cost(instr), self._decode_instr(instr))
                for instr in body_instrs
            ]
        cost = self._cost(term_instr)
        op = term_instr.opcode
        tops = term_instr.operands
        if op == "br":
            term: Tuple = (_T_BR, cost, op, tops[0])
        elif op == "condbr":
            fused_term = None
            if self.superinstructions and body:
                fused_term = self._fuse_cmp_condbr(body, term_instr, cost)
            if fused_term is not None:
                term = fused_term
            else:
                term = (
                    _T_CONDBR, cost, op, self._resolver(tops[0]), tops[1], tops[2]
                )
        elif op == "ret":
            if tops:
                resolver = self._resolver(tops[0])
                if isinstance(tops[0], (Constant, UndefValue)) and isinstance(
                    tops[0].type, VectorType
                ):
                    # Shared constant payloads must not leak to callers who
                    # may mutate the returned array.
                    inner = resolver
                    resolver = lambda env: inner(env).copy()
                term = (_T_RET, cost, op, resolver)
            else:
                term = (_T_RET, cost, op, None)
        elif op == "unreachable":
            term = (_T_UNREACHABLE, cost, op)
        else:
            raise NotImplementedError(f"interpreter: terminator {op}")
        return _DecodedBlock(phis, body, term, phi_plan)

    # -- gang-batched blocks ----------------------------------------------------------
    #
    # Blocks annotated by ``repro.backend.batch`` execute B gangs per VM
    # step.  Each annotated instruction carries narrow charge prototypes
    # (``batch_charges``) and a multiplicity spec (``batch_mult``): the
    # number of unbatched-engine executions one batched step stands for.
    # A spec is an int (static multiplicity — loop-invariant code charges
    # ×B, header bookkeeping ×0) or a tuple of divergent-loop ids ending
    # in the static B; the VM resolves the first id with a live activity
    # count, so code under a divergent loop charges once per gang that
    # would still be iterating in the unbatched engine.  Superinstruction
    # fusion never applies inside batched blocks (their remainder twins
    # carry no annotations and fuse normally).

    def _batch_info(self, instr: Instruction):
        """``(charge_items, multspec)`` for an annotated instruction.

        ``charge_items`` is a tuple of ``(counts_key, narrow_cost)``; an
        external-call prototype contributes the unbatched engine's two
        charges (``call`` dispatch + the narrow ``ext:`` cost)."""
        cached = self._batch_cache.get(instr)
        if cached is not None:
            return cached
        items = []
        for proto in instr.attrs["batch_charges"]:
            if proto.opcode == "call":
                callee = proto.operands[0]
                ext_cost = callee.cost
                if callable(ext_cost):
                    ext_cost = ext_cost(
                        self.machine, [o.type for o in proto.operands[1:]]
                    )
                items.append(("call", self._cost(proto)))
                items.append((f"ext:{callee.name}", float(ext_cost)))
            else:
                items.append((proto.opcode, self._cost(proto)))
        info = (tuple(items), instr.attrs["batch_mult"])
        self._batch_cache[instr] = info
        return info

    @staticmethod
    def _batch_mult(spec, activity) -> int:
        if type(spec) is int:
            return spec
        for lid in spec:
            if type(lid) is int:
                return lid
            live = activity.get(lid)
            if live is not None:
                return live
        return 0  # pragma: no cover - specs always end in the static B

    def _batch_thunk(self, instr: Instruction):
        """Value thunk for a batched instruction.  Identical to the plain
        decode except for external calls, whose normal thunk charges the
        wide ``ext:`` cost internally — batched charging comes exclusively
        from the narrow prototypes."""
        if instr.opcode == "call" and isinstance(
            instr.operands[0], ExternalFunction
        ):
            impl = instr.operands[0].impl
            arg_resolvers = [self._resolver(o) for o in instr.operands[1:]]
            return lambda env, depth: impl(*[r(env) for r in arg_resolvers])
        return self._decode_instr(instr)

    def _decode_batch_block(self, block: BasicBlock, function: Function):
        """Decode an annotated block into ``(phis, body, term)``:

        ``phis`` — ``(instr, {pred: resolver}, items, multspec)``;
        ``body`` — ``(instr, items, multspec, thunk, activity)`` where
        ``activity`` is ``None`` or ``(loop_id, B, mask_resolver)`` for
        the divergent-loop ``mask_any``;
        ``term`` — ``(_T_BR, items, multspec, target)`` |
        ``(_T_CONDBR, items, multspec, cond_resolver, iftrue, iffalse,
        backedge_or_None)`` | ``(_T_UNREACHABLE, items, multspec)``.
        """
        instructions = block.instructions
        phis = []
        i = 0
        while instructions[i].opcode == "phi":
            instr = instructions[i]
            edges = {
                pred: self._resolver(value)
                for value, pred in instr.phi_incoming()
            }
            items, spec = self._batch_info(instr)
            phis.append((instr, edges, items, spec))
            i += 1
        body = []
        for instr in instructions[i:-1]:
            items, spec = self._batch_info(instr)
            act = None
            ba = instr.attrs.get("batch_activity")
            if ba is not None:
                act = (ba[0], ba[1], self._resolver(instr.operands[0]))
            body.append((instr, items, spec, self._batch_thunk(instr), act))
        term_instr = instructions[-1]
        items, spec = self._batch_info(term_instr)
        op = term_instr.opcode
        tops = term_instr.operands
        if op == "br":
            term: Tuple = (_T_BR, items, spec, tops[0])
        elif op == "condbr":
            term = (
                _T_CONDBR, items, spec, self._resolver(tops[0]),
                tops[1], tops[2], term_instr.attrs.get("batch_backedge"),
            )
        elif op == "unreachable":
            term = (_T_UNREACHABLE, items, spec)
        else:  # pragma: no cover - legality forbids ret/other inside the loop
            raise NotImplementedError(f"interpreter: batched terminator {op}")
        return _DecodedBlock((), (), None, batch=(tuple(phis), tuple(body), term))

    def _exec_batch_block(self, batch, env, depth, function, prev,
                          activity, pending):
        """Run one batched block; returns ``(False, next_block)`` or
        ``(True, return_value)``.

        Charging per instruction: each narrow charge item is applied
        ``m`` times at once (``cycles += cost·m`` is exact — the cost
        table is dyadic), with a single budget check per instruction.
        Prefix sums of the unbatched engine's charge sequence are a
        superset, so a budget crossing happens here iff the unbatched
        engine traps; the replay protocol then reproduces its exact trap
        point.
        """
        stats = self.stats
        counts = stats.counts
        limit = self._max_instructions
        phis, body, term = batch
        if phis:
            vals = []
            for instr, edges, items, spec in phis:
                resolver = edges.get(prev)
                if resolver is None:
                    raise KeyError(
                        f"phi has no incoming edge from block {prev.name}"
                    )
                vals.append(resolver(env))
                m = self._batch_mult(spec, activity)
                if m:
                    for key, cost in items:
                        stats.cycles += cost * m
                        stats.instructions += m
                        counts[key] = counts.get(key, 0) + m
                    if stats.instructions > limit:
                        raise ExecutionLimitExceeded(
                            f"exceeded {limit} instructions in @{function.name}"
                        )
            for (instr, _, _, _), val in zip(phis, vals):
                env[instr] = val
        for instr, items, spec, thunk, act in body:
            m = self._batch_mult(spec, activity)
            if m:
                for key, cost in items:
                    stats.cycles += cost * m
                    stats.instructions += m
                    counts[key] = counts.get(key, 0) + m
                if stats.instructions > limit:
                    raise ExecutionLimitExceeded(
                        f"exceeded {limit} instructions in @{function.name}"
                    )
            env[instr] = thunk(env, depth)
            if act is not None:
                pending[act[0]] = gang_activity_count(act[2](env), act[1])
        kind = term[0]
        m = self._batch_mult(term[2], activity)
        if m:
            for key, cost in term[1]:
                stats.cycles += cost * m
                stats.instructions += m
                counts[key] = counts.get(key, 0) + m
            if stats.instructions > limit:
                raise ExecutionLimitExceeded(
                    f"exceeded {limit} instructions in @{function.name}"
                )
        if kind == _T_BR:
            return False, term[3]
        if kind == _T_CONDBR:
            target = term[4] if term[3](env) else term[5]
            backedge = term[6]
            if backedge is not None:
                # Divergent-loop backedge: the condbr charged with the
                # *previous* iteration's activity above; commit the count
                # the mask_any just computed before the next iteration
                # (or drop the loop's state on exit).
                lid, taken_idx = backedge
                if target is (term[4] if taken_idx == 1 else term[5]):
                    activity[lid] = pending[lid]
                else:
                    activity.pop(lid, None)
                    pending.pop(lid, None)
            return False, target
        raise VMTrap(f"reached 'unreachable' in @{function.name}")

    # -- superinstruction fusion ------------------------------------------------------
    #
    # Every composite thunk preserves the reference engine's accounting
    # contract per constituent: charge cycles, bump the opcode counter,
    # check the instruction budget, then execute — in program order.  The
    # main loop performs that sequence for the group's FIRST constituent
    # (the body tuple carries its opcode and cost); the thunk does it for
    # the rest.  A constituent trapping mid-group therefore leaves
    # ``ExecStats`` exactly as the reference engine would.

    def _fuse_body(self, instrs, function: Function, reserve_last: bool = False):
        """Decode a block body, fusing call-free runs into codegen windows.

        Returns the decoded body list; fused entries are
        ``(last_instr, first_opcode, first_cost, composite_thunk)`` so the
        main loop's accounting covers the first constituent and its env
        write lands on the group's result.

        A window is a maximal run of non-call instructions compiled into
        one generated Python function (see :meth:`_codegen_group`); the
        named chains of the fusion table (``gep_load``, ``gep_store``,
        ``binop_binop``, ``vload_binop_vstore``) are detected inside each
        window and counted per embedded occurrence.  With ``reserve_last``
        the final instruction is left un-fused so the terminator decode
        can claim it for ``cmp_condbr``.
        """
        fname = function.name
        body = []
        fuse_static = self.fuse_static
        n = len(instrs)
        m = n - 1 if reserve_last else n
        j = 0
        while j < m:
            instr = instrs[j]
            op = instr.opcode
            if op in _GROUP_OPS:
                k = j + 1
                while k < m and instrs[k].opcode in _GROUP_OPS:
                    k += 1
                if k - j >= 2:
                    group = instrs[j:k]
                    thunk, idioms = self._codegen_group(group, fname)
                    body.append((group[-1], op, self._cost(instr), thunk))
                    fuse_static["window"] = fuse_static.get("window", 0) + 1
                    for pat, cnt in idioms.items():
                        fuse_static[pat] = fuse_static.get(pat, 0) + cnt
                    j = k
                    continue
            body.append(
                (instr, op, self._cost(instr), self._decode_instr(instr))
            )
            j += 1
        if reserve_last:
            instr = instrs[n - 1]
            body.append(
                (instr, instr.opcode, self._cost(instr), self._decode_instr(instr))
            )
        return body

    def _fuse_cmp_condbr(self, body, term_instr: Instruction, br_cost: float):
        """Try to fuse the block's trailing scalar cmp into its condbr.

        Returns a ``_T_FUSED_CMPBR`` term tuple (and pops the cmp off
        ``body``), or ``None`` when the pattern does not apply.
        """
        cond = term_instr.operands[0]
        if not _cmp_condbr_fusible(body[-1][0], term_instr):
            return None
        a = self._resolver(cond.operands[0])
        b = self._resolver(cond.operands[1])
        pred = cond.attrs["pred"]
        if cond.opcode == "icmp":
            impl = scalar_icmp_impl(pred, cond.operands[0].type)
        else:
            impl = scalar_fcmp_impl(pred)
        body.pop()
        self.fuse_static["cmp_condbr"] = self.fuse_static.get("cmp_condbr", 0) + 1
        return (
            _T_FUSED_CMPBR,
            self._cost(cond),
            cond.opcode,
            lambda env: impl(a(env), b(env)),
            term_instr.operands[1],
            term_instr.operands[2],
            br_cost,
        )

    def _binop_impl(self, instr: Instruction):
        """One pre-resolved 2-arg callable for a scalar or vector binop."""
        if isinstance(instr.type, VectorType):
            return vector_binop_impl(instr.opcode, instr.type.elem)
        return scalar_binop_impl(instr.opcode, instr.type)

    def _value_impl(self, instr: Instruction):
        """A value-level callable ``fn(*operand_payloads) -> payload``.

        Unlike :meth:`_decode_instr` thunks, these do not read ``env`` —
        the window codegen wires operands itself (locals for in-window
        values, ``env`` reads only at the window boundary).  Defined for
        every ``_GROUP_OPS`` opcode; operands map positionally.
        """
        op = instr.opcode
        ops = instr.operands
        vec = isinstance(instr.type, VectorType)

        if op in _BINOPS:
            return self._binop_impl(instr)
        if op in UNARY_OPS:
            if vec:
                elem = instr.type.elem
                return lambda a: eval_vector_unop(op, elem, a)
            t = instr.type
            return lambda a: eval_scalar_unop(op, t, a)
        if op == "icmp":
            pred = instr.attrs["pred"]
            src_t = ops[0].type
            if isinstance(src_t, VectorType):
                elem = src_t.elem
                return lambda a, b: eval_vector_icmp(pred, elem, a, b)
            return scalar_icmp_impl(pred, src_t)
        if op == "fcmp":
            pred = instr.attrs["pred"]
            if isinstance(ops[0].type, VectorType):
                return lambda a, b: eval_vector_fcmp(pred, a, b)
            return scalar_fcmp_impl(pred)
        if op in CAST_OPS:
            from_t, to_t = ops[0].type, instr.type
            if isinstance(to_t, VectorType):
                from_e, to_e = from_t.elem, to_t.elem
                return lambda v: eval_vector_cast(op, from_e, to_e, v)
            return lambda v: eval_scalar_cast(op, from_t, to_t, v)
        if op == "select":
            if isinstance(ops[0].type, VectorType) or vec:
                return lambda c, a, b: np.where(c, a, b)
            return lambda c, a, b: a if c else b
        if op == "fma":
            if vec:
                return lambda a, b, c: a * b + c
            t = instr.type
            return lambda a, b, c: round_float(t, round_float(t, a * b) + c)
        if op == "gep":
            bits = ops[1].type.bits
            esize = instr.type.pointee.size_bytes()
            return lambda base, idx: mask_int(
                base + to_signed(idx, bits) * esize, 64
            )
        if op == "broadcast":
            count = instr.type.count
            dtype = elem_dtype(instr.type.elem)
            return lambda s: np.full(count, s, dtype=dtype)
        if op == "extractelement":
            if instr.type.is_float:
                return lambda v, i: float(v[int(i) % len(v)])
            return lambda v, i: int(v[int(i) % len(v)])
        if op == "insertelement":
            def _insert(v, i, e):
                v = v.copy()
                v[int(i) % len(v)] = e
                return v
            return _insert
        if op == "shuffle":
            return lambda a, i: a[i.astype(np.int64) % len(a)]
        if op == "shuffle2":
            def _shuffle2(lo, hi, i):
                both = np.concatenate([lo, hi])
                return both[i.astype(np.int64) % len(both)]
            return _shuffle2
        if op == "sad":
            def _sad(a, b):
                diffs = np.abs(
                    a.astype(np.int64) - b.astype(np.int64)
                ).reshape(-1, 8).sum(axis=1)
                return diffs.astype(np.uint64)
            return _sad
        if op in REDUCE_OPS:
            reduce = self._reduce
            return lambda v: reduce(op, instr, v)
        if op == "mask_any":
            return lambda m: 1 if bool(m.any()) else 0
        if op == "mask_all":
            return lambda m: 1 if bool(m.all()) else 0
        if op == "mask_popcnt":
            return lambda m: int(m.sum())

        # -- trapping / side-effecting ops (exact interleaved accounting) -------------
        memory = self.memory
        if op == "load":
            t = instr.type
            return lambda addr: memory.load_scalar(addr, t)
        if op == "store":
            t = ops[0].type
            def _store(v, addr):
                memory.store_scalar(addr, t, v)
                return None
            return _store
        if op == "vload":
            elem, count = instr.type.elem, instr.type.count
            return lambda addr, mask: memory.load_packed(addr, elem, count, mask)
        if op == "vstore":
            elem = ops[0].type.elem
            def _vstore(v, addr, mask):
                memory.store_packed(addr, elem, v, mask)
                return None
            return _vstore
        if op == "gather":
            elem = instr.type.elem
            return lambda addrs, mask: memory.gather(addrs, elem, mask)
        if op == "scatter":
            elem = ops[0].type.elem
            def _scatter(v, addrs, mask):
                memory.scatter(addrs, elem, v, mask)
                return None
            return _scatter
        if op == "alloca":
            size = max(
                instr.type.pointee.size_bytes() * instr.attrs.get("count", 1), 1
            )
            return lambda: memory.alloc(size)
        if op == "atomicrmw":
            rmw = instr.attrs["op"]
            if rmw not in ATOMIC_RMW_OPS:
                raise VMTrap(f"atomicrmw: unsupported op {rmw!r}")
            t = ops[1].type
            impl = scalar_binop_impl(rmw, t)
            def _atomicrmw(addr, val):
                old = memory.load_scalar(addr, t)
                memory.store_scalar(addr, t, impl(old, val))
                return old
            return _atomicrmw
        raise NotImplementedError(f"window codegen: opcode {op}")

    # Scalar opcodes the window codegen emits as raw Python expressions
    # instead of impl-callable invocations.  Each template must reproduce
    # the corresponding ops.py impl bit-for-bit (incl. NaN behaviour) —
    # see _inline_expr.
    _INLINE_FBIN = {"fadd": "+", "fsub": "-", "fmul": "*"}
    _INLINE_IBIN = {"add": "+", "sub": "-", "mul": "*"}
    _INLINE_IBIT = {"and": "&", "or": "|", "xor": "^"}
    _INLINE_CMP_U = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                     "ugt": ">", "uge": ">="}
    _INLINE_CMP_S = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
    # Ordered fcmp preds where the Python operator already yields False on
    # NaN, matching eval_scalar_fcmp's unordered->0 rule.  "one" is NOT
    # inlinable: Python `nan != x` is True but the reference returns 0.
    _INLINE_FCMP = {"oeq": "==", "olt": "<", "ole": "<=",
                    "ogt": ">", "oge": ">="}

    def _inline_expr(self, instr: Instruction, argrefs, hoist):
        """Emit a scalar op as a plain expression, or ``None`` to fall back.

        Skips the impl-lambda call layer (and for f32 floats the
        round_float wrapper) for the ops that dominate benchsuite
        dispatch.  Every template is bit-identical to the ops.py impl;
        vectors and anything subtle (shifts, division, signed-overflowing
        casts to float, ...) fall back to :meth:`_value_impl`.
        """
        op = instr.opcode
        t = instr.type
        if isinstance(t, VectorType):
            return None
        # Mask reductions: scalar-typed with one vector operand; they gate
        # every divergent-loop backedge, so skipping the closure layer
        # matters.  Same truthiness as the _value_impl lambdas.
        if op == "mask_any":
            return f"(1 if {argrefs[0]}.any() else 0)"
        if op == "mask_all":
            return f"(1 if {argrefs[0]}.all() else 0)"
        if op == "mask_popcnt":
            # Hoisted: window code objects exec with empty __builtins__.
            i = hoist(int, key=("b", "int"))
            return f"{i}({argrefs[0]}.sum())"
        sym = self._INLINE_FBIN.get(op)
        if sym is not None and isinstance(t, FloatType):
            a, b = argrefs
            if t.bits == 32:
                cf = hoist(_c_float, key=("cf",))
                return f"{cf}({a} {sym} {b}).value"
            return f"({a} {sym} {b})"
        if isinstance(t, IntType):
            sym = self._INLINE_IBIN.get(op)
            if sym is not None:
                a, b = argrefs
                mask = (1 << t.bits) - 1
                return f"(({a} {sym} {b}) & {mask:#x})"
            sym = self._INLINE_IBIT.get(op)
            if sym is not None:
                a, b = argrefs
                return f"({a} {sym} {b})"
        if op in ("icmp", "fcmp"):
            src_t = instr.operands[0].type
            if isinstance(src_t, VectorType):
                return None
            pred = instr.attrs["pred"]
            a, b = argrefs
            if op == "fcmp":
                sym = self._INLINE_FCMP.get(pred)
                return None if sym is None else f"(1 if {a} {sym} {b} else 0)"
            sym = self._INLINE_CMP_U.get(pred)
            if sym is not None:
                return f"(1 if {a} {sym} {b} else 0)"
            sym = self._INLINE_CMP_S.get(pred)
            if sym is not None:
                # XOR with the sign bit maps two's-complement order onto
                # unsigned order, so no to_signed() calls are needed.
                sb = 1 << (getattr(src_t, "bits", 64) - 1)
                return f"(1 if ({a} ^ {sb:#x}) {sym} ({b} ^ {sb:#x}) else 0)"
            return None
        if op == "select" and not isinstance(instr.operands[0].type, VectorType):
            c, a, b = argrefs
            return f"({a} if {c} else {b})"
        if op == "gep":
            base, idx = argrefs
            bits = instr.operands[1].type.bits
            esize = t.pointee.size_bytes()
            ts = hoist(to_signed, key=("ts",))
            return (
                f"(({base} + {ts}({idx}, {bits}) * {esize})"
                " & 0xffffffffffffffff)"
            )
        if op in ("trunc", "zext", "sext") and isinstance(t, IntType):
            src_t = instr.operands[0].type
            if not isinstance(src_t, IntType):
                return None
            (v,) = argrefs
            if op == "zext":
                return v
            if op == "trunc":
                mask = (1 << t.bits) - 1
                return f"({v} & {mask:#x})"
            sb = 1 << (src_t.bits - 1)
            mask = (1 << t.bits) - 1
            return f"((({v} ^ {sb:#x}) - {sb:#x}) & {mask:#x})"
        return None

    def _codegen_group(self, group, fname: str):
        """Compile a call-free run of instructions into one window thunk.

        Decode-time codegen: the group becomes a single generated Python
        function whose operand values live in locals — no per-op dispatch,
        no tuple unpacks, and ``env`` writes only for values used outside
        the group.  Accounting follows the kind of each constituent:

        * **pure runs** (``_PURE_OPS``) are bulk-charged — one cycles add,
          one instruction add, one merged counter update per opcode, one
          budget check — before their computations execute; nothing in the
          run can trap, so the reordering is unobservable, and a budget
          crossing is rolled back to the exact reference trap point by
          :func:`_bulk_limit_repair`;
        * **trapping/side-effecting ops** (``_EXACT_OPS``) keep the
          reference engine's exact charge-then-execute interleave, so a
          mid-group trap leaves ``ExecStats`` bit-identical.

        The group's first constituent is charged by the main dispatch loop
        (the body tuple carries its opcode and cost), so its accounting is
        omitted here.  Every hoisted object is bound as a default
        argument, so the generated code runs on locals only.  Costs are
        dyadic rationals well inside float53, so a merged cycles add is
        bit-identical to sequential accumulation.

        Returns ``(thunk, idioms)`` where ``idioms`` counts the named
        fusion chains embedded in the group (``gep_load``, ``gep_store``,
        ``binop_binop``, ``vload_binop_vstore``), each reported under its
        own ``vm.fuse.<pattern>`` counter.
        """
        stats = self.stats
        hoisted = {
            "_s": stats,
            "_c": stats.counts,
            "_lim": self._max_instructions,
            "_repair": _bulk_limit_repair,
            "_trap": _budget_trap,
            "_fh": self.fuse_hits,
            "_fname": fname,
        }
        memo: Dict[object, str] = {}

        def hoist(obj, key=None):
            key = id(obj) if key is None else key
            name = memo.get(key)
            if name is None:
                name = f"_h{len(memo)}"
                memo[key] = name
                hoisted[name] = obj
            return name

        local: Dict[Value, str] = {}
        lines: List[str] = []

        def emit_bulk_acct(instrs):
            total = 0.0
            opcount: Dict[str, int] = {}
            meta = []
            for ins in instrs:
                c = self._cost(ins)
                total += c
                opcount[ins.opcode] = opcount.get(ins.opcode, 0) + 1
                meta.append((ins.opcode, c))
            if total:
                lines.append(f"    _s.cycles += {total!r}")
            lines.append(f"    _s.instructions += {len(meta)}")
            for opc, cnt in opcount.items():
                lines.append(f"    _c[{opc!r}] = _c.get({opc!r}, 0) + {cnt}")
            lines.append("    if _s.instructions > _lim:")
            lines.append(
                f"        _repair(_s, {hoist(tuple(meta))}, _lim, _fname)"
            )

        def emit_exact_acct(ins):
            c = self._cost(ins)
            if c:
                lines.append(f"    _s.cycles += {c!r}")
            lines.append("    _s.instructions += 1")
            opc = ins.opcode
            lines.append(f"    _c[{opc!r}] = _c.get({opc!r}, 0) + 1")
            lines.append("    if _s.instructions > _lim:")
            lines.append("        _trap(_lim, _fname)")

        def emit_compute(s, ins):
            argrefs = []
            for v in ins.operands:
                name = local.get(v)
                if name is not None:
                    argrefs.append(name)
                elif isinstance(v, Constant):
                    argrefs.append(hoist(_constant_payload(v), key=("c", id(v))))
                elif isinstance(v, UndefValue):
                    argrefs.append(hoist(_undef_payload(v.type), key=("u", id(v))))
                else:
                    argrefs.append(f"env[{hoist(v)}]")
            expr = self._inline_expr(ins, argrefs, hoist)
            if expr is None:
                fn = hoist(self._value_impl(ins))
                expr = f"{fn}({', '.join(argrefs)})"
            local[ins] = f"v{s}"
            lines.append(f"    v{s} = {expr}")

        pending: List[Tuple[int, Instruction]] = []

        def flush_pure():
            if not pending:
                return
            accted = [ins for s, ins in pending if s != 0]
            if accted:
                emit_bulk_acct(accted)
            for s, ins in pending:
                emit_compute(s, ins)
            pending.clear()

        for s, ins in enumerate(group):
            if ins.opcode in _EXACT_OPS:
                flush_pure()
                if s != 0:
                    emit_exact_acct(ins)
                emit_compute(s, ins)
            else:
                pending.append((s, ins))
        flush_pure()

        idioms = _embedded_idioms(group)
        lines.append("    _fh['window'] = _fh.get('window', 0) + 1")
        for pat, cnt in idioms.items():
            lines.append(f"    _fh[{pat!r}] = _fh.get({pat!r}, 0) + {cnt}")
        inside = set(group)
        for s, ins in enumerate(group[:-1]):
            if any(u not in inside for u, _ in ins.uses):
                lines.append(f"    env[{hoist(ins)}] = v{s}")
        lines.append(f"    return v{len(group) - 1}")

        params = ", ".join(f"{k}={k}" for k in hoisted)
        src = f"def _win(env, depth, {params}):\n" + "\n".join(lines)
        code = _WINDOW_CODE_CACHE.get(src)
        if code is None:
            code = _WINDOW_CODE_CACHE[src] = compile(
                src, "<repro-vm-window>", "exec"
            )
        g = dict(hoisted)
        # Hygiene-empty builtins (every name must be hoisted), except
        # __import__: numpy's lazy C-level imports resolve it through the
        # calling frame's builtins, so the first .sum()/.any() ever run
        # inside a window would raise KeyError('__import__') without it.
        g["__builtins__"] = {"__import__": __import__}
        exec(code, g)
        # Popped, so the namespace does not hold the function that holds
        # it as ``__globals__`` (a cycle pinning every hoisted payload).
        return g.pop("_win"), idioms

    def _resolver(self, value: Value):
        """A 1-arg callable ``resolver(env)`` producing the operand's payload."""
        if isinstance(value, (Instruction, Argument)):
            return operator.itemgetter(value)
        if isinstance(value, Constant):
            payload = _constant_payload(value)
            return lambda env: payload
        if isinstance(value, UndefValue):
            payload = _undef_payload(value.type)
            return lambda env: payload
        if isinstance(value, (BasicBlock, Function, ExternalFunction)):
            return lambda env: value
        raise TypeError(f"cannot evaluate {value!r}")

    def _decode_instr(self, instr: Instruction):
        """Compile one non-phi, non-terminator instruction into a thunk.

        The thunk signature is ``thunk(env, depth) -> payload``; opcode
        dispatch, operand resolution strategy, cost lookup, and
        type-directed specialization all happen here, once per static
        instruction.
        """
        op = instr.opcode
        ops = instr.operands
        vec = isinstance(instr.type, VectorType)

        if op in INT_BINOPS or op in FLOAT_BINOPS:
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            if vec:
                elem = instr.type.elem
                return lambda env, depth: eval_vector_binop(op, elem, a(env), b(env))
            impl = scalar_binop_impl(op, instr.type)
            return lambda env, depth: impl(a(env), b(env))
        if op in UNARY_OPS:
            a = self._resolver(ops[0])
            if vec:
                elem = instr.type.elem
                return lambda env, depth: eval_vector_unop(op, elem, a(env))
            t = instr.type
            return lambda env, depth: eval_scalar_unop(op, t, a(env))
        if op == "icmp":
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            pred = instr.attrs["pred"]
            src_t = ops[0].type
            if isinstance(src_t, VectorType):
                elem = src_t.elem
                return lambda env, depth: eval_vector_icmp(pred, elem, a(env), b(env))
            impl = scalar_icmp_impl(pred, src_t)
            return lambda env, depth: impl(a(env), b(env))
        if op == "fcmp":
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            pred = instr.attrs["pred"]
            if isinstance(ops[0].type, VectorType):
                return lambda env, depth: eval_vector_fcmp(pred, a(env), b(env))
            impl = scalar_fcmp_impl(pred)
            return lambda env, depth: impl(a(env), b(env))
        if op in CAST_OPS:
            v = self._resolver(ops[0])
            from_t, to_t = ops[0].type, instr.type
            if isinstance(to_t, VectorType):
                from_e, to_e = from_t.elem, to_t.elem
                return lambda env, depth: eval_vector_cast(op, from_e, to_e, v(env))
            return lambda env, depth: eval_scalar_cast(op, from_t, to_t, v(env))
        if op == "select":
            cond = self._resolver(ops[0])
            a = self._resolver(ops[1])
            b = self._resolver(ops[2])
            if isinstance(ops[0].type, VectorType) or vec:
                return lambda env, depth: np.where(cond(env), a(env), b(env))
            return lambda env, depth: a(env) if cond(env) else b(env)
        if op == "fma":
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            c = self._resolver(ops[2])
            if vec:
                return lambda env, depth: a(env) * b(env) + c(env)
            t = instr.type
            return lambda env, depth: round_float(
                t, round_float(t, a(env) * b(env)) + c(env)
            )

        # -- memory -------------------------------------------------------------------
        memory = self.memory
        if op == "load":
            addr = self._resolver(ops[0])
            t = instr.type
            return lambda env, depth: memory.load_scalar(addr(env), t)
        if op == "store":
            value = self._resolver(ops[0])
            addr = self._resolver(ops[1])
            t = ops[0].type
            def _store(env, depth):
                memory.store_scalar(addr(env), t, value(env))
                return None
            return _store
        if op == "gep":
            base = self._resolver(ops[0])
            idx = self._resolver(ops[1])
            bits = ops[1].type.bits
            esize = instr.type.pointee.size_bytes()
            return lambda env, depth: mask_int(
                base(env) + to_signed(idx(env), bits) * esize, 64
            )
        if op == "alloca":
            size = max(
                instr.type.pointee.size_bytes() * instr.attrs.get("count", 1), 1
            )
            return lambda env, depth: memory.alloc(size)
        if op == "atomicrmw":
            rmw = instr.attrs["op"]
            if rmw not in ATOMIC_RMW_OPS:
                raise VMTrap(f"atomicrmw: unsupported op {rmw!r}")
            addr = self._resolver(ops[0])
            val = self._resolver(ops[1])
            t = ops[1].type
            impl = scalar_binop_impl(rmw, t)
            def _atomicrmw(env, depth):
                a = addr(env)
                old = memory.load_scalar(a, t)
                memory.store_scalar(a, t, impl(old, val(env)))
                return old
            return _atomicrmw

        # -- vector -------------------------------------------------------------------
        if op == "broadcast":
            scalar = self._resolver(ops[0])
            count = instr.type.count
            dtype = elem_dtype(instr.type.elem)
            return lambda env, depth: np.full(count, scalar(env), dtype=dtype)
        if op == "extractelement":
            v = self._resolver(ops[0])
            idx = self._resolver(ops[1])
            if instr.type.is_float:
                def _extract(env, depth):
                    a = v(env)
                    return float(a[int(idx(env)) % len(a)])
            else:
                def _extract(env, depth):
                    a = v(env)
                    return int(a[int(idx(env)) % len(a)])
            return _extract
        if op == "insertelement":
            v = self._resolver(ops[0])
            idx = self._resolver(ops[1])
            elt = self._resolver(ops[2])
            def _insert(env, depth):
                a = v(env).copy()
                a[int(idx(env)) % len(a)] = elt(env)
                return a
            return _insert
        if op == "shuffle":
            src = self._resolver(ops[0])
            idx = self._resolver(ops[1])
            def _shuffle(env, depth):
                a = src(env)
                return a[idx(env).astype(np.int64) % len(a)]
            return _shuffle
        if op == "shuffle2":
            lo = self._resolver(ops[0])
            hi = self._resolver(ops[1])
            idx = self._resolver(ops[2])
            def _shuffle2(env, depth):
                both = np.concatenate([lo(env), hi(env)])
                return both[idx(env).astype(np.int64) % len(both)]
            return _shuffle2
        if op == "vload":
            addr = self._resolver(ops[0])
            mask = self._resolver(ops[1])
            elem, count = instr.type.elem, instr.type.count
            return lambda env, depth: memory.load_packed(
                addr(env), elem, count, mask(env)
            )
        if op == "vstore":
            value = self._resolver(ops[0])
            addr = self._resolver(ops[1])
            mask = self._resolver(ops[2])
            elem = ops[0].type.elem
            def _vstore(env, depth):
                memory.store_packed(addr(env), elem, value(env), mask(env))
                return None
            return _vstore
        if op == "gather":
            addrs = self._resolver(ops[0])
            mask = self._resolver(ops[1])
            elem = instr.type.elem
            return lambda env, depth: memory.gather(addrs(env), elem, mask(env))
        if op == "scatter":
            value = self._resolver(ops[0])
            addrs = self._resolver(ops[1])
            mask = self._resolver(ops[2])
            elem = ops[0].type.elem
            def _scatter(env, depth):
                memory.scatter(addrs(env), elem, value(env), mask(env))
                return None
            return _scatter
        if op == "sad":
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            def _sad(env, depth):
                diffs = np.abs(
                    a(env).astype(np.int64) - b(env).astype(np.int64)
                ).reshape(-1, 8).sum(axis=1)
                return diffs.astype(np.uint64)
            return _sad
        if op in REDUCE_OPS:
            v = self._resolver(ops[0])
            reduce = self._reduce
            return lambda env, depth: reduce(op, instr, v(env))
        if op == "mask_any":
            m = self._resolver(ops[0])
            return lambda env, depth: 1 if bool(m(env).any()) else 0
        if op == "mask_all":
            m = self._resolver(ops[0])
            return lambda env, depth: 1 if bool(m(env).all()) else 0
        if op == "mask_popcnt":
            m = self._resolver(ops[0])
            return lambda env, depth: int(m(env).sum())

        # -- calls --------------------------------------------------------------------
        if op == "call":
            callee = ops[0]
            arg_resolvers = [self._resolver(o) for o in ops[1:]]
            if isinstance(callee, ExternalFunction):
                cost = callee.cost
                if callable(cost):
                    cost = cost(self.machine, [o.type for o in ops[1:]])
                cost = float(cost)
                label = f"ext:{callee.name}"
                impl = callee.impl
                charge = self.stats.charge
                def _ext_call(env, depth):
                    charge(label, cost)
                    return impl(*[r(env) for r in arg_resolvers])
                return _ext_call
            # Weak: a thunk owning ``self`` would close a cycle through the
            # decode cache.  The interpreter is running, so ``ref()`` is live.
            ref = weakref.ref(self)
            def _call(env, depth):
                return ref()._exec_function(
                    callee, [r(env) for r in arg_resolvers], depth + 1
                )
            return _call

        raise NotImplementedError(f"interpreter: opcode {op}")

    # -- reference engine ------------------------------------------------------------

    def _exec_reference(self, function: Function, argvals: List, depth: int):
        env: Dict[Value, object] = dict(zip(function.args, argvals))
        stack_mark = self.memory._brk  # frame-local alloca discipline
        block = function.entry
        prev: Optional[BasicBlock] = None
        stats = self.stats
        counts = stats.counts
        batched = function.attrs.get("batched")
        # Divergent-loop gang-activity state; see _exec_batch_block.
        activity: Dict[str, int] = {}
        pending: Dict[str, int] = {}

        def charge_batched(instr) -> None:
            items, spec = self._batch_info(instr)
            m = self._batch_mult(spec, activity)
            if m:
                for key, cost in items:
                    stats.cycles += cost * m
                    stats.instructions += m
                    counts[key] = counts.get(key, 0) + m
                if stats.instructions > self._max_instructions:
                    raise ExecutionLimitExceeded(
                        f"exceeded {self._max_instructions} instructions"
                        f" in @{function.name}"
                    )

        try:
            while True:
                instructions = block.instructions
                # Evaluate phis in parallel against the incoming edge.
                n_phi = 0
                if instructions and instructions[0].opcode == "phi":
                    phi_vals = []
                    for instr in instructions:
                        if instr.opcode != "phi":
                            break
                        n_phi += 1
                        phi_vals.append(
                            self._value(env, instr.phi_value_for(prev))
                        )
                        if batched and "batch_mult" in instr.attrs:
                            charge_batched(instr)
                        else:
                            stats.charge("phi", 0.0)
                            if stats.instructions > self._max_instructions:
                                raise ExecutionLimitExceeded(
                                    f"exceeded {self._max_instructions} instructions"
                                    f" in @{function.name}"
                                )
                    for instr, val in zip(instructions[:n_phi], phi_vals):
                        env[instr] = val
                for instr in instructions[n_phi:]:
                    annotated = batched and "batch_mult" in instr.attrs
                    if annotated:
                        charge_batched(instr)
                    else:
                        stats.charge(instr.opcode, self._cost(instr))
                        if stats.instructions > self._max_instructions:
                            raise ExecutionLimitExceeded(
                                f"exceeded {self._max_instructions} instructions in @{function.name}"
                            )
                    op = instr.opcode
                    if op == "br":
                        prev, block = block, instr.operands[0]
                        break
                    if op == "condbr":
                        cond = self._value(env, instr.operands[0])
                        target = instr.operands[1] if cond else instr.operands[2]
                        if annotated:
                            backedge = instr.attrs.get("batch_backedge")
                            if backedge is not None:
                                lid, taken_idx = backedge
                                if target is instr.operands[taken_idx]:
                                    activity[lid] = pending[lid]
                                else:
                                    activity.pop(lid, None)
                                    pending.pop(lid, None)
                        prev, block = block, target
                        break
                    if op == "ret":
                        if instr.operands:
                            return self._value(env, instr.operands[0])
                        return None
                    if op == "unreachable":
                        raise VMTrap(f"reached 'unreachable' in @{function.name}")
                    if annotated and op == "call" and isinstance(
                        instr.operands[0], ExternalFunction
                    ):
                        # Batched charging comes from the narrow prototypes;
                        # bypass the impl path that charges the wide cost.
                        env[instr] = instr.operands[0].impl(
                            *[self._value(env, o) for o in instr.operands[1:]]
                        )
                    else:
                        env[instr] = self._exec_instr(env, instr, depth)
                    ba = instr.attrs.get("batch_activity") if annotated else None
                    if ba is not None:
                        pending[ba[0]] = gang_activity_count(
                            self._value(env, instr.operands[0]), ba[1]
                        )
        finally:
            self.memory._brk = stack_mark

    def _exec_instr(self, env: Dict, instr: Instruction, depth: int):
        op = instr.opcode
        ops = instr.operands
        vec = isinstance(instr.type, VectorType)

        if op in INT_BINOPS or op in FLOAT_BINOPS:
            a = self._value(env, ops[0])
            b = self._value(env, ops[1])
            if vec:
                return eval_vector_binop(op, instr.type.elem, a, b)
            return eval_scalar_binop(op, instr.type, a, b)
        if op in UNARY_OPS:
            a = self._value(env, ops[0])
            if vec:
                return eval_vector_unop(op, instr.type.elem, a)
            return eval_scalar_unop(op, instr.type, a)
        if op == "icmp":
            a, b = self._value(env, ops[0]), self._value(env, ops[1])
            src_t = ops[0].type
            if isinstance(src_t, VectorType):
                return eval_vector_icmp(instr.attrs["pred"], src_t.elem, a, b)
            return eval_scalar_icmp(instr.attrs["pred"], src_t, a, b)
        if op == "fcmp":
            a, b = self._value(env, ops[0]), self._value(env, ops[1])
            if isinstance(ops[0].type, VectorType):
                return eval_vector_fcmp(instr.attrs["pred"], a, b)
            return eval_scalar_fcmp(instr.attrs["pred"], a, b)
        if op in CAST_OPS:
            v = self._value(env, ops[0])
            from_t, to_t = ops[0].type, instr.type
            if isinstance(to_t, VectorType):
                return eval_vector_cast(op, from_t.elem, to_t.elem, v)
            return eval_scalar_cast(op, from_t, to_t, v)
        if op == "select":
            cond = self._value(env, ops[0])
            a, b = self._value(env, ops[1]), self._value(env, ops[2])
            if isinstance(ops[0].type, VectorType) or vec:
                return np.where(cond, a, b)
            return a if cond else b
        if op == "fma":
            a, b, c = (self._value(env, o) for o in ops)
            if vec:
                return a * b + c
            return round_float(instr.type, round_float(instr.type, a * b) + c)

        # -- memory -------------------------------------------------------------------
        if op == "load":
            return self.memory.load_scalar(self._value(env, ops[0]), instr.type)
        if op == "store":
            value = self._value(env, ops[0])
            self.memory.store_scalar(self._value(env, ops[1]), ops[0].type, value)
            return None
        if op == "gep":
            base = self._value(env, ops[0])
            idx = self._value(env, ops[1])
            idx = to_signed(idx, ops[1].type.bits)
            return mask_int(base + idx * instr.type.pointee.size_bytes(), 64)
        if op == "alloca":
            size = instr.type.pointee.size_bytes() * instr.attrs.get("count", 1)
            return self.memory.alloc(max(size, 1))
        if op == "atomicrmw":
            rmw = instr.attrs["op"]
            if rmw not in ATOMIC_RMW_OPS:
                raise VMTrap(f"atomicrmw: unsupported op {rmw!r}")
            addr = self._value(env, ops[0])
            val = self._value(env, ops[1])
            old = self.memory.load_scalar(addr, ops[1].type)
            new = eval_scalar_binop(rmw, ops[1].type, old, val)
            self.memory.store_scalar(addr, ops[1].type, new)
            return old

        # -- vector -------------------------------------------------------------------
        if op == "broadcast":
            scalar = self._value(env, ops[0])
            return np.full(instr.type.count, scalar, dtype=elem_dtype(instr.type.elem))
        if op == "extractelement":
            v = self._value(env, ops[0])
            idx = self._value(env, ops[1])
            lane = v[int(idx) % len(v)]
            return float(lane) if instr.type.is_float else int(lane)
        if op == "insertelement":
            v = self._value(env, ops[0]).copy()
            idx = self._value(env, ops[1])
            v[int(idx) % len(v)] = self._value(env, ops[2])
            return v
        if op == "shuffle":
            src = self._value(env, ops[0])
            idx = self._value(env, ops[1]).astype(np.int64) % len(src)
            return src[idx]
        if op == "shuffle2":
            both = np.concatenate(
                [self._value(env, ops[0]), self._value(env, ops[1])]
            )
            idx = self._value(env, ops[2]).astype(np.int64) % len(both)
            return both[idx]
        if op == "vload":
            addr = self._value(env, ops[0])
            mask = self._value(env, ops[1])
            return self.memory.load_packed(addr, instr.type.elem, instr.type.count, mask)
        if op == "vstore":
            value = self._value(env, ops[0])
            addr = self._value(env, ops[1])
            mask = self._value(env, ops[2])
            self.memory.store_packed(addr, ops[0].type.elem, value, mask)
            return None
        if op == "gather":
            addrs = self._value(env, ops[0])
            mask = self._value(env, ops[1])
            return self.memory.gather(addrs, instr.type.elem, mask)
        if op == "scatter":
            value = self._value(env, ops[0])
            addrs = self._value(env, ops[1])
            mask = self._value(env, ops[2])
            self.memory.scatter(addrs, ops[0].type.elem, value, mask)
            return None
        if op == "sad":
            a = self._value(env, ops[0]).astype(np.int64)
            b = self._value(env, ops[1]).astype(np.int64)
            diffs = np.abs(a - b).reshape(-1, 8).sum(axis=1)
            return diffs.astype(np.uint64)
        if op in REDUCE_OPS:
            return self._reduce(op, instr, self._value(env, ops[0]))
        if op == "mask_any":
            return 1 if bool(self._value(env, ops[0]).any()) else 0
        if op == "mask_all":
            return 1 if bool(self._value(env, ops[0]).all()) else 0
        if op == "mask_popcnt":
            return int(self._value(env, ops[0]).sum())

        # -- calls --------------------------------------------------------------------
        if op == "call":
            callee = ops[0]
            args = [self._value(env, o) for o in ops[1:]]
            if isinstance(callee, ExternalFunction):
                cost = callee.cost
                if callable(cost):
                    cost = cost(self.machine, [o.type for o in ops[1:]])
                self.stats.charge(f"ext:{callee.name}", float(cost))
                return callee.impl(*args)
            return self._exec_function(callee, args, depth + 1)

        raise NotImplementedError(f"interpreter: opcode {op}")

    @staticmethod
    def _reduce(op: str, instr: Instruction, v: np.ndarray):
        elem = instr.operands[0].type.elem
        if op == "reduce_add":
            if elem.is_float:
                return round_float(instr.type, float(np.sum(v, dtype=v.dtype)))
            if elem.bits == 1:
                return 1 if bool(np.bitwise_xor.reduce(v)) else 0
            return int(np.add.reduce(v, dtype=v.dtype))
        if op in ("reduce_min_s", "reduce_max_s"):
            from .nputil import from_signed, signed_view

            sv = signed_view(v)
            r = int(sv.min() if op.endswith("min_s") else sv.max())
            return from_signed(r, elem.bits)
        if op == "reduce_min_u":
            r = v.min()
            return float(r) if elem.is_float else int(r)
        if op == "reduce_max_u":
            r = v.max()
            return float(r) if elem.is_float else int(r)
        if op == "reduce_and":
            if elem.bits == 1:
                return 1 if bool(v.all()) else 0
            return int(np.bitwise_and.reduce(v))
        if op == "reduce_or":
            if elem.bits == 1:
                return 1 if bool(v.any()) else 0
            return int(np.bitwise_or.reduce(v))
        raise NotImplementedError(op)

    # -- helpers --------------------------------------------------------------------

    def _value(self, env: Dict, value: Value):
        if isinstance(value, (Instruction, Argument)):
            return env[value]
        if isinstance(value, Constant):
            return _constant_payload(value)
        if isinstance(value, UndefValue):
            return _undef_payload(value.type)
        if isinstance(value, (BasicBlock, Function, ExternalFunction)):
            return value
        raise TypeError(f"cannot evaluate {value!r}")

    def _cost(self, instr: Instruction) -> float:
        # Keyed by the instruction object (identity hash): unlike id(), a
        # live key can never be recycled to alias a different instruction.
        cost = self._cost_cache.get(instr)
        if cost is None:
            cost = self.cost_model.cost(instr, self.machine)
            self._cost_cache[instr] = cost
        return cost


def _constant_payload(const: Constant):
    type = const.type
    if isinstance(type, VectorType):
        return np.array(const.value, dtype=elem_dtype(type.elem))
    if type.is_float:
        return round_float(type, const.value)
    return const.value


def _undef_payload(type: Type):
    if isinstance(type, VectorType):
        return np.zeros(type.count, dtype=elem_dtype(type.elem))
    if type.is_float:
        return 0.0
    return 0


def _coerce_arg(type: Type, value):
    if isinstance(type, VectorType):
        return np.asarray(value, dtype=elem_dtype(type.elem))
    if isinstance(type, FloatType):
        return round_float(type, float(value))
    if isinstance(type, (IntType, PointerType)):
        return mask_int(int(value), getattr(type, "bits", 64))
    raise TypeError(f"cannot pass argument of type {type}")
