"""Whole-kernel codegen: one generated Python function per IR function.

The engine ladder so far (reference → predecoded thunks →
superinstruction windows → gang batching) still pays a Python-level
fetch/decode step at every basic-block boundary: a dict lookup for the
decoded block, per-phi resolver calls, tuple unpacks per body entry, and
a terminator dispatch.  This module retires that loop entirely — at
decode time it *linearizes* a function's structurized CFG into a single
generated Python function over the live payloads:

* every SSA value becomes a Python local (``v7``), so the per-value
  ``env`` dict disappears along with its reads and writes;
* natural loops become native ``while True:`` loops whose exit edges
  lower to ``break`` — for vectorized divergent loops the loop condition
  is the ``mask_any`` lane-mask reduction, i.e. the classic
  ``while mask.any():`` shape — and backedges lower to a parallel phi
  assignment plus ``continue``.  Loops with **several distinct exit
  targets** (early ``return`` under a serial loop, multi-level
  ``break``/``continue``) lower through a *dispatch-variable exit
  merge*: each exiting edge records a small integer before ``break`` and
  an ``if``/``elif`` chain after the loop resumes the right
  continuation, unwinding one Python loop level at a time;
* forward branches lower to ``if``/``else`` on the (already
  mask-converted) scalar condition, with the structural join computed
  from the immediate postdominator.  A trailing single-use scalar
  compare or mask reduction feeding the ``condbr`` folds straight into
  the ``if`` header (the fused engine's ``cmp_condbr`` pattern) instead
  of materializing a 0/1 local;
* the superinstruction window emitter's scalar expression inliner
  (:meth:`Interpreter._inline_expr` — inlined f32 rounding, literal int
  masks) is reused verbatim, and vector ops additionally inline to raw
  numpy expressions (``v34 * v34`` instead of an impl-closure call) —
  the whole body runs under a saved/restored ``np.seterr(all="ignore")``
  so the inlined forms match the impls' per-call ``errstate`` guards;
* gang-batched blocks inline their narrow-prototype charging
  (multiplicity × per-item cost) exactly as the reference engine
  interprets it; divergent-loop activity state lives in *specialized
  Python locals* (``_a0``/``_p0``) with the batch factor, gang width,
  and mask reshape emitted as literals (batch-factor specialization) —
  the activity-dict protocol only remains as a fallback for shapes the
  specializer cannot prove.

Accounting contract
-------------------

``ExecStats`` stays bit-identical to the reference engine for every run
that completes, and the trap-replay protocol covers the rest:

* all charges of one basic block merge into a single prologue, and the
  accumulators themselves are **function-local**: cycles (``_cy``),
  instructions (``_ni``), and one integer local per distinct counter key
  (``_k0``…) accumulate in plain Python locals and flush into
  ``ExecStats`` once, in the function's ``finally``.  Cycle costs are
  dyadic rationals well inside float53 (the window emitter's bulk-charge
  argument), so the locally-accumulated sums are bit-identical to the
  reference engine's sequential accumulation under *any* association;
  instruction and opcode counts are integers and commute.  Counter keys
  flush only when nonzero, so a key the reference engine never created
  never appears.  Around an internal call the accumulators flush and
  reset (the callee charges ``ExecStats`` directly), and the budget
  headroom re-derives;
* batched blocks fold their narrow-prototype charges the same way,
  grouped by multiplicity spec: static multiplicities fold at emit time,
  divergent ones resolve through the specialized activity locals
  (activity is constant within a block — it only changes at backedge
  commits);
* the per-block budget check compares ``_ni`` against the headroom
  ``_rem = max_instructions - stats.instructions`` captured at entry
  (and after each internal call), which is exactly the reference
  engine's ``instructions > limit`` predicate; the counter is monotone
  and every charging block checks, so any reference-engine budget
  crossing fires a (possibly later) check here, and a check here never
  fires unless the reference engine crossed first;
* a trap's exact trap-point stats, message, and memory effects come from
  the **replay**: the codegen engine only ever runs under
  :meth:`Interpreter._run_replayable`, which snapshots memory + stats,
  rolls back on any ``VMTrap``/``MemoryError_`` (including the partial
  flush the ``finally`` performed on the way out), and re-runs on the
  predecoded twin (``codegen=False``), whose outcome is authoritative —
  the same contract gang batching established.  The interpreter arms the
  codegen engine *only* inside that wrapper, so fault-injected and
  sharded runs (which skip the wrapper) transparently use the decoded
  engine.

Bailout taxonomy
----------------

Linearization is best-effort: any shape the structurer cannot express as
native Python control flow raises :class:`CodegenBailout` with a reason
and the function falls back to the decoded engine.  Reasons are tallied
per interpreter and surface as ``vm.codegen.bailouts`` telemetry.

Retired (now compiled): ``multi-exit-loop``, ``multi-level-break`` and
``multi-level-continue`` (dispatch-variable exit merge), ``ret`` inside
batched bodies, and mixed annotated/plain batched blocks (charged
per-instruction exactly as the reference engine does).

Kept deliberately: ``function-too-large`` / ``deep-nesting`` (size
guards), ``block-re-emitted`` (irreducible control flow the dispatch
merge cannot structure), ``no-terminator`` / ``use-before-def``
(malformed IR), ``batched-internal-call`` (an *annotated* internal call
has no narrow-prototype emission), and ``injected-fault`` (fault plans
must not be double-counted through generated code).

Caching
-------

Generated source embeds only structure (costs as literals, opcode
strings, batch factors, hoisted-name wiring); payloads and impls bind at
``exec`` time through default arguments, so the *code object* is
shareable.  Each function memoizes its own emissions and bailouts in
``Function.emit_memo``: the compile cache hands every caller the same
sealed module, so every interpreter over it shares one memo, and the
memo is freed with the module; ``clone_module`` and pickled copies
start with an empty one.  A memo entry is guarded by the
function's block/instruction counts and a **batch fingerprint** — the
``batched`` attr plus the count of annotated instructions — so an
emission or bailout memoized against one shape or batching
configuration never answers for another.  Sources map to compiled code
objects process-wide, and the code objects persist across processes via
:mod:`repro.diskcache` (``store_code``/``load_code``).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import diskcache
from ..ir.cfg import Loop, find_loops, reverse_postorder
from ..ir.module import BasicBlock, ExternalFunction, Function
from ..ir.types import FloatType, IntType, VectorType
from ..ir.values import Constant, UndefValue, Value
from ..vm.interp import (
    _GROUP_OPS,
    _budget_trap,
    _constant_payload,
    _undef_payload,
    _uses_exactly,
)
from ..vm.nputil import (
    as_unsigned,
    elem_dtype,
    signed_dtype,
    signed_view,
)
from ..vm.ops import VMTrap, gang_activity_count

__all__ = ["CodegenBailout", "emit_function", "compiled_code", "bind_code"]

#: Emission refuses functions above this static instruction count — the
#: generated source would dwarf the decode win and slow ``compile()``.
MAX_CODEGEN_INSTRS = 8000

#: Emission refuses nesting deeper than this (the CPython tokenizer caps
#: indentation at 100 levels; structured kernels sit far below this).
MAX_NESTING = 40

#: Virtual exit node for the postdominator computation.
_EXIT = object()

#: Marker line expanded into an accumulator flush+reset in :meth:`emit`
#: (the full set of counter locals is only known once emission finishes).
_FLUSH = "\x00flush"

#: Generated source → compiled code object, shared across every
#: interpreter in the process (the source embeds no payloads).
_CODE_CACHE: Dict[str, object] = {}

#: Hoisted prologue names rebuilt per interpreter (everything else in the
#: bindings is interpreter-independent or re-derivable from a recipe).
_FIXED_BINDINGS = frozenset(
    ("_s", "_c", "_L", "_mem", "_fname", "_trap", "_iref", "_gac", "_VMTrap")
)

#: Ops whose ``_value_impl`` closure captures interpreter memory and must
#: be rebuilt when a cached emission rebinds to another interpreter; every
#: other impl closure depends only on the instruction and is shared.
_REBIND_OPS = frozenset(
    ("load", "store", "vload", "vstore", "gather", "scatter",
     "alloca", "atomicrmw")
)

#: Vector-op inline templates.  Each form must be bit-identical to the
#: corresponding ops.py impl *under* ``np.seterr(all="ignore")`` — the
#: generated function installs that errstate for its whole body, exactly
#: covering the per-call ``errstate`` guards the impls carry.
_VEC_FBIN = {"fadd": "+", "fsub": "-", "fmul": "*", "fdiv": "/"}
_VEC_IBIN = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
#: i1 lanes are numpy bools: arithmetic degenerates to bitwise forms
#: (mirrors ops._vector_bool_binop).
_VEC_BBIN = {"and": "&", "umin": "&", "mul": "&", "smax": "&",
             "or": "|", "umax": "|",
             "xor": "^", "add": "^", "sub": "^"}
_VEC_CMP_U = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
              "ugt": ">", "uge": ">="}
_VEC_CMP_S = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
#: Vector fcmp inlines the ordered-mask form of ops.eval_vector_fcmp;
#: unlike the scalar table, ``one`` is safe here (the explicit
#: ``~(isnan|isnan)`` mask owns the NaN behaviour, not the operator).
_VEC_FCMP = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=",
             "ogt": ">", "oge": ">="}
#: Vector casts that are a single ``.astype`` in ops.eval_vector_cast.
_VEC_CAST_ASTYPE = frozenset(
    ("ptrtoint", "inttoptr", "trunc", "zext", "fptrunc", "fpext", "uitofp")
)

#: Scalar condbr-condition folds: predicate → raw truthy Python operator.
_COND_CMP_U = _VEC_CMP_U
_COND_CMP_S = _VEC_CMP_S
#: Ordered fcmp preds where the Python operator already yields False on
#: NaN, matching eval_scalar_fcmp's unordered→0 rule ("one" is NOT
#: foldable: Python ``nan != x`` is True but the reference returns 0).
_COND_FCMP = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}


class CodegenBailout(Exception):
    """This function's CFG or opcode mix cannot be linearized; the caller
    falls back to the decoded engine and records ``reason``."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _postdominators(function: Function) -> Dict[BasicBlock, object]:
    """Immediate postdominators of the reachable CFG (Cooper–Harvey–
    Kennedy on the reverse graph, with a virtual exit joining every
    ``ret``/``unreachable`` block).  Blocks that cannot reach an exit
    (infinite loops) are absent from the result.
    """
    reachable = reverse_postorder(function)
    reachable_set = set(reachable)
    exits = [
        b for b in reachable
        if b.instructions and b.instructions[-1].opcode in ("ret", "unreachable")
    ]
    # Reverse-graph successors: CFG predecessors (restricted to reachable).
    rsucc: Dict[object, List[object]] = {
        b: [p for p in b.predecessors if p in reachable_set] for b in reachable
    }
    rsucc[_EXIT] = list(exits)

    # Postorder of the reverse graph from the virtual exit (iterative).
    visited: Set[object] = {_EXIT}
    postorder: List[object] = []
    stack: List[Tuple[object, object]] = [(_EXIT, iter(rsucc[_EXIT]))]
    while stack:
        _node, it = stack[-1]
        advanced = False
        for nxt in it:
            if nxt not in visited:
                visited.add(nxt)
                stack.append((nxt, iter(rsucc[nxt])))
                advanced = True
                break
        if not advanced:
            postorder.append(stack.pop()[0])
    rpo = postorder[::-1]
    index = {b: i for i, b in enumerate(rpo)}
    ipdom: Dict[object, object] = {_EXIT: _EXIT}

    def intersect(b1: object, b2: object) -> object:
        while b1 is not b2:
            while index[b1] > index[b2]:
                b1 = ipdom[b1]
            while index[b2] > index[b1]:
                b2 = ipdom[b2]
        return b1

    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block is _EXIT:
                continue
            # Reverse-graph predecessors: CFG successors (+ the virtual
            # exit edge for exit blocks).
            preds: List[object] = [
                s for s in block.successors
                if s in reachable_set and ipdom.get(s) is not None
            ]
            if block.instructions and block.instructions[-1].opcode in (
                "ret", "unreachable"
            ):
                preds.append(_EXIT)
            if not preds:
                continue
            new = preds[0]
            for p in preds[1:]:
                new = intersect(p, new)
            if ipdom.get(block) is not new:
                ipdom[block] = new
                changed = True
    ipdom.pop(_EXIT, None)
    return ipdom


class _LoopFrame:
    """One open ``while True:`` during emission, tracking the distinct
    out-of-loop targets its body breaks to.  A single target keeps the
    plain ``break``; several get a dispatch variable patched in front of
    every break and an ``if``/``elif`` exit merge after the loop."""

    __slots__ = ("loop", "targets", "breaks")

    def __init__(self, loop: Loop):
        self.loop = loop
        self.targets: List[BasicBlock] = []
        #: ``(line_index_of_break, target_index)`` patch sites.
        self.breaks: List[Tuple[int, int]] = []

    def register(self, target: BasicBlock) -> int:
        for i, t in enumerate(self.targets):
            if t is target:
                return i
        self.targets.append(target)
        return len(self.targets) - 1


class _Emitter:
    """Linearizes one function into generated Python source + bindings."""

    def __init__(self, interp, function: Function):
        self.interp = interp
        self.fn = function
        self.fn_batched = bool(function.attrs.get("batched"))
        self.lines: List[str] = []
        self.indent = 2
        self.names: Dict[Value, str] = {}
        for i, arg in enumerate(function.args):
            self.names[arg] = f"a{i}"
        self.hoisted: Dict[str, object] = _fixed_bindings(interp, function)
        self._memo: Dict[object, str] = {}
        #: Hoisted name → Instruction for ``_value_impl`` closures, which
        #: may capture this interpreter's memory and must be rebuilt when
        #: the cached emission rebinds to another interpreter.
        self.impl_instrs: Dict[str, object] = {}
        #: Stack of open Python loops (innermost last).
        self.open: List[_LoopFrame] = []
        self.open_headers: Set[BasicBlock] = set()
        self.emitted: Set[BasicBlock] = set()
        self.loops_by_header: Dict[BasicBlock, Loop] = {
            loop.header: loop for loop in find_loops(function)
        }
        self.pdom = _postdominators(function)
        #: Counter key → integer accumulator local (``_k0``…).
        self.count_locals: Dict[str, str] = {}
        self.exit_counter = 0
        self._scan_batch_shapes()

    # -- divergent-activity specialization ---------------------------------------

    def _scan_batch_shapes(self) -> None:
        """Decide whether divergent-loop activity state can live in
        specialized Python locals instead of the ``_act``/``_pend`` dict
        protocol.

        Locals mode needs every loop id to commit from exactly one loop's
        latch and every multiplicity-spec tail to be consistent; a *clean*
        lid (its loop's only exiting edge is the committing latch) is
        additionally re-initialized at loop entry so reads collapse to
        the bare local.  Anything the scan cannot prove falls back to the
        dict protocol, which mirrors the reference engine move for move.
        """
        self.act_ok = False
        self.lid_act: Dict[str, str] = {}
        self.lid_pend: Dict[str, str] = {}
        self.lid_clean: Dict[str, bool] = {}
        self.lid_tail: Dict[str, tuple] = {}
        self.loop_lid_entries: Dict[BasicBlock, List[str]] = {}
        if not self.fn_batched:
            return
        ok = True
        lids_seen: Set[str] = set()
        tails: Dict[str, tuple] = {}
        for b in self.fn.blocks:
            for ins in b.instructions:
                bm = ins.attrs.get("batch_mult")
                if isinstance(bm, tuple):
                    for x in bm:
                        if isinstance(x, str):
                            lids_seen.add(x)
                    first = bm[0]
                    if isinstance(first, str):
                        prev = tails.get(first)
                        if prev is None:
                            tails[first] = bm[1:]
                        elif prev != bm[1:]:
                            ok = False
                ba = ins.attrs.get("batch_activity")
                if ba is not None:
                    lids_seen.add(ba[0])
                be = ins.attrs.get("batch_backedge")
                if be is not None:
                    lids_seen.add(be[0])
        committed: Set[str] = set()
        entries: Dict[BasicBlock, List[str]] = {}
        clean: Dict[str, bool] = {}
        for loop in self.loops_by_header.values():
            latches = loop.latches
            exiting = set(loop.exiting_blocks())
            for latch in latches:
                if not latch.instructions:
                    continue
                be = latch.instructions[-1].attrs.get("batch_backedge")
                if be is None:
                    continue
                lid = be[0]
                if lid in committed:
                    ok = False  # one lid committed by two loops
                committed.add(lid)
                entries.setdefault(loop.header, []).append(lid)
                clean[lid] = len(latches) == 1 and exiting == {latch}
        # Every lid a spec can *read* must have a commit site.
        for lid in lids_seen:
            if lid not in committed:
                ok = False
        if not ok:
            return
        self.act_ok = True
        self.lid_tail = tails
        self.lid_clean = clean
        self.loop_lid_entries = entries
        for n, lid in enumerate(sorted(lids_seen)):
            self.lid_act[lid] = f"_a{n}"
            self.lid_pend[lid] = f"_p{n}"

    def _mult_expr(self, spec: tuple) -> str:
        """Runtime multiplicity of a divergent spec (mirrors
        ``Interpreter._batch_mult``: first live lid wins, the trailing
        static B backstops)."""
        if self.act_ok:
            x = spec[0]
            if isinstance(x, int):
                return str(x)
            a = self.lid_act[x]
            if self.lid_clean.get(x):
                # Entry-init makes the local total: committed activity
                # while iterating, the chain fallback otherwise.
                return a
            return f"({a} if {a} is not None else {self._mult_expr(spec[1:])})"
        lids: List[str] = []
        tail = 0
        for x in spec:
            if isinstance(x, int):
                tail = x
                break
            lids.append(x)
        expr = repr(tail)
        for lid in reversed(lids):
            expr = f"_act.get({lid!r}, {expr})"
        return expr

    # -- small helpers -----------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def hoist(self, obj, key=None) -> str:
        key = id(obj) if key is None else key
        name = self._memo.get(key)
        if name is None:
            name = f"_h{len(self._memo)}"
            self._memo[key] = name
            self.hoisted[name] = obj
        return name

    def _np(self, fn) -> str:
        return self.hoist(fn, key=("np", fn.__name__))

    def _dtype(self, elem) -> str:
        dt = elem_dtype(elem)
        return self.hoist(dt, key=("dt", dt.str))

    def name_of(self, instr: Value) -> str:
        name = self.names.get(instr)
        if name is None:
            name = self.names[instr] = f"v{len(self.names)}"
        return name

    def ref(self, v: Value) -> str:
        name = self.names.get(v)
        if name is not None:
            return name
        if isinstance(v, Constant):
            return self.hoist(_constant_payload(v), key=("c", id(v)))
        if isinstance(v, UndefValue):
            return self.hoist(_undef_payload(v.type), key=("u", id(v)))
        if getattr(v, "opcode", None) == "phi":
            # Phi locals are assigned on every incoming edge before any
            # read, so naming on demand is safe.
            return self.name_of(v)
        raise CodegenBailout("use-before-def")

    def kind(self, target: BasicBlock, stop: Optional[BasicBlock]) -> str:
        """Classify an edge target relative to the innermost open loop.

        Any target outside the loop is a ``break`` — the dispatch-
        variable exit merge re-classifies it one level up, so multi-exit
        and multi-level transfers unwind one Python loop at a time."""
        if self.open:
            frame = self.open[-1]
            if target is frame.loop.header:
                return "continue"
            if target not in frame.loop.blocks:
                return "break"
        if target is stop:
            return "stop"
        return "inline"

    def emit_break(self, target: BasicBlock) -> None:
        """Emit a ``break`` out of the innermost loop, recording the
        target so :meth:`emit_from` can patch a dispatch assignment in
        front when the loop turns out to have several exit targets."""
        frame = self.open[-1]
        idx = frame.register(target)
        frame.breaks.append((len(self.lines), idx))
        self.line("break")

    # -- accounting emission -----------------------------------------------------

    def _count_local(self, key: str) -> str:
        name = self.count_locals.get(key)
        if name is None:
            name = f"_k{len(self.count_locals)}"
            self.count_locals[key] = name
        return name

    def _ext_cost(self, callee: ExternalFunction, arg_types) -> float:
        cost = callee.cost
        if callable(cost):
            cost = cost(self.interp.machine, list(arg_types))
        return float(cost)

    def emit_charges(self, block: BasicBlock) -> None:
        """One merged charge prologue for everything the block executes.

        The reference engines' per-instruction charges (including the
        decoded engine's phi sweep and the batched engine's narrow
        prototypes × multiplicity) fold into at most one cycles add, one
        instruction add, one counter-local update per distinct key, one
        multiplicity resolve per divergent spec, and one budget check —
        all against the function-local accumulators.  Instructions
        without batch annotations charge plainly even inside a batched
        function, mirroring the reference engine's per-instruction gate
        (this is what the remainder loop and mixed blocks rely on).
        Completed-run totals are bit-identical (dyadic costs sum exactly
        under any association; counts commute); a trap's exact
        trap-point stats come from the replay.
        """
        cost = self.interp._cost
        cycles = 0.0
        instrs = 0
        counts: Dict[str, int] = {}
        # Divergent-multiplicity groups: spec -> [cycles/_m, instrs/_m, counts/_m]
        groups: Dict[tuple, list] = {}
        for ins in block.instructions:
            if self.fn_batched and "batch_mult" in ins.attrs:
                items, spec = self.interp._batch_info(ins)
                if isinstance(spec, int):
                    m = spec
                    if m:
                        for key, c in items:
                            cycles += c * m
                            instrs += m
                            counts[key] = counts.get(key, 0) + m
                else:
                    g = groups.setdefault(spec, [0.0, 0, {}])
                    for key, c in items:
                        g[0] += c
                        g[1] += 1
                        g[2][key] = g[2].get(key, 0) + 1
            else:
                op = ins.opcode
                # The engines hardcode phi charges at 0.0 cycles.
                cycles += 0.0 if op == "phi" else cost(ins)
                instrs += 1
                counts[op] = counts.get(op, 0) + 1
                if op == "call":
                    callee = ins.operands[0]
                    if isinstance(callee, ExternalFunction):
                        label = f"ext:{callee.name}"
                        cycles += self._ext_cost(
                            callee, (o.type for o in ins.operands[1:])
                        )
                        instrs += 1
                        counts[label] = counts.get(label, 0) + 1
        checked = False
        if cycles:
            self.line(f"_cy += {cycles!r}")
        if instrs:
            self.line(f"_ni += {instrs}")
            checked = True
        for key, n in counts.items():
            self.line(f"{self._count_local(key)} += {n}")
        for spec, (gcycles, ginstrs, gcounts) in groups.items():
            mref = self._mult_expr(spec)
            if not mref.isidentifier() and not mref.isdigit():
                self.line(f"_m = {mref}")
                mref = "_m"
            self.line(f"if {mref}:")
            self.indent += 1
            if gcycles:
                self.line(f"_cy += {gcycles!r} * {mref}")
            self.line(f"_ni += {ginstrs} * {mref}")
            for key, n in gcounts.items():
                mult = mref if n == 1 else f"{n} * {mref}"
                self.line(f"{self._count_local(key)} += {mult}")
            self.indent -= 1
            checked = True
        if checked:
            self.line("if _ni > _rem:")
            self.line("    _trap(_L, _fname)")

    # -- value emission ----------------------------------------------------------

    def _vec_expr(self, ins, argrefs) -> Optional[str]:
        """Emit a vector op as a raw numpy expression, or ``None``.

        The superinstruction analogue of the scalar ``_inline_expr``:
        every template is the exact expression the ops.py impl evaluates
        (the per-call ``errstate`` guards are covered by the generated
        function's body-wide ``np.seterr(all="ignore")``); anything
        subtle — shifts, trapping division, saturating forms,
        float→int casts — falls back to the impl closure.
        """
        op = ins.opcode
        t = ins.type
        if op in ("icmp", "fcmp"):
            src_t = ins.operands[0].type
            if not isinstance(src_t, VectorType):
                return None
            pred = ins.attrs["pred"]
            a, b = argrefs
            if op == "icmp":
                sym = _VEC_CMP_U.get(pred)
                if sym is not None:
                    return f"({a} {sym} {b})"
                sym = _VEC_CMP_S.get(pred)
                sv = self._np(signed_view)
                return f"({sv}({a}) {sym} {sv}({b}))"
            sym = _VEC_FCMP.get(pred)
            if sym is None:
                return None
            isn = self._np(np.isnan)
            return f"(({a} {sym} {b}) & ~({isn}({a}) | {isn}({b})))"
        if op == "select":
            if isinstance(ins.operands[0].type, VectorType) or isinstance(
                t, VectorType
            ):
                c, a, b = argrefs
                return f"{self._np(np.where)}({c}, {a}, {b})"
            return None
        if not isinstance(t, VectorType):
            return None
        elem = t.elem
        if len(argrefs) == 2 and op in (
            "fadd", "fsub", "fmul", "fdiv", "frem", "fmin", "fmax",
            "add", "sub", "mul", "and", "or", "xor", "umin", "umax",
            "smin", "smax",
        ):
            a, b = argrefs
            if isinstance(elem, FloatType):
                sym = _VEC_FBIN.get(op)
                if sym is not None:
                    return f"({a} {sym} {b})"
                if op == "fmin":
                    return f"{self._np(np.minimum)}({a}, {b})"
                if op == "fmax":
                    return f"{self._np(np.maximum)}({a}, {b})"
                if op == "frem":
                    return f"{self._np(np.fmod)}({a}, {b})"
                return None
            if not isinstance(elem, IntType):
                return None
            if elem.bits == 1:
                sym = _VEC_BBIN.get(op)
                return None if sym is None else f"({a} {sym} {b})"
            sym = _VEC_IBIN.get(op)
            if sym is not None:
                return f"({a} {sym} {b})"
            if op == "umin":
                return f"{self._np(np.minimum)}({a}, {b})"
            if op == "umax":
                return f"{self._np(np.maximum)}({a}, {b})"
            if op in ("smin", "smax"):
                npf = self._np(np.minimum if op == "smin" else np.maximum)
                sv = self._np(signed_view)
                au = self._np(as_unsigned)
                return f"{au}({npf}({sv}({a}), {sv}({b})))"
            return None
        if op == "fneg":
            return f"(-{argrefs[0]})"
        if op == "fabs":
            return f"{self._np(np.abs)}({argrefs[0]})"
        if op == "fsqrt":
            return f"{self._np(np.sqrt)}({argrefs[0]})"
        if op == "not":
            return f"(~{argrefs[0]})"
        if op == "iabs":
            sv = self._np(signed_view)
            au = self._np(as_unsigned)
            return f"{au}({self._np(np.abs)}({sv}({argrefs[0]})))"
        if op == "fma":
            a, b, c = argrefs
            return f"({a} * {b} + {c})"
        if op == "broadcast":
            return (
                f"{self._np(np.full)}({t.count}, {argrefs[0]},"
                f" {self._dtype(elem)})"
            )
        if op == "shuffle":
            n = ins.operands[0].type.count
            i64 = self.hoist(np.int64, key=("np", "int64"))
            return f"{argrefs[0]}[{argrefs[1]}.astype({i64}) % {n}]"
        if op in _VEC_CAST_ASTYPE or op in ("bitcast", "sext", "sitofp"):
            src_t = ins.operands[0].type
            if not isinstance(src_t, VectorType):
                return None
            from_e = src_t.elem
            v = argrefs[0]
            dt = self._dtype(elem)
            if op == "bitcast":
                if elem_dtype(from_e).itemsize == elem_dtype(elem).itemsize:
                    return f"{v}.view({dt})"
                return f"{v}.astype({dt})"
            if op == "sitofp":
                return f"{self._np(signed_view)}({v}).astype({dt})"
            if op == "sext":
                if getattr(from_e, "bits", 0) == 1:
                    return None
                sdt = signed_dtype(elem)
                sd = self.hoist(sdt, key=("sdt", np.dtype(sdt).str))
                sv = self._np(signed_view)
                au = self._np(as_unsigned)
                return f"{au}({sv}({v}).astype({sd}))"
            return f"{v}.astype({dt})"
        return None

    def emit_compute(self, ins) -> None:
        argrefs = [self.ref(o) for o in ins.operands]
        expr = self.interp._inline_expr(ins, argrefs, self.hoist)
        if expr is None:
            expr = self._vec_expr(ins, argrefs)
        if expr is None:
            impl = self.hoist(
                self.interp._value_impl(ins), key=("impl", id(ins))
            )
            if ins.opcode in _REBIND_OPS:
                self.impl_instrs[impl] = ins
            expr = f"{impl}({', '.join(argrefs)})"
        self.line(f"{self.name_of(ins)} = {expr}")

    def emit_call(self, ins) -> None:
        callee = ins.operands[0]
        args = ", ".join(self.ref(o) for o in ins.operands[1:])
        if isinstance(callee, ExternalFunction):
            # Charges (the 'call' dispatch + ``ext:<name>`` leg, or the
            # batched narrow prototypes) live in the block prologue; only
            # the impl invocation remains here.
            impl = self.hoist(callee.impl, key=("ext", callee.name))
            self.line(f"{self.name_of(ins)} = {impl}({args})")
        elif self.fn_batched and "batch_mult" in ins.attrs:
            raise CodegenBailout("batched-internal-call")
        else:
            # The callee charges ExecStats directly: flush the local
            # accumulators around the call and re-derive the headroom.
            fref = self.hoist(callee, key=("fn", callee.name))
            self.line(_FLUSH)
            self.line(
                f"{self.name_of(ins)} = _iref()._exec_function("
                f"{fref}, [{args}], depth + 1)"
            )
            self.line("_rem = _L - _s.instructions")

    def emit_pend(self, ins, ba) -> None:
        """Divergent-loop pending activity: the lane mask's per-gang
        any-reduction, with the batch factor inlined as a literal
        (specializing :func:`gang_activity_count`)."""
        mask = self.ref(ins.operands[0])
        lid, batch = ba[0], ba[1]
        i_ = self.hoist(int, key=("b", "int"))
        expr = f"{i_}({mask}.reshape({batch}, -1).any(axis=1).sum())"
        p = self.lid_pend.get(lid)
        if p is not None:
            self.line(f"{p} = {expr}")
        else:
            self.line(f"_pend[{lid!r}] = {expr}")

    # -- edges -------------------------------------------------------------------

    def emit_phi_moves(self, src: BasicBlock, dst: BasicBlock) -> None:
        """Parallel phi assignment for the ``src``→``dst`` edge.  Phi
        charges are edge-independent and live in ``dst``'s prologue."""
        phis = []
        for ins in dst.instructions:
            if ins.opcode != "phi":
                break
            phis.append(ins)
        if not phis:
            return
        targets = [self.name_of(p) for p in phis]
        exprs = [self.ref(p.phi_value_for(src)) for p in phis]
        self.line(f"{', '.join(targets)} = {', '.join(exprs)}")

    def emit_edge(
        self,
        src: BasicBlock,
        target: BasicBlock,
        stop: Optional[BasicBlock],
        commit: Optional[List[str]] = None,
    ) -> None:
        """Tail-position edge inside a suite: commit + moves + jump/region."""
        for text in commit or ():
            self.line(text)
        self.emit_phi_moves(src, target)
        k = self.kind(target, stop)
        if k == "continue":
            self.line("continue")
        elif k == "break":
            self.emit_break(target)
        elif k == "inline":
            self.emit_from(target, stop)
        # "stop": fall out of the suite.

    def _suite(self, emit_fn) -> None:
        self.indent += 1
        if self.indent > MAX_NESTING:
            raise CodegenBailout("deep-nesting")
        mark = len(self.lines)
        emit_fn()
        if len(self.lines) == mark:
            self.line("pass")
        self.indent -= 1

    # -- structure ---------------------------------------------------------------

    def emit_from(self, block: Optional[BasicBlock],
                  stop: Optional[BasicBlock]) -> None:
        """Emit the region starting at ``block`` until control reaches
        ``stop`` (not emitted), a jump, or a return."""
        while block is not None:
            if block is stop:
                return
            loop = self.loops_by_header.get(block)
            if loop is not None and block not in self.open_headers:
                block = self._emit_loop(loop, block, stop)
                continue
            block = self.emit_block(block, stop)

    def _emit_loop(self, loop: Loop, header: BasicBlock,
                   stop: Optional[BasicBlock]) -> Optional[BasicBlock]:
        """Emit one natural loop; returns the inline continuation block
        (for the caller's region walk) or ``None`` when the suite ends.

        Exit edges register on the loop's frame as they are emitted.  One
        distinct target lowers to plain ``break`` + inline continuation;
        several get a dispatch variable assigned at each break site and
        an ``if``/``elif`` exit merge after the loop, whose arms
        re-classify their target one loop level up (this is what retires
        the ``multi-exit-loop`` / ``multi-level-break`` /
        ``multi-level-continue`` bailouts)."""
        for lid in self.loop_lid_entries.get(header, ()):
            # Divergent-activity entry init: makes the committed local
            # total over the loop body (see _scan_batch_shapes).
            if self.lid_clean.get(lid):
                tail = self.lid_tail.get(lid)
                if tail is not None:
                    self.line(f"{self.lid_act[lid]} = {self._mult_expr(tail)}")
        frame = _LoopFrame(loop)
        self.line("while True:")
        self.open.append(frame)
        self.open_headers.add(header)
        self._suite(lambda: self.emit_from(header, None))
        self.open.pop()
        self.open_headers.discard(header)
        targets = frame.targets
        if not targets:
            return None  # infinite loop: nothing after is reachable
        if len(targets) == 1:
            exit_b = targets[0]
            k = self.kind(exit_b, stop)
            if k == "inline":
                return exit_b
            if k == "continue":
                self.line("continue")
            elif k == "break":
                self.emit_break(exit_b)
            return None
        # Dispatch-variable exit merge.
        var = f"_ex{self.exit_counter}"
        self.exit_counter += 1
        for li, ti in reversed(frame.breaks):
            text = self.lines[li]
            ind = text[: len(text) - len(text.lstrip())]
            self.lines.insert(li, f"{ind}{var} = {ti}")
        join = self.pdom.get(header)
        if (
            not isinstance(join, BasicBlock)
            or join in self.emitted
            or self.kind(join, stop) != "inline"
        ):
            join = None
        arm_stop = join if join is not None else stop
        last = len(targets) - 1
        for i, target in enumerate(targets):
            if i == 0:
                self.line(f"if {var} == 0:")
            elif i == last:
                self.line("else:")
            else:
                self.line(f"elif {var} == {i}:")
            self._suite(
                lambda t=target: self._emit_dispatch_arm(t, arm_stop)
            )
        return join

    def _emit_dispatch_arm(self, target: BasicBlock,
                           stop: Optional[BasicBlock]) -> None:
        """One exit-merge arm: the break site already ran the edge's
        commits and phi moves, so only the control transfer remains."""
        k = self.kind(target, stop)
        if k == "inline":
            self.emit_from(target, stop)
        elif k == "continue":
            self.line("continue")
        elif k == "break":
            self.emit_break(target)
        # "stop": fall out of the arm into the join continuation.

    def _fold_cond(self, body, term):
        """The trailing body instruction, when it is a single-use scalar
        compare / mask reduction consumed only by this ``condbr`` and
        expressible as a raw truthy Python expression (the fused
        engine's ``cmp_condbr`` pattern, extended to mask reductions);
        ``None`` otherwise."""
        if term.opcode != "condbr" or not body:
            return None
        cond = body[-1]
        if term.operands[0] is not cond or not _uses_exactly(cond, term, 0):
            return None
        op = cond.opcode
        if op in ("mask_any", "mask_all"):
            return cond
        if op not in ("icmp", "fcmp"):
            return None
        if isinstance(cond.operands[0].type, VectorType):
            return None
        pred = cond.attrs["pred"]
        if op == "fcmp":
            return cond if pred in _COND_FCMP else None
        return cond

    def _fold_cond_expr(self, cond) -> str:
        """Raw truthy condition for a folded compare (charges stay in the
        block prologue; the 0/1 local is never materialized)."""
        op = cond.opcode
        if op == "mask_any":
            ba = cond.attrs.get("batch_activity") if self.fn_batched else None
            if ba is not None:
                # The pending gang-activity count is computed anyway and
                # is positive iff any lane is active: branch on it and
                # skip the extra .any() reduction entirely.
                self.emit_pend(cond, ba)
                p = self.lid_pend.get(ba[0])
                return p if p is not None else f"_pend[{ba[0]!r}]"
            return f"{self.ref(cond.operands[0])}.any()"
        if op == "mask_all":
            ba = cond.attrs.get("batch_activity") if self.fn_batched else None
            if ba is not None:  # pragma: no cover - activity sits on mask_any
                self.emit_pend(cond, ba)
            return f"{self.ref(cond.operands[0])}.all()"
        pred = cond.attrs["pred"]
        a = self.ref(cond.operands[0])
        b = self.ref(cond.operands[1])
        if op == "fcmp":
            return f"{a} {_COND_FCMP[pred]} {b}"
        sym = _COND_CMP_U.get(pred)
        if sym is not None:
            return f"{a} {sym} {b}"
        # XOR with the sign bit maps two's-complement order onto
        # unsigned order (same trick as the scalar inliner).
        sb = 1 << (getattr(cond.operands[0].type, "bits", 64) - 1)
        return f"({a} ^ {sb:#x}) {_COND_CMP_S[pred]} ({b} ^ {sb:#x})"

    def emit_block(self, block: BasicBlock,
                   stop: Optional[BasicBlock]) -> Optional[BasicBlock]:
        """Emit one block's charges + body + terminator; returns the
        inline continuation block, or ``None`` when the suite ends here."""
        if block in self.emitted:
            raise CodegenBailout("block-re-emitted")
        self.emitted.add(block)
        instrs = block.instructions
        if not instrs or not instrs[-1].is_terminator:
            raise CodegenBailout("no-terminator")
        self.emit_charges(block)
        nphi = 0
        while nphi < len(instrs) and instrs[nphi].opcode == "phi":
            nphi += 1
        body, term = instrs[nphi:-1], instrs[-1]
        fold = self._fold_cond(body, term)
        emit_n = len(body) - 1 if fold is not None else len(body)
        for ins in body[:emit_n]:
            op = ins.opcode
            if op == "call":
                self.emit_call(ins)
            elif op in _GROUP_OPS:
                self.emit_compute(ins)
            else:
                raise CodegenBailout(f"opcode:{op}")
            if self.fn_batched:
                ba = ins.attrs.get("batch_activity")
                if ba is not None:
                    self.emit_pend(ins, ba)
        cond_expr = self._fold_cond_expr(fold) if fold is not None else None
        return self.emit_terminator(block, term, stop, cond_expr)

    def _unreachable_msg(self) -> str:
        return f"reached 'unreachable' in @{self.fn.name}"

    def emit_terminator(self, block: BasicBlock, term,
                        stop: Optional[BasicBlock],
                        cond_expr: Optional[str]) -> Optional[BasicBlock]:
        op = term.opcode
        if op == "ret":
            # A ret inside a batched body charges through the prologue
            # like any other annotated instruction.
            if term.operands:
                v = term.operands[0]
                r = self.ref(v)
                if isinstance(v, (Constant, UndefValue)) and isinstance(
                    v.type, VectorType
                ):
                    # Shared constant payloads must not leak to callers
                    # who may mutate the returned array.
                    r = f"{r}.copy()"
                self.line(f"return {r}")
            else:
                self.line("return None")
            return None
        if op == "unreachable":
            self.line(f"raise _VMTrap({self._unreachable_msg()!r})")
            return None
        if op == "br":
            self.emit_phi_moves(block, term.operands[0])
            return self._goto(term.operands[0], stop)
        if op == "condbr":
            cond = (
                cond_expr if cond_expr is not None
                else self.ref(term.operands[0])
            )
            commits: Optional[Tuple[List[str], List[str]]] = None
            backedge = (
                term.attrs.get("batch_backedge") if self.fn_batched else None
            )
            if backedge is not None:
                # Divergent-loop backedge: this block's prologue charged
                # with the *previous* iteration's activity; commit the
                # count the mask reduction just produced before the next
                # iteration (or reset the loop's state on exit).
                lid, taken_idx = backedge
                a = self.lid_act.get(lid)
                if a is not None:
                    commit = [f"{a} = {self.lid_pend[lid]}"]
                    drop = [] if self.lid_clean.get(lid) else [f"{a} = None"]
                else:
                    commit = [f"_act[{lid!r}] = _pend[{lid!r}]"]
                    drop = [
                        f"_act.pop({lid!r}, None)",
                        f"_pend.pop({lid!r}, None)",
                    ]
                commits = (commit, drop) if taken_idx == 1 else (drop, commit)
            return self.emit_condbr(
                block, cond, term.operands[1], term.operands[2], stop, commits
            )
        raise CodegenBailout(f"terminator:{op}")

    def _goto(self, target: BasicBlock,
              stop: Optional[BasicBlock]) -> Optional[BasicBlock]:
        """Unconditional transfer whose phi moves are already emitted."""
        k = self.kind(target, stop)
        if k == "inline":
            return target
        if k == "continue":
            self.line("continue")
        elif k == "break":
            self.emit_break(target)
        return None

    def emit_condbr(
        self,
        src: BasicBlock,
        cond: str,
        iftrue: BasicBlock,
        iffalse: BasicBlock,
        stop: Optional[BasicBlock],
        commits: Optional[Tuple[List[str], List[str]]],
    ) -> Optional[BasicBlock]:
        """Structured lowering of a conditional branch; returns the inline
        continuation (the join) or ``None`` when the suite ends here."""
        ctrue = commits[0] if commits else None
        cfalse = commits[1] if commits else None
        ka = self.kind(iftrue, stop)
        kb = self.kind(iffalse, stop)

        if ka == "inline" and kb == "inline":
            # Forward diamond: the join is the immediate postdominator.
            join = self.pdom.get(src)
            if (
                isinstance(join, BasicBlock)
                and self.kind(join, stop) == "inline"
            ):
                self.line(f"if {cond}:")
                self._suite(lambda: self.emit_edge(src, iftrue, join, ctrue))
                self.line("else:")
                self._suite(lambda: self.emit_edge(src, iffalse, join, cfalse))
                return join
            # No structural join (both arms return, or converge only at a
            # jump target): every path leaves its suite on its own.
            self.line(f"if {cond}:")
            self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
            self.line("else:")
            self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
            return None
        if ka != "inline" and kb != "inline":
            self.line(f"if {cond}:")
            self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
            self.line("else:")
            self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
            return None
        # Exactly one arm is inline.
        if ka == "inline":
            if kb == "stop":
                self.line(f"if {cond}:")
                self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
                self.line("else:")
                self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
                return None
            # False arm jumps; flatten: guard the jump, fall through inline.
            self.line(f"if not ({cond}):")
            self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
            for text in ctrue or ():
                self.line(text)
            self.emit_phi_moves(src, iftrue)
            return iftrue
        if ka == "stop":
            self.line(f"if {cond}:")
            self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
            self.line("else:")
            self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
            return None
        # True arm jumps; flatten.
        self.line(f"if {cond}:")
        self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
        for text in cfalse or ():
            self.line(text)
        self.emit_phi_moves(src, iffalse)
        return iffalse

    # -- entry -------------------------------------------------------------------

    def emit(self) -> Tuple[str, Dict[str, object]]:
        fn = self.fn
        size = sum(len(b.instructions) for b in fn.blocks)
        if size > MAX_CODEGEN_INSTRS:
            raise CodegenBailout("function-too-large")
        seterr = self.hoist(np.seterr, key=("np", "seterr"))
        self.emit_from(fn.entry, None)
        body: List[str] = []
        for text in self.lines:
            if text.lstrip() != _FLUSH:
                body.append(text)
                continue
            # Internal-call flush: push the local accumulators into
            # ExecStats and reset them (the key set is only complete now).
            ind = text[: len(text) - len(text.lstrip())]
            body.append(f"{ind}_s.cycles += _cy")
            body.append(f"{ind}_s.instructions += _ni")
            body.append(f"{ind}_cy = 0.0")
            body.append(f"{ind}_ni = 0")
            for key, name in self.count_locals.items():
                body.append(f"{ind}if {name}:")
                body.append(f"{ind}    _c[{key!r}] = _c.get({key!r}, 0) + {name}")
                body.append(f"{ind}    {name} = 0")
        head: List[str] = []
        if fn.args:
            names = ", ".join(self.names[a] for a in fn.args)
            head.append(f"    {names}{',' if len(fn.args) == 1 else ''} = _args")
        head.append("    _rem = _L - _s.instructions")
        head.append("    _mk = _mem._brk")
        head.append("    _cy = 0.0")
        head.append("    _ni = 0")
        if self.count_locals:
            head.append(
                "    " + " = ".join(self.count_locals.values()) + " = 0"
            )
        if self.fn_batched:
            if self.act_ok:
                unclean = [
                    self.lid_act[lid]
                    for lid in sorted(self.lid_act)
                    if not self.lid_clean.get(lid)
                ]
                if unclean:
                    head.append("    " + " = ".join(unclean) + " = None")
            else:
                head.append("    _act = {}")
                head.append("    _pend = {}")
        head.append(f"    _es = {seterr}(all='ignore')")
        head.append("    try:")
        tail = [
            "    finally:",
            "        _mem._brk = _mk",
            f"        {seterr}(**_es)",
            "        _s.cycles += _cy",
            "        _s.instructions += _ni",
        ]
        for key, name in self.count_locals.items():
            tail.append(f"        if {name}:")
            tail.append(f"            _c[{key!r}] = _c.get({key!r}, 0) + {name}")
        params = ", ".join(f"{k}={k}" for k in self.hoisted)
        source = (
            f"def _kfn(_args, depth, {params}):\n"
            + "\n".join(head + body + tail)
        )
        return source, self.hoisted


def _fixed_bindings(interp, function: Function) -> Dict[str, object]:
    """Per-interpreter prologue names.  The generated function holds these
    in its defaults, so none may own the interpreter: the budget binds by
    value and internal calls re-enter through a weak reference (the
    interpreter is running, so it is live)."""
    return {
        "_s": interp.stats,
        "_c": interp.stats.counts,
        "_L": interp.max_instructions,
        "_mem": interp.memory,
        "_fname": function.name,
        "_trap": _budget_trap,
        "_iref": weakref.ref(interp),
        "_gac": gang_activity_count,
        "_VMTrap": VMTrap,
    }


def _batch_fingerprint(function: Function) -> tuple:
    """Batching configuration visible to emission: the ``batched`` attr
    (the batch factor, or ``None``) and the number of annotated
    instructions.  Attrs-only mutations — stripping or re-running the
    batch pass on the same clone — leave block/instruction counts
    untouched, so the count guard alone would replay a stale emission
    (or worse, a stale *bailout*) for a configuration it never saw."""
    n = 0
    for b in function.blocks:
        for ins in b.instructions:
            if "batch_mult" in ins.attrs:
                n += 1
    return (function.attrs.get("batched"), n)


def emit_function(interp, function: Function) -> Tuple[str, Dict[str, object]]:
    """Linearize ``function`` against ``interp``'s machine/cost bindings.

    Returns ``(source, bindings)``; raises :class:`CodegenBailout` when
    the function cannot be linearized.  Emissions (and bailouts) are
    memoized on the function itself (``function.emit_memo``), per
    machine/cost-model/guard, so a fresh interpreter over the same
    kernel — every interpreter over a shared compile-cache module —
    reuses the source and only rebinds the prologue names plus the impl
    closures that capture interpreter memory.  The memo lives and dies
    with the function: ``clone_module`` copies start without one, and no
    process-wide table pins a module the compile cache has dropped.

    The guard is the block/instruction counts plus the batch
    fingerprint: a pass mutating the function after emission (extra
    DCE, a test rewriting IR) changes the counts, and attrs-only
    batching mutations change the fingerprint, so either misses instead
    of replaying a stale emission or bailout; the new entry replaces the
    stale one.  Edits the guard cannot see (an operand or opcode
    rewritten in place) need ``Interpreter.clear_decode_cache``, which
    drops the memos of an unsealed module.
    """
    guard = (
        len(function.blocks),
        sum(len(b.instructions) for b in function.blocks),
        _batch_fingerprint(function),
    )
    memo = function.emit_memo
    for machine, cost_model, g, source, recipe, reason in memo:
        if (
            machine is interp.machine
            and cost_model is interp.cost_model
            and g == guard
        ):
            if reason is not None:
                raise CodegenBailout(reason)
            bindings = _fixed_bindings(interp, function)
            for name, ins, obj in recipe:
                bindings[name] = (
                    obj if ins is None else interp._value_impl(ins)
                )
            return source, bindings
    # A guard miss supersedes this machine/cost model's old entry, so the
    # memo holds at most one per pair however often the function changes.
    memo[:] = [
        e for e in memo
        if e[0] is not interp.machine or e[1] is not interp.cost_model
    ]
    emitter = _Emitter(interp, function)
    try:
        source, bindings = emitter.emit()
    except CodegenBailout as exc:
        memo.append(
            (interp.machine, interp.cost_model, guard, None, None, exc.reason)
        )
        raise
    # Impl-closure entries store only the Instruction (the closure itself
    # captures the emitting interpreter's memory and must not be pinned).
    recipe = tuple(
        (name, ins, None if ins is not None else obj)
        for name, obj in bindings.items()
        if name not in _FIXED_BINDINGS
        for ins in (emitter.impl_instrs.get(name),)
    )
    memo.append(
        (interp.machine, interp.cost_model, guard, source, recipe, None)
    )
    return source, bindings


def compiled_code(source: str) -> Tuple[object, str]:
    """Code object for a generated source: process cache → disk → compile.

    Returns ``(code, origin)`` with origin in ``{"cache", "disk",
    "compiled"}`` for the ``vm.codegen.*`` counters.
    """
    code = _CODE_CACHE.get(source)
    if code is not None:
        return code, "cache"
    code = diskcache.load_code(source)
    if code is not None:
        _CODE_CACHE[source] = code
        return code, "disk"
    code = compile(source, "<repro-vm-codegen>", "exec")
    _CODE_CACHE[source] = code
    diskcache.store_code(source, code)
    return code, "compiled"


def bind_code(code, bindings: Dict[str, object]):
    """Bind a compiled code object to one interpreter's live payloads."""
    g = dict(bindings)
    # Empty-ish builtins keep emitted code honest (every name must be a
    # hoisted binding), but numpy's lazy C-level imports resolve
    # __import__ through the *calling* frame's builtins — leave it in or
    # the first .sum()/.any() ever run inside generated code dies with
    # KeyError('__import__').
    g["__builtins__"] = {"__import__": __import__}
    exec(code, g)
    # Popped, so the namespace does not hold the function that holds it as
    # ``__globals__`` (a cycle pinning the interpreter's payloads).
    return g.pop("_kfn")
