"""Whole-cycle-loop code generation for the JIT engine.

:mod:`repro.merge.scheme` already generates straight-line
``select_ports`` functions per scheme; this module extends that idea to
the *entire* cycle loop: :func:`loop_source` emits one specialized
Python function — fetch, merge, issue, idle skipping, solo bursts —
for a concrete machine shape, and the loop cache
(:func:`get_loop_cache`, an :class:`~repro.artifacts.ArtifactCache`)
compiles it once and shares it across engines, worker processes and
queue fleets.

Template structure (top to bottom of the generated function):

1. **prologue** — every per-slot field of every resident
   :class:`~repro.sim.thread.ThreadState` is hoisted into locals
   (``rec0``/``st0``/``in0``/``mop0``/... per hardware context), stream
   buffers are bound directly (``buf0``/``pos0``), the plan's pair
   table is unpacked into flat locals per port pair, and per-run
   statistic accumulators start at zero.
2. **fetch + ready mask** — one unrolled block per slot, in context
   order (the ICache must observe accesses exactly in the reference
   engine's order), with the ICache's true-LRU bookkeeping inlined for
   the configured associativity.  Readiness is collected into a bitmask
   ``R`` in the same pass.
3. **contested cycles** (``R`` has two or more bits) — unrolled once
   per rotation step.  Exactly-two-ready cycles skip the memo entirely:
   the selection collapses to one precomputed predicate at the two
   ports' lowest common ancestor (the plan's ``pair_table``), and both
   the predicate and the issue of the winning slot(s) are emitted as
   literal straight-line code.  Three-plus-ready cycles are unrolled
   once per ready mask: the memo key ORs process-interned instruction
   signatures (:func:`ensure_sigs` / ``MultiOp.sig``) at fixed
   per-*port* shift positions (so the key is rotation-agnostic, like
   the fast engine's, and every rotation shares one memo), probes the
   shared dict, and on a miss falls into the scheme's *inlined
   selection tree* (:func:`_select_tree_lines`): the postorder merge
   plan partial-evaluated against the known ready mask, so only the
   dynamic CSMT/SMT predicates remain as branches and every terminal
   path issues a statically known selection with literal code;
   workloads whose joint signatures rarely repeat flip the memo off
   adaptively and run the tree every contested cycle.  Issue maps
   ports back to that rotation's literal slots with the DCache's LRU
   bookkeeping inlined (DCache LRU state depends on within-cycle
   access order, so selection priority order is preserved).
4. **solo bursts** (one ready slot) — an unrolled single-thread loop
   per slot: while every other context is stalled, that slot issues in
   a dedicated burst with no merge logic at all.
5. **idle skip** (``R == 0``) — jump straight to the earliest
   ``stall_until`` and account the skipped cycles as vertical waste.
6. **epilogue** — locals are flushed back to the threads, caches and
   ``SimStats``; memo counters are flushed into the engine (``sink``).

Cache key and invalidation: generated **source** is compiled once per
``semantic_key(scheme) x machine fingerprint x config knobs`` —
concretely ``(codegen source digest, n_ports, rotation schedule,
rotation enable, scheme merge-plan steps, packed cap constants, icache
descriptor, dcache descriptor, taken-branch penalty)``.  The scheme's
steps are part of the key because its selection logic is inlined into
the loop body; schemes with identical merge trees (same steps, e.g.
the same tree at a different timeslice) still share one compiled loop.
Editing this file (or bumping :data:`CODEGEN_VERSION`) changes the
digest and invalidates every cached loop instead of serving stale
code.  Mutable run state enters one level up: :func:`loop_entry` binds
a compiled loop to one ``(SchemePlan, shape key, memo/batch knobs)``
tuple, carrying that binding's private merge memo.

Reading generated source for debugging: point
:func:`repro.artifacts.set_cache_dir` at a directory (the grid runner
does this with a run store's ``programs/``) and every generated loop is
written there as ``<key>.loop.py`` — plain Python, formatted like the
template above, diffable between revisions.  ``loop_source(...)`` returns the same text
directly.
"""

from __future__ import annotations

import hashlib
import os

from repro.artifacts import ArtifactCache, Codec, default_cache
from repro.merge.scheme import OP_CSMT, OP_PORT
from repro.sim.cache import PerfectCache

__all__ = [
    "CODEGEN_VERSION",
    "LoopEntry",
    "MAX_LOOP_PORTS",
    "cache_descriptor",
    "ensure_sigs",
    "get_loop_cache",
    "loop_cache",
    "loop_entry",
    "loop_source",
    "source_key",
]

#: bump to invalidate every cached generated loop.
CODEGEN_VERSION = 2

#: bits reserved per slot signature in the memo key.  16 bits keeps a
#: four-slot key under 63 bits (a CPython small int) as long as ids
#: stay below _SIG_CAP.
SIG_BITS = 16

#: process-wide signature intern table: (mask, packed) -> small id > 0.
_SIG_IDS: dict = {}

#: ids above this would push four-slot memo keys past 63 bits; callers
#: fall back to the fast engine instead (never reached in practice —
#: the table holds one entry per distinct static shape).
_SIG_CAP = (1 << 15) - 1


def ensure_sigs(program) -> bool:
    """Intern every MultiOp's merge signature, process-consistently.

    Merge decisions depend on an instruction only through its
    ``(mask, packed)`` pair, so the generated loops compose memo keys
    from these small interned ids with no per-cycle dict probes.  Ids
    are always (re)assigned through the process-wide table: a program
    that crossed a process boundary (pickled into a pool worker) may
    carry ids from the parent's table, which need not agree with this
    process's assignments.  Returns False when the table would outgrow
    the key budget (the engine then falls back to the fast engine).
    """
    ids = _SIG_IDS
    for blk in program.blocks:
        for mop in blk.mops:
            s = ids.get((mop.mask, mop.packed))
            if s is None:
                s = len(ids) + 1
                if s > _SIG_CAP:
                    return False
                ids[(mop.mask, mop.packed)] = s
            mop.sig = s
    return True

_self_digest_memo: str | None = None


def _self_digest() -> str:
    """Digest of this module's source: edits invalidate cached loops."""
    global _self_digest_memo
    if _self_digest_memo is None:
        with open(os.path.abspath(__file__), "rb") as f:
            _self_digest_memo = hashlib.sha256(f.read()).hexdigest()[:16]
    return _self_digest_memo


def cache_descriptor(cache):
    """Structural descriptor of a :class:`~repro.sim.cache.Cache` or
    :class:`PerfectCache`.

    The descriptor is everything the generated LRU bookkeeping inlines:
    line shift, set indexing, associativity and miss penalty.
    """
    if type(cache) is PerfectCache:
        return ("perfect",)
    return ("lru", cache._line_shift, cache._set_mask,
            len(cache.sets), cache.cfg.assoc, cache.cfg.miss_penalty)


def source_key(n: int, perms, steps, caps_high: int, high: int,
               i_desc, d_desc, br_penalty: int, rotate: bool) -> str:
    """Hex key of one generated loop's semantic shape.

    ``steps``/``caps_high``/``high`` are the scheme's semantic identity
    (its postorder merge plan and the machine's packed resource caps):
    the generated loop inlines the selection logic itself, so two
    schemes share a compiled loop only if their merge trees are
    identical, not merely the same width.
    """
    text = "\n".join([
        f"v={CODEGEN_VERSION}",
        _self_digest(),
        f"n={n}",
        f"perms={tuple(perms)}",
        f"steps={tuple(steps)}",
        f"caps={caps_high}/{high}",
        f"rot={bool(rotate)}",
        f"icache={i_desc}",
        f"dcache={d_desc}",
        f"br={br_penalty}",
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# source template
# ----------------------------------------------------------------------
def _icache_lines(k: int, pad: str, i_desc) -> list[str]:
    """Inline one ICache access for the freshly fetched ``mop{k}``."""
    if i_desc[0] == "perfect":
        return [f"{pad}ih += 1"]
    _, shift, set_mask, nsets, assoc, penalty = i_desc
    index = f"_ln & {set_mask}" if set_mask >= 0 else f"_ln % {nsets}"
    return [
        f"{pad}_ln = mop{k}.address >> {shift}",
        f"{pad}if _ln == last_il:",
        f"{pad}    ih += 1",
        f"{pad}else:",
        f"{pad}    last_il = _ln",
        f"{pad}    _ways = i_sets[{index}]",
        # already most-recent in its set: remove+append would be a
        # state no-op, so the hit is counted without touching the list.
        f"{pad}    if _ways and _ways[-1] == _ln:",
        f"{pad}        ih += 1",
        f"{pad}    elif _ln in _ways:",
        f"{pad}        _ways.remove(_ln)",
        f"{pad}        _ways.append(_ln)",
        f"{pad}        ih += 1",
        f"{pad}    else:",
        f"{pad}        _ways.append(_ln)",
        f"{pad}        if len(_ways) > {assoc}:",
        f"{pad}            _ways.pop(0)",
        f"{pad}        imiss += 1",
        f"{pad}        im{k} += 1",
        f"{pad}        st{k} = cycle + {penalty}",
    ]


def _dcache_lines(k: int, pad: str, d_desc) -> list[str]:
    """Inline the DCache accesses of ``addrs`` (``pen`` bound)."""
    if d_desc[0] == "perfect":
        return [f"{pad}dh += len(addrs)"]
    _, shift, set_mask, nsets, assoc, penalty = d_desc
    index = f"_ln & {set_mask}" if set_mask >= 0 else f"_ln % {nsets}"
    return [
        f"{pad}_il = mop{k}.mem_is_load",
        f"{pad}for _ix, _a in enumerate(addrs):",
        f"{pad}    _ln = _a >> {shift}",
        f"{pad}    if _ln == last_dl:",
        f"{pad}        dh += 1",
        f"{pad}    else:",
        f"{pad}        last_dl = _ln",
        f"{pad}        _ways = d_sets[{index}]",
        f"{pad}        if _ways and _ways[-1] == _ln:",
        f"{pad}            dh += 1",
        f"{pad}        elif _ln in _ways:",
        f"{pad}            _ways.remove(_ln)",
        f"{pad}            _ways.append(_ln)",
        f"{pad}            dh += 1",
        f"{pad}        else:",
        f"{pad}            _ways.append(_ln)",
        f"{pad}            if len(_ways) > {assoc}:",
        f"{pad}                _ways.pop(0)",
        f"{pad}            dmiss += 1",
        f"{pad}            dm{k} += 1",
        f"{pad}            if _il[_ix]:",
        f"{pad}                pen += {penalty}",
    ]


def _fetch_lines(k: int, pad: str, i_desc) -> list[str]:
    """Refill + fetch one record into rec{k} (caller guards readiness)."""
    lines = [
        f"{pad}if pos{k} >= len{k}:",
        f"{pad}    sr{k}._pos = pos{k}",
        f"{pad}    buf{k} = sr{k}.materialize(BATCH)",
        f"{pad}    pos{k} = 0",
        f"{pad}    len{k} = len(buf{k})",
        f"{pad}rec{k} = buf{k}[pos{k}]",
        f"{pad}pos{k} += 1",
        f"{pad}mop{k} = rec{k}.mop",
    ]
    lines += _icache_lines(k, pad, i_desc)
    return lines


def _issue_lines(k: int, pad: str, d_desc, br_penalty: int) -> list[str]:
    """Issue rec{k} in a merged cycle (stall is cycle + 1 + pen)."""
    lines = [
        f"{pad}in{k} += 1",
        f"{pad}_no = mop{k}.n_ops",
        f"{pad}op{k} += _no",
        f"{pad}ops_acc += _no",
        f"{pad}pen = 0",
        f"{pad}addrs = rec{k}.addrs",
        f"{pad}if addrs:",
    ]
    lines += _dcache_lines(k, pad + "    ", d_desc)
    lines += [
        f"{pad}if rec{k}.taken:",
        f"{pad}    tb{k} += 1",
        f"{pad}    pen += {br_penalty}",
        f"{pad}if pen:",
        f"{pad}    st{k} = cycle + 1 + pen",
        f"{pad}rec{k} = None",
        f"{pad}if in{k} >= limit:",
        f"{pad}    finished = True",
    ]
    return lines


def _burst_lines(k: int, n: int, pad: str, i_desc, d_desc,
                 br_penalty: int, rotate: bool) -> list[str]:
    """Single-thread burst for slot k while every other slot is stalled."""
    lines = [f"{pad}until = end"]
    for j in range(n):
        if j != k:
            lines += [
                f"{pad}if st{j} < until:",
                f"{pad}    until = st{j}",
            ]
    lines += [
        f"{pad}if until - cycle >= 4:",
        f"{pad}    _b0 = cycle",
        f"{pad}    while cycle < until:",
        f"{pad}        if st{k} > cycle:",
        f"{pad}            _t = st{k} if st{k} < until else until",
        f"{pad}            _d = _t - cycle",
        f"{pad}            cyc_acc += _d",
        f"{pad}            waste_acc += _d",
        f"{pad}            cycle = _t",
        f"{pad}            continue",
        f"{pad}        if rec{k} is None:",
    ]
    lines += _fetch_lines(k, pad + "            ", i_desc)
    lines += [
        f"{pad}            if st{k} > cycle:",
        f"{pad}                continue",
        f"{pad}        in{k} += 1",
        f"{pad}        _no = mop{k}.n_ops",
        f"{pad}        op{k} += _no",
        f"{pad}        ops_acc += _no",
        f"{pad}        pen = 0",
        f"{pad}        addrs = rec{k}.addrs",
        f"{pad}        if addrs:",
    ]
    lines += _dcache_lines(k, pad + "            ", d_desc)
    lines += [
        f"{pad}        if rec{k}.taken:",
        f"{pad}            tb{k} += 1",
        f"{pad}            pen += {br_penalty}",
        f"{pad}        rec{k} = None",
        f"{pad}        burst1 += 1",
        f"{pad}        cyc_acc += 1",
        f"{pad}        cycle += 1",
        f"{pad}        if pen:",
        f"{pad}            st{k} = cycle + pen",
        f"{pad}        if in{k} >= limit:",
        f"{pad}            finished = True",
        f"{pad}            break",
    ]
    if rotate and n > 1:
        lines.append(f"{pad}    rot = (rot + (cycle - _b0)) % NP")
    lines += [
        f"{pad}    if finished:",
        f"{pad}        status = 'limit'",
        f"{pad}        break",
        f"{pad}    continue",
    ]
    return lines


def _select_tree_lines(perm, mask: int, steps, caps_high: int, high: int,
                       pad: str, leaf) -> list[str]:
    """Inline the scheme's selection for one known ready pattern.

    Partial evaluation of :func:`repro.merge.scheme._specialize`'s
    output against a known ready mask: invalid ports fold into their
    partner's pass-through at codegen time, so only the genuinely
    dynamic predicates (CSMT cluster overlap, SMT cap fit) remain as
    branches, and every terminal path reaches a *statically known*
    selection.  ``leaf(sel, pad)`` emits each terminal body — issue
    code, memo stores and width histograms all become literal
    straight-line code with no selection tuple built at run time.
    Predicate semantics and left-priority fallbacks mirror
    ``SchemePlan.select_ports`` exactly (the differential suite and the
    decision-equivalence property test in tests/test_engine.py hold the
    two together).
    """
    lines: list[str] = []
    counter = [0]

    def rec(i: int, stack: tuple, pad: str) -> None:
        while i < len(steps):
            op, port = steps[i]
            i += 1
            if op == OP_PORT:
                slot = perm[port]
                if mask & (1 << slot):
                    stack = stack + ((f"mop{slot}.mask",
                                      f"mop{slot}.packed", (port,)),)
                else:
                    stack = stack + (None,)
                continue
            b = stack[-1]
            a = stack[-2]
            rest = stack[:-2]
            if a is None or b is None:
                stack = rest + ((b if a is None else a),)
                continue
            am, ap, asel = a
            bm, bp, bsel = b
            t = counter[0]
            counter[0] += 1
            if op == OP_CSMT:
                lines.append(f"{pad}if {am} & {bm}:")
                rec(i, rest + (a,), pad + "    ")
                lines.append(f"{pad}else:")
                lines.append(f"{pad}    _m{t} = {am} | {bm}")
                lines.append(f"{pad}    _q{t} = {ap} + {bp}")
                rec(i, rest + ((f"_m{t}", f"_q{t}", asel + bsel),),
                    pad + "    ")
            else:  # OP_SMT
                lines.append(f"{pad}_q{t} = {ap} + {bp}")
                lines.append(f"{pad}if ({caps_high} - _q{t}) & {high}"
                             f" == {high}:")
                lines.append(f"{pad}    _m{t} = {am} | {bm}")
                rec(i, rest + ((f"_m{t}", f"_q{t}", asel + bsel),),
                    pad + "    ")
                lines.append(f"{pad}else:")
                rec(i, rest + (a,), pad + "    ")
            return
        lines.extend(leaf(stack[0][2], pad))

    rec(0, (), pad)
    return lines


def _contested_lines(perm, steps, caps_high: int, high: int, pad: str,
                     d_desc, br_penalty: int) -> list[str]:
    """Select + issue for one rotation step, fully unrolled.

    Exactly-two-ready cycles — the bulk of contested cycles — skip the
    memo: every merge block except the two ports' lowest common
    ancestor passes a lone packet through, so the selection collapses
    to that ancestor's precomputed predicate (the plan's
    ``pair_table``), and the winning slot(s) are issued by literal
    straight-line code — no selection tuple, no port->slot dispatch.
    The predicate operands are symmetric (SMT sums resources, CSMT
    intersects cluster masks), so slot order stands in for packet
    order; the prologue-computed ``pf_i_j`` flag (\"port i is the
    priority side\") decides both the lone winner and the two-slot
    issue order, which must follow selection priority because DCache
    LRU state depends on within-cycle access order.
    Three-plus-ready cycles probe the shared memo — the key ORs the
    ready slots' interned signatures (``MultiOp.sig``, see
    :func:`ensure_sigs`) at fixed per-*port* shift positions, so every
    rotation shares one memo — and on a miss (or with the memo
    adaptively off) fall into :func:`_select_tree_lines`, whose
    terminal paths store the statically known selection and issue it
    with literal code.  Memo hits replay the stored selection through
    an ``if``-chain mapping ports back to this rotation's slots.
    """
    n = len(perm)

    def pair_body(mask: int, bpad: str) -> list[str]:
        ka, kb = (k for k in range(n) if mask & (1 << k))
        pa, pb = perm.index(ka), perm.index(kb)
        i, j = (pa, pb) if pa < pb else (pb, pa)
        si, sj = perm[i], perm[j]
        out = [
            f"{bpad}if sm_{i}_{j}:",
            f"{bpad}    _s = mop{ka}.packed + mop{kb}.packed",
            f"{bpad}    _two = ({caps_high} - _s) & {high} == {high}",
            f"{bpad}elif mop{ka}.mask & mop{kb}.mask:",
            f"{bpad}    _two = False",
            f"{bpad}else:",
            f"{bpad}    _two = True",
            f"{bpad}if _two:",
            f"{bpad}    if pf_{i}_{j}:",
        ]
        out += _issue_lines(si, bpad + "        ", d_desc, br_penalty)
        out += _issue_lines(sj, bpad + "        ", d_desc, br_penalty)
        out.append(f"{bpad}    else:")
        out += _issue_lines(sj, bpad + "        ", d_desc, br_penalty)
        out += _issue_lines(si, bpad + "        ", d_desc, br_penalty)
        out += [
            f"{bpad}    instrs_acc += 2",
            f"{bpad}    h2 += 1",
            f"{bpad}elif pf_{i}_{j}:",
        ]
        out += _issue_lines(si, bpad + "    ", d_desc, br_penalty)
        out += [
            f"{bpad}    instrs_acc += 1",
            f"{bpad}    h1 += 1",
            f"{bpad}else:",
        ]
        out += _issue_lines(sj, bpad + "    ", d_desc, br_penalty)
        out += [
            f"{bpad}    instrs_acc += 1",
            f"{bpad}    h1 += 1",
        ]
        return out

    def memo_block(mask: int, bpad: str) -> list[str]:
        parts = []
        for p, slot in enumerate(perm):
            if mask & (1 << slot):
                shift = SIG_BITS * (n - 1 - p)
                parts.append(f"mop{slot}.sig << {shift}" if shift
                             else f"mop{slot}.sig")
        key_expr = " | ".join(parts)

        def miss_leaf(sel: tuple, lpad: str) -> list[str]:
            # memo bookkeeping only while the memo is live; the
            # selection itself is a literal constant here, so the store
            # allocates nothing and the issue order is frozen in.
            out = [
                f"{lpad}if memo_on:",
                f"{lpad}    m_miss += 1",
                f"{lpad}    if len(memo) >= MEMO_LIMIT:",
                f"{lpad}        memo.clear()",
                f"{lpad}        m_drops += 1",
                f"{lpad}    memo[key] = {sel!r}",
                f"{lpad}    if len(memo) > 8192 and mh * 2 < len(memo):",
                f"{lpad}        memo_on = False",
                f"{lpad}        memo.clear()",
            ]
            for p in sel:
                out += _issue_lines(perm[p], lpad, d_desc, br_penalty)
            out += [
                f"{lpad}instrs_acc += {len(sel)}",
                f"{lpad}h{len(sel)} += 1",
            ]
            return out

        out = [
            f"{bpad}if memo_on:",
            f"{bpad}    key = {key_expr}",
            f"{bpad}    sel = memo.get(key)",
            f"{bpad}else:",
            f"{bpad}    sel = None",
            f"{bpad}if sel is None:",
        ]
        out += _select_tree_lines(perm, mask, steps, caps_high, high,
                                  bpad + "    ", miss_leaf)
        out += [
            f"{bpad}else:",
            f"{bpad}    mh += 1",
        ]
        hp = bpad + "    "
        ready_ports = [p for p, slot in enumerate(perm)
                       if mask & (1 << slot)]
        out.append(f"{hp}for _p in sel:")
        for x, p in enumerate(ready_ports):
            if x < len(ready_ports) - 1:
                kw = "if" if x == 0 else "elif"
                out.append(f"{hp}    {kw} _p == {p}:")
            else:
                out.append(f"{hp}    else:")
            out += _issue_lines(perm[p], hp + "        ",
                                d_desc, br_penalty)
        nready = len(ready_ports)
        out += [
            f"{hp}nsel = len(sel)",
            f"{hp}instrs_acc += nsel",
        ]
        for x in range(1, nready + 1):
            kw = "if" if x == 1 else ("elif" if x < nready else "else")
            cond = f" nsel == {x}" if kw != "else" else ""
            out.append(f"{hp}{kw}{cond}:")
            out.append(f"{hp}    h{x} += 1")
        return out

    if n == 2:
        # both ready is the only contested case: pure pair predicate,
        # no signatures, no memo.
        return pair_body(3, pad)
    lines = [f"{pad}if R2 & (R2 - 1):"]
    mp = pad + "    "
    # >= 3-ready patterns, all-ready first (the saturated steady state).
    big = sorted((m for m in range(1 << n) if bin(m).count("1") >= 3),
                 key=lambda m: -bin(m).count("1"))
    if len(big) == 1:
        lines += memo_block(big[0], mp)
    else:
        for x, mask in enumerate(big):
            last = x == len(big) - 1
            kw = "if" if x == 0 else ("elif" if not last else "else")
            cond = f" R == {mask}" if kw != "else" else ""
            lines.append(f"{mp}{kw}{cond}:")
            lines += memo_block(mask, mp + "    ")
    masks = [m for m in range(1 << n) if bin(m).count("1") == 2]
    for x, mask in enumerate(masks):
        last = x == len(masks) - 1
        kw = "else" if last else f"elif R == {mask}"
        lines.append(f"{pad}{kw}:")
        lines += pair_body(mask, pad + "    ")
    return lines


def loop_source(n: int, perms, steps, caps_high: int, high: int,
                i_desc, d_desc, br_penalty: int, rotate: bool) -> str:
    """Generate the cycle-loop source for one semantic shape.

    Pure function of its arguments: the same shape always produces the
    same text (the disk cache depends on this).  ``steps`` is the
    scheme's postorder merge plan and ``caps_high``/``high`` the
    machine's packed cap constants — both are baked into the emitted
    predicates, which is why they are part of :func:`source_key`.
    """
    perms = tuple(tuple(p) for p in perms)
    steps = tuple(steps)
    n_perms = len(perms)
    rotate = bool(rotate) and n > 1
    slots = range(n)
    # merge memo + signatures only pay off with >= 3 contenders; one- and
    # two-port loops never consult them (two-ready uses the pair table).
    with_sig = n > 2
    L: list[str] = [
        f"# generated by repro.sim.codegen v{CODEGEN_VERSION}"
        f" (digest {_self_digest()})",
        f"# shape: n={n} perms={perms} rot={rotate} icache={i_desc}"
        f" dcache={d_desc} br={br_penalty}",
        f"# scheme: steps={steps} caps_high={caps_high} high={high}",
        "def _jit_loop(core, max_cycles, instr_limit, entry, sink):",
        "    contexts = core.contexts",
        "    icache = core.icache",
        "    dcache = core.dcache",
        "    stats = core.stats",
        "    BATCH = entry.batch",
        "    limit = (1 << 62) if instr_limit is None else instr_limit",
    ]
    e = L.append
    if with_sig:
        e("    memo = entry.memo")
        e("    MEMO_LIMIT = entry.memo_limit")
        e("    memo_on = entry.memo_on")
        e("    mh = entry.memo_hits")
        e("    MH0 = mh")
    if n > 1:
        if rotate:
            e(f"    NP = {n_perms}")
        e("    pair = entry.pair_table")
        for i in range(n):
            for j in range(i + 1, n):
                e(f"    sm_{i}_{j}, _pf, _ps, _sf, _sb = pair[{i}, {j}]")
                e(f"    pf_{i}_{j} = _pf == {i}")
    if i_desc[0] == "lru":
        e("    i_sets = icache.sets")
    if d_desc[0] == "lru":
        e("    d_sets = dcache.sets")
    e("    cycle = core.cycle")
    e("    end = cycle + max_cycles")
    e("    rot = core._rot")
    e("    last_il = -1")
    e("    last_dl = -1")
    e("    ih = 0; imiss = 0; dh = 0; dmiss = 0")
    e("    cyc_acc = 0; waste_acc = 0; ops_acc = 0; instrs_acc = 0")
    e("    burst1 = 0")
    e("    " + "; ".join(f"h{x} = 0" for x in range(1, n + 1)))
    e("    m_miss = 0; m_drops = 0")
    e("    finished = False")
    e("    status = 'timeslice'")
    for k in slots:
        e(f"    c{k} = contexts[{k}]")
        e(f"    sr{k} = c{k}.stream")
        e(f"    buf{k} = sr{k}._buf")
        e(f"    pos{k} = sr{k}._pos")
        e(f"    len{k} = len(buf{k})")
        e(f"    rec{k} = c{k}.pending")
        e(f"    mop{k} = rec{k}.mop if rec{k} is not None else None")
        e(f"    st{k} = c{k}.stall_until")
        e(f"    in{k} = c{k}.issued_instrs")
        e(f"    op{k} = c{k}.issued_ops")
        e(f"    im{k} = 0; dm{k} = 0; tb{k} = 0")

    # ------------------------------------------------------- main loop
    e("    while cycle < end:")
    # fetch + ready mask in one pass, context order (icache order).
    e("        R = 0")
    for k in slots:
        assign = "R = 1" if k == 0 else f"R |= {1 << k}"
        e(f"        if st{k} <= cycle:")
        e(f"            if rec{k} is None:")
        L.extend(_fetch_lines(k, "                ", i_desc))
        e(f"                if st{k} <= cycle:")
        e(f"                    {assign}")
        e("            else:")
        e(f"                {assign}")
    if n == 1:
        e("        if R:")
        L.extend(_burst_lines(0, n, "            ", i_desc, d_desc,
                              br_penalty, rotate))
        L.extend(_issue_lines(0, "            ", d_desc, br_penalty))
        e("            instrs_acc += 1")
        e("            h1 += 1")
    else:
        # contested cycles first — they dominate loop iterations (solo
        # stretches collapse into bursts, idle stretches into one skip).
        e("        if R & (R - 1):")
        if n > 2:
            e("            R2 = R & (R - 1)")
        if n_perms == 1:
            L.extend(_contested_lines(perms[0], steps, caps_high, high,
                                      "            ", d_desc, br_penalty))
        else:
            for r in range(n_perms):
                kw = "if" if r == 0 else (
                    "elif" if r < n_perms - 1 else "else")
                cond = f" rot == {r}" if kw != "else" else ""
                e(f"            {kw}{cond}:")
                L.extend(_contested_lines(perms[r], steps, caps_high,
                                          high, "                ",
                                          d_desc, br_penalty))
        e("        elif R:")
        for k in slots:
            kw = "if" if k == 0 else "elif"
            e(f"            {kw} R == {1 << k}:")
            L.extend(_burst_lines(k, n, "                ", i_desc,
                                  d_desc, br_penalty, rotate))
            L.extend(_issue_lines(k, "                ", d_desc,
                                  br_penalty))
            e("                instrs_acc += 1")
            e("                h1 += 1")
    # idle: jump to the earliest wakeup.
    e("        else:")
    e("            nxt = st0")
    for k in slots:
        if k == 0:
            continue
        e(f"            if st{k} < nxt:")
        e(f"                nxt = st{k}")
    e("            skip = nxt - cycle")
    e("            _rem = end - cycle")
    e("            if skip >= _rem:")
    e("                skip = _rem")
    e("            cyc_acc += skip")
    e("            waste_acc += skip")
    e("            cycle += skip")
    if rotate:
        e("            rot = (rot + skip) % NP")
    e("            continue")
    e("        cyc_acc += 1")
    e("        cycle += 1")
    if rotate:
        e("        rot += 1")
        e("        if rot == NP:")
        e("            rot = 0")
    e("        if finished:")
    e("            status = 'limit'")
    e("            break")

    # -------------------------------------------------------- epilogue
    for k in slots:
        e(f"    c{k}.pending = rec{k}")
        e(f"    c{k}.packet = None")
        e(f"    c{k}.stall_until = st{k}")
        e(f"    c{k}.issued_instrs = in{k}")
        e(f"    c{k}.issued_ops = op{k}")
        e(f"    sr{k}._pos = pos{k}")
        e(f"    if im{k}:")
        e(f"        c{k}.icache_misses += im{k}")
        e(f"    if dm{k}:")
        e(f"        c{k}.dcache_misses += dm{k}")
        e(f"    if tb{k}:")
        e(f"        c{k}.taken_branches += tb{k}")
    e("    if ih:")
    e("        icache.hits += ih")
    e("    if imiss:")
    e("        icache.misses += imiss")
    e("    if dh:")
    e("        dcache.hits += dh")
    e("    if dmiss:")
    e("        dcache.misses += dmiss")
    e("    if burst1:")
    e("        instrs_acc += burst1")
    e("        h1 += burst1")
    e("    stats.cycles += cyc_acc")
    e("    stats.vertical_waste += waste_acc")
    e("    stats.ops += ops_acc")
    e("    stats.instrs += instrs_acc")
    e("    merged = stats.merged_hist")
    for x in range(1, n + 1):
        e(f"    if h{x}:")
        e(f"        merged[{x}] = merged.get({x}, 0) + h{x}")
    e("    core.cycle = cycle")
    e("    core._rot = rot")
    if with_sig:
        e("    entry.memo_on = memo_on")
        e("    entry.memo_hits = mh")
        e("    sink._m_hits += mh - MH0")
    e("    sink._m_miss += m_miss")
    e("    sink._m_drops += m_drops")
    e("    return status")
    return "\n".join(L) + "\n"


# ----------------------------------------------------------------------
# compiled-loop cache
# ----------------------------------------------------------------------
#: widest port count the generated loop serves.  Source size grows about
#: 4x per port (1 MB at 4 ports, 4.4 MB at 5, 260 MB at 8), so wider
#: cores run on the fast engine instead (:class:`~repro.sim.engine.JitEngine`).
MAX_LOOP_PORTS = 5

#: in-memory cap on compiled loops: loops are specialized per scheme, so
#: a sweep over the full 610-scheme registry would otherwise pin
#: hundreds of compiled code objects.  Re-entry after an overflow is not
#: cheap: it re-``compile()``s the loop's source (about 1 MB and
#: 160-200 ms for a 4-port loop on a 2-vCPU host), read back from the
#: cache directory or, with no directory set, regenerated first.
LOOP_MEMORY_CAP = 64


def _exec_loop(src: str):
    namespace: dict = {}
    exec(src, namespace)  # noqa: S102 - self-generated source
    return namespace["_jit_loop"]


#: loops are stored as their generated source (``<key>.loop.py``), which
#: stays human-readable; an entry that no longer compiles to a
#: ``_jit_loop`` counts as corrupt.
SOURCE = Codec(".loop.py", str.encode,
               lambda data: _exec_loop(data.decode("utf-8")), _exec_loop)


def loop_cache(directory: str | None = None) -> ArtifactCache:
    """A compiled-loop cache: ``get(*shape)`` with :func:`source_key`'s
    arguments."""
    return ArtifactCache(source_key, loop_source, SOURCE, directory,
                         cap=LOOP_MEMORY_CAP)


#: the process-wide cache every loop resolution routes through.
_default_cache = default_cache(loop_cache())


def get_loop_cache() -> ArtifactCache:
    return _default_cache


class LoopEntry:
    """A compiled loop bound to one (plan, machine shape, knobs) tuple.

    Owns the private acceleration state the generated loop reads: the
    merge memo (decision key -> ports in priority order, keyed by the
    interned ``MultiOp.sig`` ids), the plan's pair table and the
    runtime knobs.  Entries are process-wide so every engine instance
    simulating the same (scheme, machine, knobs) shares one memo.
    """

    __slots__ = ("fn", "perms", "select_ports", "pair_table", "memo",
                 "memo_limit", "batch", "memo_on", "memo_hits")

    def __init__(self, fn, perms, select_ports, pair_table,
                 memo_limit: int, batch: int):
        self.fn = fn
        self.perms = perms
        self.select_ports = select_ports
        self.pair_table = pair_table
        self.memo: dict = {}
        self.memo_limit = memo_limit
        self.batch = batch
        #: adaptive memoization (fast-engine policy): once the joint
        #: signatures demonstrably fail to repeat, stop paying for key
        #: construction and call the compiled plan directly.
        self.memo_on = True
        self.memo_hits = 0


#: process-wide entries: (plan, shape key, knobs) -> LoopEntry.  Soft
#: cap so a sweep over hundreds of schemes cannot grow memos unbounded.
_entries: dict = {}
_ENTRY_CAP = 512


def loop_entry(scheme, plan, rules, i_desc, d_desc, br_penalty: int,
               rotate: bool, memo_limit: int, batch: int) -> LoopEntry:
    """Resolve the shared :class:`LoopEntry` for one binding.

    ``rules`` is the machine's :class:`~repro.merge.packet.MergeRules`;
    its packed cap constants are baked into the generated predicates
    (the plan was compiled against the same rules, so the inlined
    selection and ``plan.select_ports`` agree decision-for-decision).
    """
    perms = scheme.port_permutations()
    fn_key = source_key(scheme.n_ports, perms, plan.steps,
                        rules.caps_high, rules.high, i_desc, d_desc,
                        br_penalty, rotate)
    key = (plan, fn_key, memo_limit, batch)
    entry = _entries.get(key)
    if entry is None:
        fn = _default_cache.get(scheme.n_ports, perms, plan.steps,
                                rules.caps_high, rules.high,
                                i_desc, d_desc, br_penalty, rotate)
        if len(_entries) >= _ENTRY_CAP:
            _entries.clear()
        entry = LoopEntry(fn, perms, plan.select_ports, plan.pair_table,
                          memo_limit, batch)
        _entries[key] = entry
    return entry
