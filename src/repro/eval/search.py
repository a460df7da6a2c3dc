"""Guided Pareto search over the merging-scheme design space.

Exhaustion stops being an option beyond 4 threads: the naming grammar
spans 610 schemes at 8 threads and thousands past that, and the
interesting answer — *which schemes sit on the cost/performance
frontier* — concentrates the value of every simulated cycle on a thin
band of the space.  This module spends the cycles there:

**Pareto-aware successive halving.**  Candidates are evaluated on a
ladder of fidelity rungs (:class:`~repro.eval.evaluator.FidelityRung`,
cheap scaled simulations first).  After each reduced rung, a candidate
is promoted to the next rung only if it is (a) on the measured Pareto
frontier, or (b) inside the frontier's eps-IPC neighborhood
(:func:`~repro.eval.pareto.frontier_neighborhood`) **and** rank-stable
versus the previous rung (its IPC rank moved at most ``drift`` places —
the same rank analysis :mod:`~repro.eval.scaling` applies across
machines, applied across fidelities).  Low-fidelity IPC is noisy;
promoting the stable neighborhood rather than the bare frontier is what
keeps the true frontier from being screened out early.

**Budget.**  Denominated in full-fidelity candidate-evaluations (one
unit = one candidate over the whole workload set at full fidelity), as
a fraction of the exhaustive sweep's cost.  A budget that affords the
whole space (``budget=None`` or >= 1.0) short-circuits to the
exhaustive evaluation — every candidate straight to full fidelity — so
the search's frontier is *bit-identical* to ``Session.sweep``'s (CI
gates this).  A capped budget trims each promotion deterministically so the
remaining rungs stay affordable; every trim is reported, never silent.

**Evolutionary mode** (``evolve=True``) replaces the all-candidates
start with a seeded random population that grows by mutating the
current frontier neighborhood through the scheme grammar
(:func:`mutate_names` — token-level edits that preserve port coverage,
re-canonicalized through :func:`~repro.merge.registry.semantic_key`),
then runs the same halving ladder over everything discovered.

**Resumability.**  The schedule is a pure function of the arguments and
the (deterministic) measured values; no search state is persisted.
Kill a search at any point and re-invoke with the same arguments: every
finished cell is reused from the store (its fidelity tag is part of the
cell key) and the schedule replays to where it died.

**Fleet draining.**  With a ``queue:`` store and a ``queue_spec``, each
rung's cells are enqueued and drained through the worker-pull queue —
the coordinator works alongside any number of ``repro-eval worker
--follow`` processes, which keep polling between rungs until the
coordinator marks the search done in the store manifest.
"""

from __future__ import annotations

import dataclasses
import random
import re

from repro.eval.evaluator import DEFAULT_RUNGS, Evaluator
from repro.eval.pareto import (
    design_points,
    frontier_neighborhood,
    pareto_frontier,
)
from repro.eval.scaling import rank_stability_from_ipc
from repro.eval.store import fingerprint_diff
from repro.eval.sweep import SweepPlan, assemble_sweep
from repro.merge import parse_scheme, semantic_key

__all__ = [
    "SearchReport",
    "mutate_names",
    "run_search",
    "search_experiment_id",
]


def search_experiment_id(n_threads: int) -> str:
    """Artifact id of one guided search (the *cells* stay in the
    ``sweepN`` namespace so sweep and search share measurements)."""
    return f"search{n_threads}"


# -- the grammar mutator --------------------------------------------------

_NAME_RE = re.compile(r"(\d+)((?:C\d+|C|S)*)$")
_TOK_RE = re.compile(r"C\d+|C|S")


def _token_str(kind: str, width: int) -> str:
    return "S" if kind == "S" else ("C" if width == 2 else f"C{width}")


def _classify(name: str, n_threads: int):
    """``(form, tokens)`` of a scheme name within the N-thread grammar.

    Forms: ``"cascade"`` (tokens = [(kind, width), ...]), ``"tree"``
    (the N=4 two-level pairings, tokens = the two leaf kinds),
    ``"par"`` (the parallel CN block), ``"other"`` (ST and anything
    unrecognized).
    """
    base, _, qual = name.partition("@")
    m = re.fullmatch(r"C(\d+)", base)
    if m:
        return "par", int(m.group(1))
    m = _NAME_RE.fullmatch(base)
    if not m:
        return "other", None
    toks = _TOK_RE.findall(m.group(2))
    if len(toks) != int(m.group(1)):
        return "other", None
    parsed = [("S", 2) if t == "S"
              else ("C", 2 if t == "C" else int(t[1:])) for t in toks]
    if (not qual and n_threads == 4 and len(toks) == 2
            and all(t in ("S", "C") for t in toks)):
        return "tree", [k for k, _ in parsed]
    return "cascade", parsed


def _emit(tokens, n_threads: int) -> str | None:
    """Name of a cascade token sequence, ``@N``-qualified as needed.

    Single-token sequences fold to their special forms (``Ck``, ``1C``,
    ``1S``) exactly as :func:`~repro.eval.sweep.enumerate_names` emits
    them.  Returns None when the name does not parse back to
    ``n_threads`` ports (e.g. an n=4 two-token width-2 sequence, which
    the parser would read as a tree of a different coverage).
    """
    if len(tokens) == 1 and tokens[0][0] == "C" and tokens[0][1] > 2:
        name = f"C{tokens[0][1]}"
    else:
        name = (str(len(tokens))
                + "".join(_token_str(k, w) for k, w in tokens))
    try:
        if parse_scheme(name).n_ports != n_threads:
            name = f"{name}@{n_threads}"
        if parse_scheme(name).n_ports != n_threads:
            return None
    except Exception:  # noqa: BLE001 - unparseable edit, drop it
        return None
    return name


def _coverage(tokens) -> int:
    return sum(w for _, w in tokens) - (len(tokens) - 1)


def _cascade_edits(tokens):
    """All coverage-preserving single edits of a cascade token list.

    The first token of a cascade covers its width and every later token
    covers width-1, so total coverage = sum(widths) - (len-1) — a
    permutation-invariant quantity.  Each op keeps it constant:

    * replace: S <-> C at width 2 (same width, different hardware);
    * split: C(k) -> (C(a), C(b)) with a+b = k+1 (one extra token eats
      one coverage);
    * merge: any adjacent pair -> C(wx+wy-1) (one fewer token);
    * swap: reorder two tokens (coverage is permutation-invariant, the
      rotation schedule — hence the semantics — is not).
    """
    out = []
    for i, (kind, width) in enumerate(tokens):
        if width == 2:
            other = "C" if kind == "S" else "S"
            out.append(tokens[:i] + [(other, 2)] + tokens[i + 1:])
        if kind == "C" and width >= 3:
            for a in range(2, width):
                b = width + 1 - a
                out.append(tokens[:i] + [("C", a), ("C", b)]
                           + tokens[i + 1:])
    for i in range(len(tokens) - 1):
        (_, wx), (_, wy) = tokens[i], tokens[i + 1]
        out.append(tokens[:i] + [("C", wx + wy - 1)] + tokens[i + 2:])
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens)):
            if tokens[i] != tokens[j]:
                swapped = list(tokens)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                out.append(swapped)
    return out


def _width2_cascades(n_tokens: int):
    """Every all-width-2 cascade of ``n_tokens`` S/C tokens."""
    seqs = [[]]
    for _ in range(n_tokens):
        seqs = [s + [(k, 2)] for s in seqs for k in ("S", "C")]
    return seqs


def mutate_names(name: str, n_threads: int | None = None) -> tuple:
    """All single-edit grammar neighbors of ``name`` at ``n_threads``.

    Cascades mutate by the coverage-preserving token edits of
    :func:`_cascade_edits`.  The special forms hop to their nearest
    serializations: a tree flips its leaf blocks and unrolls to the
    three-token width-2 cascades; the parallel ``CN`` block splits into
    the two-token C cascades.  Results are well-formed N-port names
    (``@N``-qualified exactly like
    :func:`~repro.eval.sweep.enumerate_names`), deduplicated, with the
    seed itself and its semantic equivalents removed — every returned
    name is a genuine move in the deduplicated design space.
    """
    if n_threads is None:
        n_threads = parse_scheme(name).n_ports
    form, tokens = _classify(name, n_threads)
    names: set[str] = set()
    edits = []
    if form == "cascade":
        assert _coverage(tokens) == n_threads, (name, tokens)
        edits = _cascade_edits(tokens)
    elif form == "tree":
        names |= {f"2{fx}{fy}" for fx in "SC" for fy in "SC"}
        edits = _width2_cascades(3)
    elif form == "par":
        n = tokens
        edits = [[("C", a), ("C", n + 1 - a)] for a in range(2, n)]
        if n_threads == 4:
            names |= {f"2{fx}{fy}" for fx in "SC" for fy in "SC"}
    else:
        return ()
    names |= {n for n in (_emit(seq, n_threads) for seq in edits) if n}
    seed_key = semantic_key(name)
    out = {n for n in names
           if n != name and semantic_key(n) != seed_key}
    return tuple(sorted(out))


# -- the search ------------------------------------------------------------

@dataclasses.dataclass
class SearchReport:
    """Everything one :func:`run_search` did, for audit and the docs.

    ``schedule`` holds one entry per evaluation round: rung tag/scale,
    candidate count, executed/reused cells, the round's cost, and the
    promotion outcome (including any budget-trimmed drops — no silent
    caps).  ``spent`` / ``budget_units`` / ``exhaustive_units`` are in
    full-fidelity candidate-evaluation units.
    """

    n_threads: int
    workloads: tuple
    mode: str                     # "exhaustive" | "halving" | "evolve"
    rungs: tuple                  # (tag, scale) pairs
    eps: float
    drift: int
    seed: int
    budget: float | None          # requested fraction (None = unlimited)
    budget_units: float | None
    exhaustive_units: int
    spent: float = 0.0
    schedule: list = dataclasses.field(default_factory=list)
    evaluated_full: tuple = ()
    frontier: list = dataclasses.field(default_factory=list)

    @property
    def full_fraction(self) -> float:
        """Fraction of the deduplicated space evaluated at full
        fidelity (the <= 30% acceptance metric at 8 threads)."""
        return len(self.evaluated_full) / self.exhaustive_units

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["workloads"] = list(self.workloads)
        d["rungs"] = [list(r) for r in self.rungs]
        d["evaluated_full"] = list(self.evaluated_full)
        d["full_fraction"] = round(self.full_fraction, 4)
        return d


def _group_points(plan, groups, ipc, m_clusters, cost_params):
    """Design points of candidate groups from per-canonical IPC."""
    avg = {",".join(g.members): ipc[g.canonical] for g in groups}
    members = [m for g in groups for m in g.members]
    return design_points(avg, m_clusters=m_clusters, schemes=members,
                         params=cost_params)


def _canonicals_of(points, member_to_canon) -> set:
    out = set()
    for p in points:
        out.add(member_to_canon[p.scheme])
        out.update(member_to_canon[a] for a in p.aliases)
    return out


def _spread_trim(promoted, front, affordable, tmin) -> list:
    """Budget-trim a promotion set while keeping cost-axis coverage.

    Keeping a raw high-IPC prefix would concentrate every surviving
    candidate at the expensive end of the transistor axis and forfeit
    the cheap half of the frontier.  Instead the frontier members are
    sorted by their cheapest member's transistor count and subsampled
    at evenly spaced cost ranks (always keeping both extremes), and any
    slots left over go to the neighborhood candidates in their existing
    (IPC-ranked) order.  Deterministic, so resume replays it exactly.
    """
    front_sorted = sorted((c for c in promoted if c in front),
                          key=lambda c: (tmin[c], c))
    rest = [c for c in promoted if c not in front]
    if affordable >= len(front_sorted):
        return front_sorted + rest[:affordable - len(front_sorted)]
    if affordable == 1:
        return front_sorted[:1]
    step = (len(front_sorted) - 1) / (affordable - 1)
    picked = dict.fromkeys(round(i * step) for i in range(affordable))
    return [front_sorted[i] for i in picked]


def run_search(session, n_threads: int = 4, workloads=None, *,
               machine: str = "", rungs=DEFAULT_RUNGS,
               budget: float | None = None, eps: float = 0.05,
               drift: int = 2, seed: int = 0, evolve: bool = False,
               population: int = 24, generations: int = 3,
               budget_transistors: float | None = None,
               budget_gate_delays: float | None = None,
               cost_params=None, queue_spec=None, progress=None):
    """Guided Pareto search of the N-thread design space.

    Args:
        session: the :class:`~repro.eval.api.Session` to evaluate
            through.  Its config registry must carry the reduced rungs
            (``configs=rung_configs(base, rungs)``).
        n_threads / workloads: the plan, as in ``Session.sweep``.
        machine: session machine tag to search on ("" = default).
        rungs: the fidelity ladder (ascending, ending at full).
        budget: fraction of the exhaustive full-fidelity cost this
            search may spend (None or >= 1 = exhaustive shortcut).
        eps / drift: promotion rule knobs — frontier-neighborhood IPC
            band and the maximum rank move counted as stable.
        seed / evolve / population / generations: evolutionary mode.
        budget_transistors / budget_gate_delays: hardware budget for
            the final recommendation (as in sweeps).
        cost_params: :class:`~repro.cost.gates.CostParams` override.
        queue_spec: a ``kind="search"``
            :class:`~repro.eval.queue.CampaignSpec` to coordinate a
            worker fleet through the session's ``queue:`` store.  Its
            :meth:`~repro.eval.queue.CampaignSpec.session` must have
            this session's fingerprint (checked before anything is
            written), since that is the session workers execute under.
        progress: optional callable for one-line round updates.

    Returns:
        ``(result, report)`` — the joined
        :class:`~repro.eval.result.ExperimentResult` (artifact id
        ``searchN``, frontier in ``meta["frontier"]``, the report in
        ``meta["search"]``) and the :class:`SearchReport`.
    """
    rungs = tuple(rungs)
    if not rungs or rungs[-1].scale != 1.0:
        raise ValueError("the rung ladder must end at full fidelity "
                         "(scale 1.0)")
    plan = SweepPlan.build(n_threads, workloads)
    machine_obj = session.machine_for(machine)
    exhaustive_units = len(plan.groups)
    budget_units = None if budget is None else budget * exhaustive_units
    if budget is not None and budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")

    queue = None
    experiment = search_experiment_id(n_threads)
    if queue_spec is not None:
        from repro.eval.backends import QueueBackend
        from repro.eval.queue import init_queue

        if session.store is None or not isinstance(
                session.store.backend, QueueBackend):
            raise ValueError("queue_spec needs the session bound to a "
                             "queue:PATH.db store")
        differ = fingerprint_diff(queue_spec.session().fingerprint(),
                                  session.fingerprint())
        if differ:
            raise ValueError(
                f"queue_spec does not describe this session's campaign "
                f"(differs in: {', '.join(differ)}); a CampaignSpec "
                f"carries only scale, engine, machine presets and rungs, "
                f"and workers rebuild every other SimConfig field (seed, "
                f"cache flags) at its default_config() value — build the "
                f"session from default_config(scale, engine) and "
                f"rung_configs(), or use queue_spec.session()")
        queue = session.store.backend
        init_queue(queue, queue_spec)
        session.store.update_manifest(experiment, search_status="running")

    exhaustive = (not evolve
                  and (budget_units is None
                       or budget_units >= exhaustive_units))
    if not exhaustive and len(rungs) < 2:
        raise ValueError(
            "a capped budget needs at least one reduced rung to screen "
            "on; pass rungs like '0.05,0.25,1' or raise the budget")

    ev = Evaluator(session, plan, rungs, machine_tag=machine, queue=queue)
    member_to_canon = {m: g.canonical for g in plan.groups
                       for m in g.members}
    canon_by_key = {semantic_key(g.canonical): g.canonical
                    for g in plan.groups}
    all_canons = [g.canonical for g in plan.groups]
    report = SearchReport(
        n_threads=n_threads, workloads=plan.workloads,
        mode=("exhaustive" if exhaustive
              else ("evolve" if evolve else "halving")),
        rungs=tuple((r.tag, r.scale) for r in rungs),
        eps=eps, drift=drift, seed=seed, budget=budget,
        budget_units=budget_units, exhaustive_units=exhaustive_units)

    def note(line):
        if progress is not None:
            progress(line)

    full_values: dict[str, float] = {}

    def evaluate(cands, rung, label):
        rep = ev.evaluate(cands, rung)
        report.spent += rep.cost
        if rung.tag == "":
            full_values.update(rep.values)
        entry = {"round": label, "rung": rung.tag or "full",
                 "scale": rung.scale, "candidates": len(cands),
                 "executed": rep.executed, "reused": rep.reused,
                 "cost": round(rep.cost, 3)}
        report.schedule.append(entry)
        note(f"{label}: {len(cands)} candidates at "
             f"{entry['rung']} ({rep.executed} simulated, "
             f"{rep.reused} reused)")
        return rep, entry

    # -- pick the starting pool -----------------------------------------
    full = rungs[-1]
    ipc_first = None             # pre-paid lowest-rung IPC (evolve)
    if exhaustive:
        ladder = (full,)
        pool = list(all_canons)
    elif evolve:
        low = rungs[0]
        rng = random.Random(seed)
        pool = sorted(rng.sample(all_canons,
                                 min(population, len(all_canons))))
        seen = set(pool)
        ipc_low: dict[str, float] = {}
        new = list(pool)
        for gen in range(generations):
            if not new:
                break
            rep, _ = evaluate(new, low, f"gen{gen}")
            ipc_low.update(rep.ipc)
            if gen == generations - 1:
                # the pool must only hold low-rung-measured candidates
                # (the halving ladder reuses those values as rung 0), so
                # the last generation evaluates but does not mutate
                break
            groups = plan.subset(sorted(seen)).groups
            points = _group_points(plan, groups, ipc_low,
                                   machine_obj.n_clusters, cost_params)
            hood = _canonicals_of(frontier_neighborhood(points, eps),
                                  member_to_canon)
            mutants = set()
            for canon in sorted(hood):
                group = next(g for g in groups if g.canonical == canon)
                for member in group.members:
                    for m in mutate_names(member, n_threads):
                        c = canon_by_key.get(semantic_key(m))
                        if c is not None and c not in seen:
                            mutants.add(c)
            new = sorted(mutants)[:population]
            seen.update(new)
            if new:
                note(f"gen{gen}: {len(new)} new candidates from "
                     f"{len(hood)} neighborhood schemes")
        ladder = rungs
        pool = sorted(seen)
        ipc_first = ipc_low
    else:
        ladder = rungs
        pool = list(all_canons)

    # -- successive halving up the ladder -------------------------------
    candidates = pool
    ipc_prev = None
    for i, rung in enumerate(ladder):
        if i == 0 and ipc_first is not None:
            # the evolve phase already measured (and paid for) the
            # lowest rung for the whole pool
            ipc_now = {c: ipc_first[c] for c in candidates}
            report.schedule.append(
                {"round": "rung0", "rung": rung.tag or "full",
                 "scale": rung.scale, "candidates": len(candidates),
                 "executed": 0, "reused": len(candidates), "cost": 0.0})
        else:
            rep, _ = evaluate(candidates, rung, f"rung{i}")
            ipc_now = rep.ipc
        if i == len(ladder) - 1:
            break
        groups = plan.subset(candidates).groups
        points = _group_points(plan, groups, ipc_now,
                               machine_obj.n_clusters, cost_params)
        front = _canonicals_of(pareto_frontier(points), member_to_canon)
        hood = _canonicals_of(frontier_neighborhood(points, eps),
                              member_to_canon)
        if ipc_prev is None:
            stable = set(hood)
        else:
            stab = rank_stability_from_ipc({
                "prev": {c: ipc_prev[c] for c in candidates},
                "this": ipc_now})
            stable = {s for s, d in stab["spread"].items() if d <= drift}
        promoted = sorted(front | (hood & stable),
                          key=lambda c: (c not in front, -ipc_now[c], c))
        entry = report.schedule[-1]
        entry["frontier"] = len(front)
        entry["neighborhood"] = len(hood)
        if budget_units is not None:
            rest = sum(r.scale for r in ladder[i + 1:])
            affordable = max(1, int((budget_units - report.spent)
                                    // rest))
            if len(promoted) > affordable:
                entry["dropped"] = len(promoted) - affordable
                note(f"rung{i}: budget trims promotion "
                     f"{len(promoted)} -> {affordable}")
                tmin: dict[str, int] = {}
                for p in points:
                    c = member_to_canon[p.scheme]
                    tmin[c] = min(tmin.get(c, p.transistors),
                                  p.transistors)
                promoted = _spread_trim(promoted, front, affordable,
                                        tmin)
        entry["promoted"] = len(promoted)
        ipc_prev = ipc_now
        candidates = promoted

    report.evaluated_full = tuple(candidates)

    # -- final join: full-fidelity values only --------------------------
    sub = plan.subset(candidates)
    result = assemble_sweep(
        sub, full_values, machine_obj, machine_tag=machine,
        config_tag="", budget_transistors=budget_transistors,
        budget_gate_delays=budget_gate_delays, cost_params=cost_params,
        experiment=experiment)
    report.frontier = list(result.meta["frontier"])
    result = dataclasses.replace(
        result,
        title=(f"{n_threads}-thread guided Pareto search "
               f"({report.mode}, {len(candidates)} of "
               f"{exhaustive_units} semantics at full fidelity)"))
    result.notes.append(
        f"search mode {report.mode}: spent {report.spent:.2f} of "
        + (f"{budget_units:.2f}" if budget_units is not None
           else "unlimited")
        + f" budget units (exhaustive = {exhaustive_units}); "
        f"{report.full_fraction:.0%} of the space reached full fidelity")
    result.meta["search"] = report.to_dict()

    if queue is not None:
        session.store.update_manifest(experiment, search_status="done")
    return result, report
