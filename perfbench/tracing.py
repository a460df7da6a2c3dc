"""In-memory spans around the calls the benchmark makes into each layer.

:func:`install` rebinds each layer's public functions (wherever a module
imported them by name) and methods to timing wrappers; nothing under
``src/`` changes.  A span is ``(id, name, start, end, parent, cell)``
plus a few counts read from the call's arguments or result.  Spans stay
in memory until the round ends.  Every workload simulates in the
round's own process, so one process holds all of a round's spans.

:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import sys
import time

from checks import percentile, self_times


class Tracer:
    """Span collector of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[tuple] = []      # open (span id, cell id)
        self._next = 0
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, *, cell=None, before=None, after=None):
        """A timing wrapper around ``fn`` recording spans named ``name``.

        ``cell(args)`` names the request the span belongs to (default:
        the enclosing span's); ``before()`` snapshots state the
        ``after(result, args, snapshot)`` hook turns into span counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_cell = tracer.stack[-1] if tracer.stack else (None, None)
            tracer._next += 1
            sid = f"{os.getpid()}-{tracer._next}"
            cid = cell(args) if cell is not None else parent_cell
            snap = before() if before is not None else None
            tracer.stack.append((sid, cid))
            result = failed = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                span = {"id": sid, "name": name, "t0": t0, "t1": t1,
                        "parent": parent, "cell": cid, "attrs": {}}
                if after is not None and not failed:
                    span["attrs"] = after(result, args, snap)
                tracer.spans.append(span)
            return result

        return traced

    def bind(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` (a class or module), undone by :meth:`remove`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def bind_everywhere(self, fn, wrapper) -> None:
        """Rebind every module-level name bound to ``fn``."""
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None)
            if not names:
                continue
            for attr, value in list(names.items()):
                if value is fn:
                    self.bind(mod, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def collect(self) -> list[dict]:
        return list(self.spans)


# -- span counts ----------------------------------------------------------
def _program_counts():
    from repro.kernels.cache import get_default_cache

    s = get_default_cache().stats()
    return s["compiles"], s["memory_hits"] + s["disk_hits"]


def loop_counts():
    from repro.sim.codegen import get_loop_cache

    s = get_loop_cache().stats()
    return {"codegen_compiles": s["compiles"], "codegen_disk_hits": s["disk_hits"],
            "codegen_compile_s": s["compile_seconds"]}


def delta(now: dict, then: dict) -> dict:
    return {k: now[k] - then[k] for k in now}


def _compile_after(result, args, snap):
    compiles, hits = _program_counts()
    return {"compiled": compiles - snap[0], "hits": hits - snap[1]}


def _run_counts(res) -> dict:
    st, es = res.stats, res.engine_stats or {}
    return {"cycles": st.cycles, "instrs": st.instrs, "ipc": st.ipc,
            "vertical_waste": st.vertical_waste,
            "context_switches": st.context_switches,
            "icache_misses": res.icache.misses, "dcache_misses": res.dcache.misses,
            "memo_hits": es.get("memo_hits", 0),
            "memo_misses": es.get("memo_misses", 0),
            "fallback_runs": es.get("fallback_runs", 0)}


def _batch_after(results, args, snap):
    done = [r for r in results if r is not None]
    return {"cells": len(results), "batched": len(done),
            "fallback": len(results) - len(done),
            "cycles": sum(r.stats.cycles for r in done)}


def _grid_after(grid, args, snap):
    return {"executed": grid.executed, "reused": grid.reused}


def _claim_after(claim, args, snap):
    if claim is None:
        return {"claimed": 0, "reclaimed": 0}
    return {"claimed": 1, "reclaimed": int(claim["attempt"] > 1)}


def _search_after(out, args, snap):
    schedule = out[1].schedule
    return {"rounds": len(schedule),
            "executed": sum(e["executed"] for e in schedule),
            "reused": sum(e["reused"] for e in schedule)}


def install(tracer: Tracer, workload) -> None:
    """Wrap every traced layer boundary (see the layer map in README.md)."""
    import repro.sim.batch as batch
    from repro.cost import scheme_cost
    from repro.eval import pareto, runner, search, store, sweep
    from repro.eval.backends import QueueBackend
    from repro.eval.evaluator import Evaluator
    from repro.kernels import compile_spec

    tracer.bind_everywhere(compile_spec, tracer.wrap(
        compile_spec, "kernels.compile_spec", before=_program_counts,
        after=_compile_after))
    tracer.bind(runner, "run_workload", tracer.wrap(
        runner.run_workload, "sim.run_workload",
        after=lambda res, args, snap: _run_counts(res)))
    tracer.bind(batch, "run_workloads_batch", tracer.wrap(
        batch.run_workloads_batch, "batch.run_workloads_batch",
        after=_batch_after))
    tracer.bind_everywhere(runner.run_cells, tracer.wrap(
        runner.run_cells, "runner.run_cells", after=_grid_after))
    tracer.bind_everywhere(runner.run_cell_detailed, tracer.wrap(
        runner.run_cell_detailed, "runner.cell", cell=lambda args: args[0].key))
    tracer.bind_everywhere(store.open_store, tracer.wrap(
        store.open_store, "store.open_store"))
    for name in ("record_cell", "load_cells"):
        tracer.bind(store.RunStore, name, tracer.wrap(
            getattr(store.RunStore, name), f"store.{name}"))
    for name in ("claim", "finish", "beat", "enqueue", "release"):
        tracer.bind(QueueBackend, name, tracer.wrap(
            getattr(QueueBackend, name), f"queue.{name}",
            after=_claim_after if name == "claim" else None))
    tracer.bind_everywhere(search.run_search, tracer.wrap(
        search.run_search, "search.run_search", after=_search_after))
    tracer.bind(Evaluator, "evaluate", tracer.wrap(
        Evaluator.evaluate, "evaluator.evaluate"))
    for module, names in ((pareto, ("pareto_frontier", "frontier_neighborhood",
                                    "recommend")),
                          (sweep, ("enumerate_candidates", "assemble_sweep"))):
        for name in names:
            fn = getattr(module, name)
            tracer.bind_everywhere(fn, tracer.wrap(
                fn, f"{module.__name__.rsplit('.', 1)[-1]}.{name}"))
    tracer.bind_everywhere(scheme_cost, tracer.wrap(scheme_cost, "cost.scheme_cost"))

    # the client's own spans: set-up and the campaign
    kind = type(workload)
    tracer.bind(kind, "setup", tracer.wrap(kind.setup, "bench.setup",
                                           cell=lambda args: "setup"))
    tracer.bind(kind, "run", tracer.wrap(kind.run, "bench.campaign",
                                         cell=lambda args: "campaign"))


# -- metrics --------------------------------------------------------------
#: layers whose self time is reported, in report order.
LAYERS = ("bench", "kernels", "runner", "sim", "batch", "store", "queue",
          "search", "evaluator", "pareto", "sweep", "cost")


def _layer(span) -> str:
    return span["name"].split(".", 1)[0]


def _sum(spans, key) -> float:
    return sum(sp.get("attrs", {}).get(key, 0) for sp in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(all_spans, codegen: dict) -> dict:
    """Per-layer metrics of one traced round.

    ``kernels.*`` and ``store.open_s`` cover set-up and the timed call
    (set-up compiles the programs and opens the store); every other
    metric covers the timed call only.  ``busy_s`` sums a layer's outermost spans (a nested call of
    the same layer is not counted twice); ``self_s`` sums span durations
    minus what child spans cover.  ``codegen`` carries the loop-cache
    deltas of the timed call.
    """
    by_id = {sp["id"]: sp for sp in all_spans}
    own = self_times(all_spans)
    start = min((sp["t0"] for sp in all_spans if sp["name"] == "bench.campaign"),
                default=float("-inf"))
    spans = [sp for sp in all_spans if sp["t0"] >= start]

    def outer(sp) -> bool:
        parent = by_id.get(sp["parent"])
        while parent is not None:
            if _layer(parent) == _layer(sp):
                return False
            parent = by_id.get(parent["parent"])
        return True

    named: dict[str, list] = {}
    layers: dict[str, list] = {}
    for sp in spans:
        named.setdefault(sp["name"], []).append(sp)
        layers.setdefault(_layer(sp), []).append(sp)

    def busy(layer):
        return sum(sp["t1"] - sp["t0"] for sp in layers.get(layer, ()) if outer(sp))

    def dur(name):
        return sum(sp["t1"] - sp["t0"] for sp in named.get(name, ()))

    def count(name):
        return len(named.get(name, ()))

    m: dict[str, float] = {}
    comp = [sp for sp in all_spans if sp["name"] == "kernels.compile_spec"]
    m["kernels.compile_s"] = sum(sp["t1"] - sp["t0"] for sp in comp
                                 if sp["attrs"]["compiled"])
    m["kernels.compiles"] = _sum(comp, "compiled")
    m["kernels.cache_hits"] = _sum(comp, "hits")

    runs = named.get("sim.run_workload", [])
    cell_ms = [(sp["t1"] - sp["t0"]) * 1e3 for sp in runs]
    cycles, instrs = _sum(runs, "cycles"), _sum(runs, "instrs")
    memo = _sum(runs, "memo_hits") + _sum(runs, "memo_misses")
    m["sim.busy_s"] = busy("sim")
    m["sim.cells"] = len(runs)
    m["sim.cell_p50_ms"] = percentile(cell_ms, 0.5) or 0.0
    m["sim.cell_p90_ms"] = percentile(cell_ms, 0.9) or 0.0
    m["sim.cycles"] = cycles
    m["sim.cycles_per_s"] = _ratio(cycles, m["sim.busy_s"])
    m["sim.ipc_mean"] = _ratio(_sum(runs, "ipc"), len(runs))
    m["sim.vertical_waste_frac"] = _ratio(_sum(runs, "vertical_waste"), cycles)
    m["sim.icache_misses_pki"] = _ratio(1e3 * _sum(runs, "icache_misses"), instrs)
    m["sim.dcache_misses_pki"] = _ratio(1e3 * _sum(runs, "dcache_misses"), instrs)
    m["sim.context_switches"] = _sum(runs, "context_switches")
    m["sim.memo_hit_ratio"] = _ratio(_sum(runs, "memo_hits"), memo)
    m["sim.fallback_runs"] = _sum(runs, "fallback_runs")

    m["codegen.compiles"] = codegen["codegen_compiles"]
    m["codegen.disk_hits"] = codegen["codegen_disk_hits"]
    m["codegen.compile_s"] = codegen["codegen_compile_s"]

    groups = named.get("batch.run_workloads_batch", [])
    m["batch.busy_s"] = busy("batch")
    m["batch.groups"] = len(groups)
    m["batch.cells"] = _sum(groups, "cells")
    m["batch.fallback_cells"] = _sum(groups, "fallback")
    m["batch.useful_ratio"] = _ratio(_sum(groups, "batched"), m["batch.cells"])
    m["batch.cycles_per_s"] = _ratio(_sum(groups, "cycles"), m["batch.busy_s"])

    grids = named.get("runner.run_cells", [])
    m["runner.busy_s"] = busy("runner")
    m["runner.executed"] = _sum(grids, "executed")
    m["runner.reused"] = _sum(grids, "reused")

    m["store.open_s"] = sum(sp["t1"] - sp["t0"] for sp in all_spans
                            if sp["name"] == "store.open_store")
    m["store.record_s"] = dur("store.record_cell")
    m["store.records"] = count("store.record_cell")
    m["store.load_s"] = dur("store.load_cells")
    m["store.loads"] = count("store.load_cells")

    claims = named.get("queue.claim", [])
    finishes = count("queue.finish")
    m["queue.claim_s"] = dur("queue.claim")
    m["queue.claims"] = _sum(claims, "claimed")
    m["queue.finish_s"] = dur("queue.finish")
    m["queue.overhead_ms_per_cell"] = _ratio(1e3 * busy("queue"), finishes)
    m["queue.released"] = count("queue.release")
    m["queue.reclaimed"] = _sum(claims, "reclaimed")

    searches = named.get("search.run_search", [])
    m["search.rounds"] = _sum(searches, "rounds")
    m["search.cells_executed"] = _sum(searches, "executed")
    m["search.cells_reused"] = _sum(searches, "reused")
    m["evaluator.busy_s"] = busy("evaluator")
    for layer in ("pareto", "sweep", "cost"):
        m[f"{layer}.busy_s"] = busy(layer)
        m[f"{layer}.calls"] = len(layers.get(layer, ()))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[sp["id"]] for sp in layers.get(layer, ()))
    m["trace.spans"] = len(all_spans)
    return m
