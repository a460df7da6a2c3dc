"""The benchmark's three workloads: inputs from a seed, set-up, the timed
call, and the output check.

Each workload is one client in a closed loop: the next campaign starts
only after the previous one returned, and every simulation runs in the
client's own process.  Set-up covers
opening the store, compiling the workload's programs through
``compile_spec`` and loading the native batch kernels, so the timed call
starts with warm program caches and cold loop caches, as a fresh
``repro-eval`` process would after its own start-up.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time

from checks import (
    compare_values,
    eps_coverage,
    load_expected,
    table1_ipc_err,
)
from repro.arch import machine_family, paper_machine
from repro.eval.api import Session
from repro.eval.evaluator import rung_configs, rungs_from_spec
from repro.eval.experiments import default_config
from repro.eval.queue import CampaignSpec
from repro.eval.runner import Cell, run_cell
from repro.eval.search import run_search
from repro.eval.sweep import SweepPlan, assemble_sweep
from repro.kernels import SUITE, by_name, compile_spec
from repro.sim.native import get_native
from repro.workloads import TABLE2, WORKLOAD_ORDER

#: the program's default ``SimConfig.seed``; also picks the golden
#: search triple.
DEFAULT_SEED = 1
#: recorded alongside the default, never used while tuning.
HELD_OUT_SEED = 2

PAPER_SCALE = 1.0
MATRIX_SCALE = 0.1
MATRIX_MACHINES = ((2, 4, 8), (3, 4))
#: the timed matrix runs in one process: a pool as wide as the host's
#: two vCPUs made its time follow the other tenants of a shared host
#: rather than the program.
MATRIX_JOBS = 1
SEARCH_SCALE = 0.2
SEARCH_THREADS = 8
SEARCH_RUNGS = "0.05,0.25,1"
SEARCH_BUDGET = 0.3
SEARCH_EPS = 0.05
GOLDEN_TRIPLE = ("LLLL", "LLHH", "HHHH")
#: Table-2 workloads by ILP mix; a search triple takes one from each.
SEARCH_BANDS = (("LLLL", "LLMM", "LLMH"), ("LMMH", "MMMM", "LLHH", "LMHH"),
                ("MMHH", "HHHH"))
#: cells re-simulated with the reference engine when the seed has no
#: recorded values.
SPOT_CHECKS = 4


def jobs() -> int:
    """Pool size for recording reference values (not timed)."""
    return min(2, os.cpu_count() or 1)


def _compile(machine, specs) -> None:
    for spec in specs:
        compile_spec(spec, machine)


def _workload_specs(names) -> list:
    seen = {b: by_name(b) for name in names for b in TABLE2[name]}
    return list(seen.values())


def _cell_from_key(experiment: str, key: str) -> Cell:
    kind, target, scheme, variant = key.split(":")
    return Cell(experiment, kind, target, scheme, variant)


def _spot_check(values: dict, config, machine, seed: int):
    """Re-simulate a seeded sample of ``{experiment: {key: ipc}}`` cells
    with the reference engine; returns ``(failed, problems)``."""
    ref = dataclasses.replace(config, engine="reference")
    flat = sorted((exp, key) for exp, cells in values.items() for key in cells)
    failed, problems = 0, []
    for exp, key in random.Random(seed).sample(flat, min(SPOT_CHECKS, len(flat))):
        want = run_cell(_cell_from_key(exp, key), ref, machine)
        if values[exp][key] != want:
            failed += 1
            problems.append(f"{exp}/{key}: {values[exp][key]!r} "
                            f"!= reference {want!r}")
    return failed, problems


def _check_cells(workload: str, seed: int, values: dict, config, machine):
    """Full comparison for a recorded seed, else a reference spot check.

    Returns ``(failed, problems)``; a missing or extra cell fails too.
    """
    expected = (load_expected(workload) or {}).get("seeds", {}).get(str(seed))
    if expected is None:
        failed, problems = 0, []
        for exp, cells in values.items():
            bad = [k for k, v in cells.items() if not 0.0 < v < 64.0]
            failed += len(bad)
            problems += [f"{exp}/{k}: implausible IPC" for k in bad]
        f2, p2 = _spot_check(values, config, machine, seed)
        return failed + f2, problems + p2
    failed, problems = 0, []
    for exp in expected.keys() | values.keys():
        f, p = compare_values(values.get(exp, {}), expected.get(exp, {}),
                              f"{exp}/")
        failed += f
        problems += p
    return failed, problems


# ----------------------------------------------------------------------
class Paper:
    """table1 then fig10 at scale 1.0 on the jit engine, through dir:."""

    name = "paper"

    @staticmethod
    def config(seed: int, engine: str = "jit"):
        return dataclasses.replace(default_config(PAPER_SCALE, engine=engine),
                                   seed=seed)

    def setup(self, seed: int, work: str) -> dict:
        session = Session(config=self.config(seed),
                          store=f"dir:{os.path.join(work, 'store')}")
        _compile(session.machine, list(SUITE) + _workload_specs(WORKLOAD_ORDER))
        return {"seed": seed, "session": session}

    def run(self, st: dict) -> dict:
        session = st["session"]
        t0 = time.perf_counter()
        table1 = session.run("table1")
        session.run("fig10")
        dt = time.perf_counter() - t0
        values = {exp: dict(session.grid(exp).values)
                  for exp in ("table1", "fig10")}
        return dict(campaign_s=dt, cells=sum(map(len, values.values())),
                    values=values, table1_rows=[list(r) for r in table1.rows])

    def check(self, st: dict, out: dict) -> dict:
        failed, problems = _check_cells(self.name, st["seed"], out["values"],
                                        st["session"].config,
                                        st["session"].machine)
        return {"attempted": out["cells"], "failed": failed,
                "problems": problems,
                "sim": {"table1_ipc_err": table1_ipc_err(out["table1_rows"])}}

    def close(self, st: dict) -> None:
        st["session"].close()

    def record(self, seed: int) -> dict:
        with Session(config=self.config(seed, "reference"), jobs=jobs()) as s:
            s.run("table1")
            s.run("fig10")
            return {exp: dict(s.grid(exp).values) for exp in ("table1", "fig10")}


# ----------------------------------------------------------------------
class MatrixBatch:
    """sweep4 over six machine geometries on the batch engine, no store."""

    name = "matrix-batch"

    @staticmethod
    def config(seed: int, engine: str = "batch"):
        return dataclasses.replace(default_config(MATRIX_SCALE, engine=engine),
                                   seed=seed)

    @staticmethod
    def machines() -> dict:
        return machine_family(*MATRIX_MACHINES)

    def setup(self, seed: int, work: str) -> dict:
        machines = self.machines()
        session = Session(machines=machines, config=self.config(seed),
                          jobs=MATRIX_JOBS)
        specs = _workload_specs(WORKLOAD_ORDER)
        for machine in machines.values():
            _compile(machine, specs)
        get_native()
        return {"seed": seed, "session": session}

    @staticmethod
    def _averages(matrix) -> dict:
        return {mtag: dict(result.meta["avg_ipc"])
                for (mtag, _ctag), result in sorted(matrix.results.items())}

    def run(self, st: dict) -> dict:
        t0 = time.perf_counter()
        matrix = st["session"].run_matrix("sweep4")
        dt = time.perf_counter() - t0
        return dict(campaign_s=dt, cells=matrix.executed,
                    averages=self._averages(matrix))

    def check(self, st: dict, out: dict) -> dict:
        """Each (machine, scheme group) average joins nine cells, so a
        wrong average counts its nine cells as failed."""
        seed, session = st["seed"], st["session"]
        plan = SweepPlan.build(4)
        per_group = len(plan.workloads)
        got = out["averages"]
        expected = (load_expected(self.name) or {}).get("seeds", {}).get(str(seed))
        if expected is not None:
            failed, problems = 0, []
            for mtag in expected.keys() | got.keys():
                f, p = compare_values(got.get(mtag, {}), expected.get(mtag, {}),
                                      f"{mtag}/")
                failed += f * per_group
                problems += p
        else:
            failed, problems = 0, []
            rng = random.Random(seed)
            ref = dataclasses.replace(session.config, engine="reference")
            for _ in range(2):
                mtag = rng.choice(sorted(got))
                group = rng.choice(plan.groups)
                vals = [run_cell(plan.cell(wl, group.canonical, machine_tag=mtag),
                                 ref, session.machine_for(mtag))
                        for wl in plan.workloads]
                label = ",".join(group.members)
                want = sum(vals) / len(vals)
                if got[mtag].get(label) != want:
                    failed += per_group
                    problems.append(f"{mtag}/{label}: {got[mtag].get(label)!r} "
                                    f"!= reference {want!r}")
        return {"attempted": out["cells"], "failed": failed,
                "problems": problems, "sim": {}}

    def close(self, st: dict) -> None:
        st["session"].close()

    def record(self, seed: int) -> dict:
        with Session(machines=self.machines(),
                     config=self.config(seed, "reference"), jobs=jobs()) as s:
            return self._averages(s.run_matrix("sweep4"))


# ----------------------------------------------------------------------
def search_triple(seed: int) -> tuple:
    """The Table-2 workload triple a seed searches over.

    ``CampaignSpec.config()`` rebuilds every queue config with the
    default ``SimConfig.seed``, so the seed cannot reach the simulation;
    it picks the triple instead: one low-, one mixed- and one high-ILP
    workload, as the golden triple (the default seed's) has, so every
    seed searches a design space of comparable size and cost.
    """
    if seed == DEFAULT_SEED:
        return GOLDEN_TRIPLE
    rng = random.Random(seed)
    return tuple(rng.choice(band) for band in SEARCH_BANDS)


class SearchQueue:
    """Budgeted 8-thread guided search coordinated through queue:."""

    name = "search8-queue"

    @staticmethod
    def rungs():
        return rungs_from_spec(SEARCH_RUNGS)

    def setup(self, seed: int, work: str) -> dict:
        triple = search_triple(seed)
        rungs = self.rungs()
        base = default_config(SEARCH_SCALE)
        session = Session(machine=paper_machine(), config=base,
                          configs=rung_configs(base, rungs),
                          store=f"queue:{os.path.join(work, 'search.db')}")
        spec = CampaignSpec(
            experiment=f"sweep{SEARCH_THREADS}", scale=SEARCH_SCALE,
            engine=base.engine, workloads=triple, kind="search",
            configs=tuple((r.tag, r.scale) for r in rungs if r.tag))
        _compile(session.machine, _workload_specs(triple))
        return {"seed": seed, "session": session, "triple": triple,
                "rungs": rungs, "spec": spec}

    def run(self, st: dict) -> dict:
        session = st["session"]
        t0 = time.perf_counter()
        result, report = run_search(
            session, SEARCH_THREADS, list(st["triple"]), rungs=st["rungs"],
            budget=SEARCH_BUDGET, eps=SEARCH_EPS, queue_spec=st["spec"])
        dt = time.perf_counter() - t0
        executed = sum(e["executed"] for e in report.schedule)
        return dict(
            campaign_s=dt, cells=executed,
            values=session.store.load_cells(f"sweep{SEARCH_THREADS}"),
            frontier=list(result.meta["frontier"]),
            cost_frac=report.spent / report.exhaustive_units)

    def check(self, st: dict, out: dict) -> dict:
        """Every executed cell against the recorded exhaustive grid (all
        nine workloads at every rung, so any triple is covered), and the
        found frontier against the exhaustive one."""
        recorded = load_expected(self.name)["cells"]
        values = out["values"]
        failed, problems = compare_values(
            values, {k: recorded[k] for k in values if k in recorded})
        extra = [k for k in values if k not in recorded]
        failed += len(extra)
        problems += [f"{k}: not in the recorded grid" for k in extra]
        if len(values) != out["cells"]:
            failed += abs(len(values) - out["cells"])
            problems.append(f"{len(values)} cells stored for "
                            f"{out['cells']} executed")
        plan = SweepPlan.build(SEARCH_THREADS, st["triple"])
        full = {c.key: recorded[c.key] for c in plan.cells()}
        golden = assemble_sweep(plan, full, st["session"].machine)
        coverage = eps_coverage(golden.meta["frontier"], out["frontier"],
                                SEARCH_EPS)
        return {"attempted": out["cells"], "failed": failed,
                "problems": problems,
                "sim": {"search_eps_coverage": coverage,
                        "search_cost_frac": out["cost_frac"]}}

    def close(self, st: dict) -> None:
        st["session"].close()

    def record(self) -> dict:
        """Every rung of the exhaustive 8-thread grid, all nine workloads."""
        rungs = self.rungs()
        base = default_config(SEARCH_SCALE, engine="reference")
        values: dict = {}
        with Session(config=base, configs=rung_configs(base, rungs),
                     jobs=jobs()) as s:
            for rung in rungs:
                s.sweep(SEARCH_THREADS, list(WORKLOAD_ORDER), config=rung.tag)
                values.update(s.grid(f"sweep{SEARCH_THREADS}").values)
        return values


WORKLOADS = {w.name: w for w in (Paper(), MatrixBatch(), SearchQueue())}
