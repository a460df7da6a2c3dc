"""Experiment definitions: one (cells, assembly) pair per paper artifact.

Each paper table/figure is an :class:`ExperimentDef`: a *grid builder*
producing the independent :class:`~repro.eval.runner.Cell` simulations
it needs, plus a *pure assembly* function turning measured cell values
into the artifact's rows/series (same workloads, same scheme sets, same
derived percentages as the paper).  DESIGN.md section 7 is the index;
the ``benchmarks/`` directory wraps each artifact for
``pytest-benchmark``.

Execution lives elsewhere: :class:`repro.eval.api.Session` is the one
entry point that binds machine(s), :class:`~repro.sim.SimConfig`, a
result store and ``jobs`` once and runs any experiment (or all of them,
or a :mod:`~repro.eval.sweep` campaign) through the same verbs.
Derived artifacts (fig11/fig12 join fig10 with the static cost model)
declare their dependency via :attr:`ExperimentDef.uses`, and the
session's result cache makes the reuse automatic — no special-cased
plumbing between experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.arch import paper_machine
from repro.cost import csmt_parallel, csmt_serial, scheme_cost, smt_serial
from repro.eval.result import ExperimentResult
from repro.eval.runner import Cell, GridResult, run_cells
from repro.kernels import SUITE
from repro.merge import FIG10_GROUPS, PAPER_SCHEMES, distinct_semantics, get_scheme
from repro.sim import SimConfig
from repro.workloads import TABLE2, WORKLOAD_ORDER

__all__ = [
    "EXPERIMENT_DEFS",
    "ExperimentDef",
    "SIM_EXPERIMENTS",
    "cell_factory",
    "default_config",
    "experiment_cells",
    # re-exported as the session's grid executor: repro.eval.api calls
    # ``experiments.run_cells`` so tests can stub grid execution here.
    "run_cells",
]


def default_config(scale: float = 1.0, engine: str = "fast") -> SimConfig:
    """The standard scaled-down run (paper: 100M instrs, 1M slices).

    ``scale`` multiplies quota, timeslice *and* warmup together
    (:meth:`~repro.sim.SimConfig.scaled`), so the 1:10
    warmup:measurement ratio holds at every scale — ``scale=0.04``
    warms 80 instructions before an 800-instruction measurement.
    ``engine`` picks the simulation engine for every cell of every grid
    ('fast' by default; 'reference' runs the executable specification —
    same statistics, more wall-clock).
    """
    return SimConfig(instr_limit=20_000, timeslice=4_000,
                     warmup_instrs=2_000, engine=engine).scaled(scale)


def cell_factory(experiment: str, machine_tag: str = "",
                 config_tag: str = "") -> Callable[..., Cell]:
    """A :class:`Cell` constructor with experiment + identity tags baked in.

    Grid builders and assemblers receive one of these instead of raw
    ``Cell(...)`` calls, so the same definition runs unchanged on the
    default machine ("" tags, historical cell keys) or on any tagged
    machine/config variant of a multi-machine session.
    """
    def cell(kind: str, target: str, scheme: str,
             variant: str = "base") -> Cell:
        return Cell(experiment, kind, target, scheme, variant,
                    machine=machine_tag, config=config_tag)
    return cell


@dataclass(frozen=True)
class ExperimentDef:
    """One paper artifact: grid decomposition + pure assembly.

    Exactly one of three shapes:

    * **grid** — ``build_cells(cell, **kw)`` returns the simulation
      cells and ``assemble(grid, cell, config, machine, **kw)`` joins
      the measured values into the artifact (``cell`` is a
      :func:`cell_factory` closure carrying the experiment id and any
      machine/config tags);
    * **derived** — ``uses`` names another experiment whose *result*
      this artifact joins with static data via ``derive(base, machine)``
      (fig11/fig12 over fig10);
    * **static** — no simulation; the runner is looked up in
      ``_STATIC_RUNNERS`` at call time.

    ``description`` is the one-line summary ``repro-eval run --list``
    prints next to the grid size.
    """

    name: str
    build_cells: Callable | None = None
    assemble: Callable | None = None
    uses: str | None = None
    derive: Callable | None = None
    static: bool = False
    description: str = ""


# ----------------------------------------------------------------------
# Table 1 - benchmark characterization
# ----------------------------------------------------------------------
def _cells_table1(cell) -> list[Cell]:
    return [cell("bench", spec.name, "ST", variant)
            for spec in SUITE for variant in ("base", "perfect")]


def _assemble_table1(grid, cell, config, machine) -> ExperimentResult:
    rows = []
    for spec in SUITE:
        ipcr = grid[cell("bench", spec.name, "ST", "base")]
        ipcp = grid[cell("bench", spec.name, "ST", "perfect")]
        rows.append((spec.name, spec.ilp_class, round(ipcr, 2), round(ipcp, 2),
                     spec.paper_ipcr, spec.paper_ipcp))
    return ExperimentResult(
        experiment="table1",
        title="Benchmarks: measured vs paper IPC (real / perfect memory)",
        columns=["benchmark", "ILP", "IPCr", "IPCp", "paper IPCr", "paper IPCp"],
        rows=rows,
        notes=["classification bands (by IPCp): L < 1.6 <= M < 3.0 <= H"],
    )


def _static_table2(machine=None) -> ExperimentResult:
    rows = [(name, *TABLE2[name]) for name in WORKLOAD_ORDER]
    return ExperimentResult(
        experiment="table2",
        title="Workload configurations",
        columns=["ILP Comb", "Thread 0", "Thread 1", "Thread 2", "Thread 3"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# Figure 4 - SMT scaling with hardware thread count
# ----------------------------------------------------------------------
_FIG4_SCHEMES = [("Single-thread", "ST"), ("2-Thread", "1S"),
                 ("4-Thread", "3SSS")]


def _cells_fig4(cell) -> list[Cell]:
    return [cell("workload", wl, scheme)
            for wl in WORKLOAD_ORDER for _label, scheme in _FIG4_SCHEMES]


def _assemble_fig4(grid, cell, config, machine) -> ExperimentResult:
    sums = {label: 0.0 for label, _s in _FIG4_SCHEMES}
    per_wl = []
    for wl in WORKLOAD_ORDER:
        row = [wl]
        for label, scheme in _FIG4_SCHEMES:
            ipc = grid[cell("workload", wl, scheme)]
            sums[label] += ipc
            row.append(round(ipc, 2))
        per_wl.append(tuple(row))
    n = len(WORKLOAD_ORDER)
    avg = tuple(["Average"] + [round(sums[label] / n, 2)
                               for label, _ in _FIG4_SCHEMES])
    rows = per_wl + [avg]
    gain = sums["4-Thread"] / sums["2-Thread"] - 1 if sums["2-Thread"] else 0
    return ExperimentResult(
        experiment="fig4",
        title="SMT performance vs hardware thread count",
        columns=["workload", "Single-thread", "2-Thread", "4-Thread"],
        rows=rows,
        notes=[
            f"4-thread over 2-thread average gain: {gain * 100:.0f}% "
            f"(paper: 61%)"
        ],
        meta={"gain_4t_over_2t": gain},
    )


# ----------------------------------------------------------------------
# Figure 5 - merge control cost vs thread count
# ----------------------------------------------------------------------
def _static_fig5(machine=None, max_threads: int = 8) -> ExperimentResult:
    machine = machine or paper_machine()
    m = machine.n_clusters
    rows = []
    for n in range(2, max_threads + 1):
        sl = csmt_serial(n, m)
        pl = csmt_parallel(n, m)
        sm = smt_serial(n, m)
        rows.append((n, sl.transistors, pl.transistors, sm.transistors,
                     sl.gate_delays, pl.gate_delays, sm.gate_delays))
    return ExperimentResult(
        experiment="fig5",
        title="Thread merge control cost vs number of threads",
        columns=["threads", "CSMT SL trans", "CSMT PL trans", "SMT trans",
                 "CSMT SL delay", "CSMT PL delay", "SMT delay"],
        rows=rows,
        notes=[
            "5a shapes: CSMT SL linear, CSMT PL exponential, SMT linear "
            "with a large constant; PL crosses SMT between 5 and 8 threads",
            "5b shapes: CSMT delays far below SMT at every thread count",
        ],
    )


# ----------------------------------------------------------------------
# Figure 6 - SMT advantage over CSMT (4 threads)
# ----------------------------------------------------------------------
def _cells_fig6(cell) -> list[Cell]:
    return [cell("workload", wl, scheme)
            for wl in WORKLOAD_ORDER for scheme in ("3SSS", "3CCC")]


def _assemble_fig6(grid, cell, config, machine) -> ExperimentResult:
    rows = []
    total = 0.0
    for wl in WORKLOAD_ORDER:
        smt = grid[cell("workload", wl, "3SSS")]
        csmt = grid[cell("workload", wl, "3CCC")]
        diff = (smt / csmt - 1) * 100 if csmt else 0.0
        total += diff
        rows.append((wl, round(smt, 2), round(csmt, 2), round(diff, 1)))
    rows.append(("Average", "", "", round(total / len(WORKLOAD_ORDER), 1)))
    return ExperimentResult(
        experiment="fig6",
        title="SMT performance advantage over CSMT (4 threads)",
        columns=["workload", "SMT IPC", "CSMT IPC", "difference %"],
        rows=rows,
        notes=["paper: 27% average, up to 58% (LLHH)"],
        meta={"avg_diff_pct": total / len(WORKLOAD_ORDER)},
    )


# ----------------------------------------------------------------------
# Figure 9 - merging hardware cost per scheme
# ----------------------------------------------------------------------
def _static_fig9(machine=None) -> ExperimentResult:
    machine = machine or paper_machine()
    rows = []
    fig9_order = PAPER_SCHEMES[:3] + ["1S"] + PAPER_SCHEMES[3:]
    for name in fig9_order:
        c = scheme_cost(get_scheme(name), machine.n_clusters)
        rows.append((name, c.transistors, c.gate_delays,
                     c.n_smt_blocks, c.n_csmt_blocks))
    return ExperimentResult(
        experiment="fig9",
        title="Merging hardware cost per scheme",
        columns=["scheme", "transistors", "gate delays", "#SMT", "#CSMT"],
        rows=rows,
        notes=[
            "transistors are dominated by the number of SMT blocks "
            "(paper, Section 4.2)",
            "2SC3/3SCC/2SC delays are close to 1S; pure-CSMT schemes are "
            "cheapest and fastest",
        ],
    )


# ----------------------------------------------------------------------
# Figure 10 - per-workload performance of every scheme
# ----------------------------------------------------------------------
def _fig10_groups(schemes=None) -> dict:
    return distinct_semantics(schemes or (["1S"] + PAPER_SCHEMES))


def _cells_fig10(cell, schemes=None) -> list[Cell]:
    return [cell("workload", wl, canon)
            for wl in WORKLOAD_ORDER for canon in _fig10_groups(schemes)]


def _assemble_fig10(grid, cell, config, machine,
                    schemes=None) -> ExperimentResult:
    groups = _fig10_groups(schemes)
    labels = {canon: ",".join(names) for canon, names in groups.items()}
    ipc: dict[str, dict[str, float]] = {c: {} for c in groups}
    for wl in WORKLOAD_ORDER:
        for canon in groups:
            ipc[canon][wl] = grid[cell("workload", wl, canon)]
    order = sorted(groups, key=lambda c: sum(ipc[c].values()))
    columns = ["scheme(s)"] + list(WORKLOAD_ORDER) + ["Average"]
    rows = []
    for canon in order:
        vals = [ipc[canon][wl] for wl in WORKLOAD_ORDER]
        rows.append((labels[canon], *[round(v, 2) for v in vals],
                     round(sum(vals) / len(vals), 2)))
    return ExperimentResult(
        experiment="fig10",
        title="Merging schemes performance (IPC per workload)",
        columns=columns,
        rows=rows,
        notes=[
            "paper fig10 plots the same series; groups "
            + "; ".join("/".join(g) for g in FIG10_GROUPS if len(g) > 1)
            + " perform within 1% of each other in the paper",
        ],
        meta={"avg_ipc": {labels[c]: sum(ipc[c].values()) / len(WORKLOAD_ORDER)
                          for c in order}},
    )


def _fig10_averages(fig10: ExperimentResult) -> dict:
    """scheme name -> average IPC, expanded to individual scheme names."""
    out = {}
    for label, avg in fig10.meta["avg_ipc"].items():
        for name in label.split(","):
            out[name] = avg
    return out


# ----------------------------------------------------------------------
# Figures 11 / 12 - performance vs cost scatter
# ----------------------------------------------------------------------
def _scatter(experiment: str, title: str, cost_field: str,
             fig10: ExperimentResult, machine) -> ExperimentResult:
    avgs = _fig10_averages(fig10)
    rows = []
    for name in ["1S"] + PAPER_SCHEMES:
        if name not in avgs:
            continue
        c = scheme_cost(get_scheme(name), machine.n_clusters)
        cost = getattr(c, cost_field)
        rows.append((name, round(avgs[name], 2), cost))
    rows.sort(key=lambda r: r[1])
    return ExperimentResult(
        experiment=experiment,
        title=title,
        columns=["scheme", "avg IPC", cost_field],
        rows=rows,
        notes=["paper highlights 2SC3/3SCC as the performance-per-cost "
               "sweet spot; 3SSC as the best higher-cost point"],
    )


def _derive_fig11(fig10: ExperimentResult, machine) -> ExperimentResult:
    return _scatter("fig11", "Performance vs transistors incurred",
                    "transistors", fig10, machine)


def _derive_fig12(fig10: ExperimentResult, machine) -> ExperimentResult:
    return _scatter("fig12", "Performance vs gate delays",
                    "gate_delays", fig10, machine)


# ----------------------------------------------------------------------
# The experiment registry
# ----------------------------------------------------------------------
#: experiment id -> definition; :class:`repro.eval.api.Session` executes
#: these (the sole dispatch table — the CLI routes through a session).
EXPERIMENT_DEFS: dict[str, ExperimentDef] = {
    "table1": ExperimentDef(
        "table1", build_cells=_cells_table1, assemble=_assemble_table1,
        description="IPCr (real caches) and IPCp (perfect) per benchmark, "
                    "single thread."),
    "table2": ExperimentDef(
        "table2", static=True,
        description="The workload configurations (static)."),
    "fig4": ExperimentDef(
        "fig4", build_cells=_cells_fig4, assemble=_assemble_fig4,
        description="Average SMT IPC on 1-, 2- and 4-thread processors."),
    "fig5": ExperimentDef(
        "fig5", static=True,
        description="Transistors (5a) and gate delays (5b) for SMT / "
                    "CSMT SL / CSMT PL."),
    "fig6": ExperimentDef(
        "fig6", build_cells=_cells_fig6, assemble=_assemble_fig6,
        description="Per-workload % IPC advantage of 4-thread SMT over "
                    "4-thread CSMT."),
    "fig9": ExperimentDef(
        "fig9", static=True,
        description="Transistors + gate delays for all 16 schemes of "
                    "Figure 9."),
    "fig10": ExperimentDef(
        "fig10", build_cells=_cells_fig10, assemble=_assemble_fig10,
        description="IPC of every scheme on every Table 2 workload."),
    "fig11": ExperimentDef(
        "fig11", uses="fig10", derive=_derive_fig11,
        description="Average IPC vs transistors for every scheme."),
    "fig12": ExperimentDef(
        "fig12", uses="fig10", derive=_derive_fig12,
        description="Average IPC vs gate delays for every scheme."),
}

#: experiments that simulate (and therefore accept config/jobs/store).
SIM_EXPERIMENTS = frozenset(
    {"table1", "fig4", "fig6", "fig10", "fig11", "fig12"})

#: static experiments, normalized to one ``machine -> result`` signature.
#: Looked up at *call* time (sessions included) so tests can stub them.
_STATIC_RUNNERS = {
    "table2": _static_table2,
    "fig5": _static_fig5,
    "fig9": _static_fig9,
}


def experiment_cells(name: str, machine_tag: str = "") -> list[Cell] | None:
    """The simulation grid of an experiment (None if it has none);
    ``machine_tag`` stamps the cells as :meth:`Session.run` would for
    ``machine=tag`` (derived experiments yield their base's grid)."""
    defn = EXPERIMENT_DEFS.get(name)
    if defn is None:
        return None
    if defn.uses:
        defn = EXPERIMENT_DEFS[defn.uses]
    if defn.build_cells is None:
        return None
    return defn.build_cells(cell_factory(defn.name, machine_tag))
