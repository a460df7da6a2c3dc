"""The paper's qualitative claims, asserted on the regenerated artifacts.

Three sources, none of them new simulation at paper scale:

* the simulated figures (table1, fig4, fig6, fig10) are read from the
  golden corpus (``tests/golden/*.json``), which ``test_golden.py``
  pins byte for byte under every engine — so these checks cost no
  simulation at all;
* the cost figures (fig5, fig9) are static, and fig11/fig12 are derived
  from the golden fig10 exactly as a ``Session`` derives them;
* the ablations, the 3-thread sweep and the cross-machine matrix run at
  their own small configs (``CLAIM_CONFIG`` and ``SMOKE_CONFIG``).

Table 1 accuracy against the paper's IPC columns is pinned at full
scale (``default_config(1.0)``, seed 1), about half a second of
simulation.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.arch import machine_family, paper_machine
from repro.compiler import CompilerOptions, compile_kernel
from repro.eval import Session, default_config
from repro.eval.experiments import EXPERIMENT_DEFS
from repro.eval.result import ExperimentResult
from repro.eval.scaling import rank_stability, scaling_report
from repro.eval.sweep import enumerate_candidates, enumerate_names
from repro.kernels import SUITE, by_name, compile_spec
from repro.merge import PAPER_SCHEMES
from repro.sim import SimConfig, run_workload
from repro.workloads import workload_programs
from tests.conftest import build_saxpy

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: the ablation / sweep / matrix scale: 3,000 measured instructions.
CLAIM_CONFIG = SimConfig(instr_limit=3_000, timeslice=1_000,
                         warmup_instrs=800)

#: the smallest run that still simulates every mechanism once.
SMOKE_CONFIG = SimConfig(instr_limit=1_200, timeslice=600, warmup_instrs=300)

#: the mean relative Table 1 error at full scale, seed 1 (0.09127).
TABLE1_IPC_ERR_MAX = 0.0913


def golden(name: str) -> ExperimentResult:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as f:
        return ExperimentResult(**json.load(f))


def derived(name: str) -> ExperimentResult:
    """fig11/fig12 joined from the golden fig10, as a Session does."""
    return EXPERIMENT_DEFS[name].derive(golden("fig10"), paper_machine())


def fig10_averages() -> dict:
    """scheme name -> the golden fig10 average IPC (rounded column)."""
    avgs = {}
    for row in golden("fig10").rows:
        for name in row[0].split(","):
            avgs[name] = row[-1]
    return avgs


def table1_ipc_err(rows) -> float:
    """Mean relative error of IPCr and IPCp against the paper's columns."""
    errs = []
    for _name, _ilp, ipcr, ipcp, paper_r, paper_p in rows:
        errs.append(abs(ipcr - paper_r) / paper_r)
        errs.append(abs(ipcp - paper_p) / paper_p)
    return sum(errs) / len(errs)


def assert_h_class_width(rows) -> None:
    for _name, cls, _ipcr, ipcp, _pr, _pp in rows:
        if cls == "H":
            assert ipcp >= 3.0, _name


# ----------------------------------------------------------------------
# Table 1 - benchmark characterization
# ----------------------------------------------------------------------
class TestTable1:
    def test_h_class_keeps_its_width(self):
        assert_h_class_width(golden("table1").rows)

    def test_every_benchmark_simulates(self):
        rows = golden("table1").rows
        assert [r[0] for r in rows] == [s.name for s in SUITE]
        for name, _cls, ipcr, ipcp, _pr, _pp in rows:
            assert ipcr > 0 and ipcp > 0, name

    def test_full_scale_accuracy_is_pinned(self):
        result = Session(config=default_config(1.0)).run("table1")
        assert table1_ipc_err(result.rows) <= TABLE1_IPC_ERR_MAX
        assert_h_class_width(result.rows)


# ----------------------------------------------------------------------
# Figure 4 - SMT scaling; Figure 6 - SMT vs CSMT
# ----------------------------------------------------------------------
class TestFig4And6:
    def test_fig4_more_threads_help(self):
        fig4 = golden("fig4")
        avg = fig4.rows[-1]
        assert avg[0] == "Average"
        single, two, four = avg[1], avg[2], avg[3]
        assert single < two < four
        # the paper's 61% gain; shape check: clearly substantial
        assert fig4.meta["gain_4t_over_2t"] > 0.2
        for row in fig4.rows:
            assert min(row[1:]) > 0, row[0]

    def test_fig6_smt_beats_csmt_everywhere(self):
        fig6 = golden("fig6")
        for wl, smt, csmt, diff in fig6.rows[:-1]:
            assert smt > 0 and csmt > 0, wl
            assert diff > 0, wl
        assert fig6.meta["avg_diff_pct"] > 10


# ----------------------------------------------------------------------
# Figure 5 / Figure 9 - the static cost model
# ----------------------------------------------------------------------
class TestCostFigures:
    def test_fig5_crossover_and_delays(self):
        rows = {r[0]: r for r in Session().run("fig5").rows}
        assert sorted(rows) == list(range(2, 9))
        # 5a: CSMT PL crosses SMT between 5 and 8 threads
        assert rows[4][2] < rows[4][3]
        assert rows[8][2] > rows[8][3]
        for n, row in rows.items():
            assert min(row[1:4]) > 0, n
            # 5b: CSMT delays below SMT at every point
            assert row[4] < row[6] and row[5] < row[6], n

    def test_fig9_section_4_2(self):
        fig9 = Session().run("fig9")
        rows = fig9.row_map()
        assert len(PAPER_SCHEMES) == 15
        assert sorted(rows) == sorted(["1S"] + PAPER_SCHEMES)
        assert min(r[1] for r in fig9.rows) > 0
        assert rows["2SC3"][1] <= 1.25 * rows["1S"][1]
        assert abs(rows["2SC3"][2] - rows["1S"][2]) <= 2
        assert rows["3SSS"][1] == max(r[1] for r in fig9.rows)
        for pure in ("C4", "3CCC", "2CC"):
            assert rows[pure][1] < rows["1S"][1] / 3


# ----------------------------------------------------------------------
# Figure 10 - scheme performance; Figures 11/12 - performance vs cost
# ----------------------------------------------------------------------
class TestSchemePerformance:
    def test_fig10_every_cell_simulates(self):
        for row in golden("fig10").rows:
            assert min(row[1:]) > 0, row[0]

    def test_fig10_extremes_and_ordering(self):
        avgs = fig10_averages()
        # extremes of the figure (3% tolerance at the reduced scale)
        assert avgs["3SSS"] >= 0.97 * max(avgs.values())
        assert avgs["1S"] <= 1.03 * min(avgs.values())
        # the headline hybrid sits between CSMT and SMT
        assert avgs["3CCC"] < avgs["2SC3"] < avgs["3SSS"]

    def test_fig10_abstract_deltas(self):
        """The abstract's 2SC3 comparisons, as ratios (paper: +14% over
        4-thread CSMT, +45% over 1S, -11% vs 4-thread SMT)."""
        avgs = fig10_averages()
        assert avgs["2SC3"] / avgs["3CCC"] > 1.05
        assert avgs["2SC3"] / avgs["1S"] > 1.25
        assert 0.80 < avgs["2SC3"] / avgs["3SSS"] < 1.0

    def test_fig11_pareto_story(self):
        fig11 = derived("fig11")
        rows = fig11.row_map()
        assert sorted(rows) == sorted(["1S"] + PAPER_SCHEMES)
        # 2SC3 ~ 1S cost with much higher IPC...
        assert rows["2SC3"][2] <= 1.25 * rows["1S"][2]
        assert rows["2SC3"][1] > 1.2 * rows["1S"][1]
        # ... while 3SSS pays ~3x the transistors for the last ~10%
        assert rows["3SSS"][2] > 2.5 * rows["2SC3"][2]

    def test_fig12_delay_story(self):
        fig12 = derived("fig12")
        rows = fig12.row_map()
        assert sorted(rows) == sorted(["1S"] + PAPER_SCHEMES)
        # 2SC3 keeps 1S-class delay; 3SSS pays the deepest pipeline
        assert abs(rows["2SC3"][2] - rows["1S"][2]) <= 2
        assert rows["3SSS"][2] == max(r[2] for r in fig12.rows)
        # 3SSC is the fastest of the double-SMT designs (Section 5.2)
        assert rows["3SSC"][2] < rows["3SCS"][2]
        assert rows["3SSC"][2] < rows["3CSS"][2]


# ----------------------------------------------------------------------
# Ablations - cluster assignment, priority rotation, unrolling
# ----------------------------------------------------------------------
class TestAblations:
    def test_bug_minimizes_iteration_latency(self, machine):
        """BUG must beat round-robin on loop latency and copy count.

        Raw ops-per-cycle rewards round-robin's copy bloat (inter-cluster
        copies are issued operations, here as on the real Lx), so the
        honest compiler-quality metrics are cycles per loop iteration
        and the number of copies needed.
        """
        for kernel in ("colorspace", "idct"):
            progs = {
                policy: compile_spec(by_name(kernel), machine,
                                     CompilerOptions(cluster_policy=policy))
                for policy in ("bug", "roundrobin")
            }
            cycles = {p: max(prog.meta["block_cycles"].values())
                      for p, prog in progs.items()}
            copies = {p: prog.meta["xcopies"] for p, prog in progs.items()}
            assert cycles["bug"] < cycles["roundrobin"], kernel
            assert copies["bug"] < copies["roundrobin"] / 3, kernel

    def test_clustering_beats_single_cluster_for_wide_code(self, machine):
        wide = compile_spec(by_name("colorspace"), machine,
                            CompilerOptions(cluster_policy="bug"))
        narrow = compile_spec(by_name("colorspace"), machine,
                              CompilerOptions(cluster_policy="single"))
        assert wide.static_ipc() > 1.5 * narrow.static_ipc()

    def test_rotation_balances_thread_progress(self, machine):
        """Fixed priority starves late ports; rotating the leading thread
        (the CSMT papers' policy, the simulator's default) keeps
        per-thread progress balanced."""

        def imbalance(res):
            counts = sorted(t.issued_instrs for t in res.threads)
            return counts[-1] / max(1, counts[0])

        programs = workload_programs("MMMM", machine)
        rot = run_workload(programs, "3CCC", CLAIM_CONFIG)
        fixed = run_workload(programs, "3CCC", dataclasses.replace(
            CLAIM_CONFIG, rotate_priority=False))
        assert imbalance(rot) < imbalance(fixed)

    def test_unroll_scales_static_ilp(self, machine):
        ipcs = {u: compile_kernel(build_saxpy(), machine,
                                  unroll_hints={"loop": u}).static_ipc()
                for u in (1, 2, 4, 8)}
        assert ipcs[8] > ipcs[4] > ipcs[2] > ipcs[1]

    def test_iv_split_required_for_width(self, machine):
        with_split = compile_kernel(build_saxpy(), machine,
                                    CompilerOptions(iv_split=True),
                                    unroll_hints={"loop": 8})
        without = compile_kernel(build_saxpy(), machine,
                                 CompilerOptions(iv_split=False),
                                 unroll_hints={"loop": 8})
        assert with_split.static_ipc() >= without.static_ipc()

    def test_unroll_scale_moves_colorspace(self, machine):
        half = compile_spec(by_name("colorspace"), machine,
                            CompilerOptions(unroll_scale=0.5))
        full = compile_spec(by_name("colorspace"), machine)
        assert full.static_ipc() > half.static_ipc()

    @pytest.mark.parametrize("policy", ["bug", "roundrobin", "single"])
    def test_every_cluster_policy_simulates(self, machine, policy):
        opts = CompilerOptions(cluster_policy=policy)
        programs = [compile_spec(by_name(n), machine, opts)
                    for n in ("mcf", "bzip2", "blowfish", "gsmencode")]
        assert run_workload(programs, "3CCC", SMOKE_CONFIG).ipc > 0

    @pytest.mark.parametrize("rotate", [True, False],
                             ids=["rotating", "fixed"])
    def test_both_priority_policies_simulate(self, machine, rotate):
        config = dataclasses.replace(SMOKE_CONFIG, rotate_priority=rotate)
        programs = workload_programs("LLMM", machine)
        assert run_workload(programs, "2SC3", config).ipc > 0

    @pytest.mark.parametrize("unroll", [1, 4, 8])
    def test_unrolled_saxpy_simulates(self, machine, unroll):
        prog = compile_kernel(build_saxpy(), machine,
                              unroll_hints={"loop": unroll})
        assert run_workload([prog], "ST", SMOKE_CONFIG).ipc > 0


# ----------------------------------------------------------------------
# The 3-thread design space and the cross-machine matrix
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sweep3(machine):
    return Session(machine, config=CLAIM_CONFIG).sweep(
        3, ["LLLL", "LLHH", "HHHH"])


@pytest.fixture(scope="module")
def matrix2():
    family = machine_family(clusters=(2, 4), widths=(4,))
    session = Session(machines=family, config=CLAIM_CONFIG)
    return session.run_matrix("sweep2", machines=sorted(family),
                              workloads=["LLLL", "LLHH", "HHHH"])


class TestDesignSpace:
    def test_sweep3_smt_wins_ipc_csmt_wins_cost(self, sweep3):
        rows = {row[0]: row for row in sweep3.rows}
        assert rows["2SS@3"][1] >= rows["2CC@3"][1]
        assert rows["C3"][2] < rows["2SS@3"][2]
        frontier = {p["scheme"] for p in sweep3.meta["frontier"]}
        assert "C3" in frontier or "2CC@3" in frontier

    def test_three_port_cell_simulates(self, machine):
        programs = workload_programs("LLMH", machine)
        assert run_workload(programs, "2SC@3", SMOKE_CONFIG).ipc > 0

    def test_eight_thread_space_has_610_names(self):
        groups = enumerate_candidates(8)
        assert sum(len(g.members) for g in groups) == 610
        assert len(enumerate_names(8)) == 610

    def test_matrix_frontiers_cost_sorted(self, matrix2):
        report = scaling_report(matrix2, budget_transistors=4_000)
        assert len(report.rows) == 2
        # every variant's frontier is non-empty and cost-sorted
        for points in report.meta["frontiers"].values():
            assert points
            costs = [p["transistors"] for p in points]
            assert costs == sorted(costs)
        assert report.meta["rank_stability"]["variants"] == ["2c4w", "4c4w"]

    def test_matrix_rank_stability(self, matrix2):
        stability = rank_stability(matrix2)
        assert set(stability["ranks"]) >= {"1S", "C2"}
