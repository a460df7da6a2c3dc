"""Experiment harness regenerating every paper table and figure.

:class:`~repro.eval.api.Session` is the entry point: it binds
machine(s), config, result store and jobs once, and runs every
experiment, sweep and guided search through the same verbs.
"""

from repro.eval.experiments import (
    EXPERIMENT_DEFS,
    SIM_EXPERIMENTS,
    ExperimentDef,
    cell_factory,
    default_config,
    experiment_cells,
)
from repro.eval.api import Session
from repro.eval.evaluator import (
    DEFAULT_RUNGS,
    EvalReport,
    Evaluator,
    FidelityRung,
    rung_configs,
    rungs_from_spec,
)
from repro.eval.backends import (
    DirectoryBackend,
    QueueBackend,
    SQLiteBackend,
    StoreBackend,
    open_backend,
    parse_store_url,
)
from repro.eval.queue import (
    CampaignSpec,
    QueueStatus,
    WorkerReport,
    init_queue,
    queue_status,
    reset_failed,
    run_worker,
)
from repro.eval.pareto import (
    DesignPoint,
    design_points,
    frontier_neighborhood,
    pareto_frontier,
    recommend,
)
from repro.eval.result import ExperimentResult, render_table
from repro.eval.search import (
    SearchReport,
    mutate_names,
    run_search,
    search_experiment_id,
)
from repro.eval.scaling import (
    MatrixResult,
    budget_recommendations,
    frontier_map,
    machine_axes,
    rank_stability,
    rank_stability_from_ipc,
    scaling_report,
    variant_label,
)
from repro.eval.runner import Cell, GridResult, run_cell, run_cells, shard_cells
from repro.eval.store import (
    RunStore,
    StoreMismatchError,
    config_fingerprint,
    merge_runs,
    open_store,
)
from repro.eval.sweep import (
    CandidateGroup,
    SweepPlan,
    assemble_sweep,
    candidate_table,
    enumerate_candidates,
    enumerate_names,
    sweep_cells,
    sweep_experiment_id,
    sweep_threads,
)

__all__ = [
    "CampaignSpec",
    "CandidateGroup",
    "Cell",
    "DEFAULT_RUNGS",
    "DesignPoint",
    "DirectoryBackend",
    "EXPERIMENT_DEFS",
    "EvalReport",
    "Evaluator",
    "ExperimentDef",
    "ExperimentResult",
    "FidelityRung",
    "GridResult",
    "MatrixResult",
    "QueueBackend",
    "QueueStatus",
    "RunStore",
    "SIM_EXPERIMENTS",
    "SQLiteBackend",
    "SearchReport",
    "Session",
    "StoreBackend",
    "StoreMismatchError",
    "SweepPlan",
    "WorkerReport",
    "assemble_sweep",
    "budget_recommendations",
    "candidate_table",
    "cell_factory",
    "config_fingerprint",
    "default_config",
    "enumerate_candidates",
    "enumerate_names",
    "experiment_cells",
    "frontier_map",
    "frontier_neighborhood",
    "init_queue",
    "machine_axes",
    "merge_runs",
    "mutate_names",
    "open_backend",
    "open_store",
    "parse_store_url",
    "queue_status",
    "rank_stability",
    "rank_stability_from_ipc",
    "reset_failed",
    "run_cell",
    "run_cells",
    "run_search",
    "run_worker",
    "rung_configs",
    "rungs_from_spec",
    "scaling_report",
    "search_experiment_id",
    "shard_cells",
    "sweep_cells",
    "sweep_experiment_id",
    "sweep_threads",
    "variant_label",
    "design_points",
    "pareto_frontier",
    "recommend",
    "render_table",
]
