"""The evaluation layer: price and run (candidate, workload, fidelity).

The plan layer (:class:`~repro.eval.sweep.SweepPlan`) says *what could
be measured*; this module is the service that measures any subset of it
at a chosen **fidelity** and remembers the answer.  Fidelity is a named
:meth:`~repro.sim.config.SimConfig.scaled` rung — measurement-correct
short simulations (PR 5) — registered as a Session config variant, so
the rung's tag travels in every cell's identity
(:class:`~repro.eval.runner.Cell.key` ``...%f0.05``) exactly like the
machine/config tags of a matrix campaign:

* low- and full-fidelity values coexist in one store without collision,
* every evaluated point resumes and audits like a sweep cell,
* the full-fidelity rung is the *empty* tag, so a search's final
  measurements share their store keys with the exhaustive ``sweepN``
  campaign — bit-identical joins, and free reuse in either direction.

The one sharp edge is integer truncation: ``SimConfig.scaled`` floors
its fields, so ``base.scaled(a).scaled(b)`` is **not**
``base.scaled(a*b)``.  Every consumer of a rung must therefore derive
its config as ``base.scaled(rung.scale)`` from the *same* base —
:func:`rung_configs` builds the Session registry that way (queue
workers included: :meth:`~repro.eval.queue.CampaignSpec.session` goes
through it), and :class:`Evaluator` refuses a session whose registered
configs disagree.

:mod:`~repro.eval.search` drives this service; nothing in here knows
about promotion rules or budgets beyond pricing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.runner import Cell
from repro.eval.store import config_fingerprint

__all__ = [
    "DEFAULT_RUNGS",
    "EvalReport",
    "Evaluator",
    "FidelityRung",
    "rung_configs",
    "rungs_from_spec",
]


def _rung_tag(scale: float) -> str:
    """Canonical config tag of a fidelity scale ("" = full fidelity)."""
    return "" if scale == 1.0 else f"f{scale:g}"


@dataclass(frozen=True)
class FidelityRung:
    """One fidelity level: a config tag and its simulation scale.

    ``tag`` is stamped into cell identity as the config tag; the full-
    fidelity rung *must* use the empty tag so its cells alias the
    untagged exhaustive-sweep cells (that aliasing is what makes a
    full-budget search bit-identical to the sweep, and lets either
    reuse the other's store).
    """

    tag: str
    scale: float

    def __post_init__(self):
        if not 0 < self.scale <= 1.0:
            raise ValueError(f"rung scale must be in (0, 1], "
                             f"got {self.scale}")
        if (self.scale == 1.0) != (self.tag == ""):
            raise ValueError(
                f"rung ({self.tag!r}, {self.scale}): full fidelity "
                f"(scale 1.0) must use the empty tag and vice versa — "
                f"the empty tag is what aliases search cells with "
                f"exhaustive sweep cells")
        Cell.check_tag("rung", self.tag)

    @classmethod
    def for_scale(cls, scale: float) -> "FidelityRung":
        return cls(_rung_tag(scale), scale)


#: the default successive-halving ladder: a 20x-cheap screening rung, a
#: 4x-cheap confirmation rung, and the full-fidelity rung.
DEFAULT_RUNGS = (FidelityRung.for_scale(0.05),
                 FidelityRung.for_scale(0.25),
                 FidelityRung.for_scale(1.0))


def rungs_from_spec(spec) -> tuple:
    """Parse a rung ladder from ``"0.05,0.25,1"`` (or a float iterable).

    Scales must be strictly increasing and end at 1.0 — a search always
    finishes at full fidelity, otherwise its frontier would not be
    comparable to (or reusable by) the exhaustive sweep.
    """
    if isinstance(spec, str):
        parts = [p for p in spec.split(",") if p.strip()]
        scales = [float(p) for p in parts]
    else:
        scales = [float(s) for s in spec]
    if not scales:
        raise ValueError("empty rung spec")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError(f"rung scales must be strictly increasing, "
                         f"got {scales}")
    if scales[-1] != 1.0:
        raise ValueError(f"the last rung must be full fidelity "
                         f"(scale 1.0), got {scales}")
    return tuple(FidelityRung.for_scale(s) for s in scales)


def rung_configs(base, rungs=DEFAULT_RUNGS) -> dict:
    """The Session config registry of a rung ladder.

    One named variant per *reduced* rung, each derived as
    ``base.scaled(rung.scale)`` (see the module docstring for why it
    must be exactly that); the full-fidelity rung is the session's base
    config itself and needs no registry entry::

        session = Session(config=base, configs=rung_configs(base),
                          store="sqlite:search.db")
    """
    return {r.tag: base.scaled(r.scale) for r in rungs if r.tag}


@dataclass
class EvalReport:
    """What one :meth:`Evaluator.evaluate` call measured.

    ``ipc`` is per-candidate average IPC over the plan's workloads at
    this rung; ``values`` the raw per-cell values (keyed by cell key);
    ``cost`` the request's price in full-fidelity candidate-evaluation
    units (what search budgets are denominated in).
    """

    rung: FidelityRung
    ipc: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    executed: int = 0
    reused: int = 0
    cost: float = 0.0


class Evaluator:
    """The fidelity-aware evaluation service over one plan.

    Routes ``(candidate, workload, rung)`` requests through an existing
    :class:`~repro.eval.api.Session` — its store, cell cache, jobs and
    machine registry — by expanding them to tagged cells of the plan's
    ``sweepN`` experiment.  Construction validates that every reduced
    rung is registered on the session *and* equals
    ``session.config.scaled(rung.scale)``, so a store fingerprinted by
    that session can never mix inconsistently-derived rungs.

    With ``queue=`` (a :class:`~repro.eval.backends.QueueBackend`, set
    up by :func:`~repro.eval.search.run_search` for fleet searches),
    evaluation is routed through the worker-pull queue instead: cells
    are enqueued, this process drains alongside any fleet workers, and
    values are read back from the shared store.
    """

    def __init__(self, session, plan, rungs=DEFAULT_RUNGS, *,
                 machine_tag: str = "", queue=None):
        self.session = session
        self.plan = plan
        self.rungs = tuple(rungs)
        self.machine_tag = machine_tag
        self.queue = queue
        session.machine_for(machine_tag)  # unknown tags raise early
        want = rung_configs(session.config, self.rungs)
        for tag, cfg in want.items():
            have = session.configs.get(tag)
            if have is None:
                raise ValueError(
                    f"rung {tag!r} is not registered on this session; "
                    f"construct it with configs=rung_configs(base, rungs)")
            if config_fingerprint(have) != config_fingerprint(cfg):
                raise ValueError(
                    f"session config {tag!r} does not equal "
                    f"base.scaled({dict(self._scales())[tag]}); rung "
                    f"configs must derive from the session base via "
                    f"rung_configs() (SimConfig.scaled truncates, so "
                    f"any other derivation diverges)")

    def _scales(self):
        return [(r.tag, r.scale) for r in self.rungs]

    def rung(self, tag: str) -> FidelityRung:
        """Resolve a rung by tag ("" = full fidelity)."""
        for r in self.rungs:
            if r.tag == tag:
                return r
        raise KeyError(f"unknown rung {tag!r}; this evaluator has "
                       f"{[r.tag for r in self.rungs]}")

    def cells(self, candidates, rung: FidelityRung) -> list:
        """The tagged cells of ``candidates`` x plan workloads at a rung."""
        sub = self.plan.subset(candidates)  # unknown candidates raise
        return sub.cells(machine_tag=self.machine_tag,
                         config_tag=rung.tag)

    def price(self, candidates, rung: FidelityRung) -> float:
        """Cost of the request in full-fidelity candidate-evaluations.

        Evaluating one candidate over the whole workload set at full
        fidelity costs exactly 1.0; a reduced rung costs its scale.
        The exhaustive sweep therefore costs ``len(plan.groups)``, which
        is what search budget fractions are relative to.
        """
        return len(list(candidates)) * rung.scale

    def evaluate(self, candidates, rung: FidelityRung) -> EvalReport:
        """Measure ``candidates`` at ``rung`` (store-resumable).

        Cells already recorded in the session/store are reused, not
        re-simulated — the report's ``cost`` still prices the full
        request, because search budget accounting must be a pure
        function of the schedule for resume to replay deterministically.
        """
        candidates = list(candidates)
        cells = self.cells(candidates, rung)
        if self.queue is not None:
            values, executed, reused = self._drain_queue(cells)
        else:
            grid = self.session.run_grid(cells)
            values = dict(grid.values)
            executed, reused = grid.executed, grid.reused
        ipc = {}
        for cand in candidates:
            vals = [values[self.plan.cell(
                wl, cand, machine_tag=self.machine_tag,
                config_tag=rung.tag).key] for wl in self.plan.workloads]
            ipc[cand] = sum(vals) / len(vals)
        return EvalReport(rung=rung, ipc=ipc, values=values,
                          executed=executed, reused=reused,
                          cost=self.price(candidates, rung))

    def _drain_queue(self, cells):
        """Fleet path: enqueue, drain alongside the fleet, read back."""
        import dataclasses

        from repro.eval.queue import run_worker

        experiment = self.plan.experiment
        recorded = set(self.queue.load_cells(experiment))
        keyed = {c.key: dataclasses.asdict(c) for c in cells}
        self.queue.enqueue(experiment, keyed)
        report = run_worker(self.queue, wait=True)
        stored = self.queue.load_cells(experiment)
        missing = [k for k in keyed if k not in stored]
        if missing:
            raise RuntimeError(
                f"queue drained but {len(missing)} cell(s) have no "
                f"recorded value (first: {missing[0]!r}); check "
                f"`repro-eval queue-status` for failed cells and "
                f"`repro-eval reset-failed` to retry them")
        values = {k: stored[k] for k in keyed}
        reused = sum(k in recorded for k in keyed)
        return values, report.executed, reused
