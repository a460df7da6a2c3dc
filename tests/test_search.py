"""Guided-search tests: fidelity rungs, the evaluation service, the
grammar mutator, and run_search end to end (tiny scales)."""

import dataclasses

import pytest

from repro.eval import (
    DEFAULT_RUNGS,
    CampaignSpec,
    Evaluator,
    FidelityRung,
    Session,
    default_config,
    mutate_names,
    run_search,
    rung_configs,
    rungs_from_spec,
    sweep_experiment_id,
)
from repro.eval.sweep import SweepPlan
from repro.merge import parse_scheme, semantic_key
from repro.sim import SimConfig

TINY = SimConfig(instr_limit=600, timeslice=300, warmup_instrs=150)


def tiny_session(store=None, rungs=DEFAULT_RUNGS, **kw):
    return Session(config=TINY, configs=rung_configs(TINY, rungs),
                   store=store, **kw)


class TestRungs:
    def test_full_fidelity_must_be_the_empty_tag(self):
        """The empty tag is what aliases search cells with exhaustive
        sweep cells — both couplings are enforced."""
        with pytest.raises(ValueError, match="empty tag"):
            FidelityRung("f1", 1.0)
        with pytest.raises(ValueError, match="empty tag"):
            FidelityRung("", 0.5)

    def test_tag_delimiters_rejected(self):
        for bad in ("f:1", "f@1", "f%1"):
            with pytest.raises(ValueError, match="delimiters"):
                FidelityRung(bad, 0.5)

    def test_for_scale_canonical_tags(self):
        assert FidelityRung.for_scale(0.05).tag == "f0.05"
        assert FidelityRung.for_scale(1.0).tag == ""

    def test_rungs_from_spec_parses_default_ladder(self):
        assert rungs_from_spec("0.05,0.25,1") == DEFAULT_RUNGS
        assert rungs_from_spec([0.05, 0.25, 1.0]) == DEFAULT_RUNGS

    def test_rungs_from_spec_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            rungs_from_spec("0.25,0.05,1")
        with pytest.raises(ValueError, match="full fidelity"):
            rungs_from_spec("0.05,0.25")
        with pytest.raises(ValueError, match="empty"):
            rungs_from_spec("")

    def test_rung_configs_derive_from_base(self):
        """SimConfig.scaled truncates, so the registry must be exactly
        base.scaled(rung.scale) — no full-fidelity entry."""
        configs = rung_configs(TINY)
        assert set(configs) == {"f0.05", "f0.25"}
        assert configs["f0.05"] == TINY.scaled(0.05)


class TestEvaluator:
    PLAN = SweepPlan.build(2, ["LLLL"])

    def test_requires_registered_rungs(self):
        with pytest.raises(ValueError, match="not registered"):
            Evaluator(Session(config=TINY), self.PLAN)

    def test_rejects_misderived_rung_config(self):
        session = Session(config=TINY,
                          configs={"f0.05": TINY.scaled(0.25),
                                   "f0.25": TINY.scaled(0.25)})
        with pytest.raises(ValueError, match="derive"):
            Evaluator(session, self.PLAN)

    def test_price_in_full_fidelity_units(self):
        ev = Evaluator(tiny_session(), self.PLAN)
        full, screen = DEFAULT_RUNGS[-1], DEFAULT_RUNGS[0]
        canons = [g.canonical for g in self.PLAN.groups]
        assert ev.price(canons, full) == len(canons)
        assert ev.price(canons[:2], screen) == 2 * 0.05

    def test_unknown_rung_and_candidate_rejected(self):
        ev = Evaluator(tiny_session(), self.PLAN)
        with pytest.raises(KeyError, match="unknown rung"):
            ev.rung("f0.5")
        with pytest.raises(Exception):
            ev.cells(["definitely-not-a-scheme"], DEFAULT_RUNGS[0])

    def test_fidelity_tag_travels_in_cell_keys(self, tmp_path):
        session = tiny_session(store=str(tmp_path / "run"))
        ev = Evaluator(session, self.PLAN)
        canons = [g.canonical for g in self.PLAN.groups]
        ev.evaluate(canons[:1], DEFAULT_RUNGS[0])
        keys = set(session.store.load_cells("sweep2"))
        assert keys and all(k.endswith("%f0.05") for k in keys)

    def test_full_rung_aliases_exhaustive_sweep_cells(self, tmp_path):
        """A sweep's cells satisfy a later full-fidelity evaluation
        byte-for-byte — nothing re-simulates."""
        session = tiny_session(store=str(tmp_path / "run"))
        sweep = session.sweep(2, ["LLLL"])
        ev = Evaluator(session, self.PLAN)
        canons = [g.canonical for g in self.PLAN.groups]
        rep = ev.evaluate(canons, DEFAULT_RUNGS[-1])
        assert rep.executed == 0
        assert rep.reused == len(self.PLAN.cells())
        assert sweep.meta["frontier"]  # the sweep actually ran


class TestMutator:
    def test_known_neighborhood_of_3sss(self):
        assert mutate_names("3SSS") == (
            "2C3S", "2SC3", "3CSS", "3SCS", "3SSC")

    def test_single_block_flips(self):
        assert mutate_names("1S") == ("1C",)
        assert mutate_names("1C") == ("1S",)

    @pytest.mark.parametrize("seed", ["3SSS", "2SC", "C4", "2SS",
                                      "3CCC", "2SC3"])
    def test_ports_preserved_and_seed_excluded(self, seed):
        n = parse_scheme(seed).n_ports
        neighbors = mutate_names(seed)
        assert neighbors  # every paper scheme has moves
        for m in neighbors:
            assert parse_scheme(m).n_ports == n, (seed, m)
            assert m != seed
            assert semantic_key(m) != semantic_key(seed), (seed, m)

    def test_neighbors_are_deduplicated_and_sorted(self):
        for seed in ("3SSS", "2SC", "C4"):
            out = mutate_names(seed)
            assert list(out) == sorted(set(out))

    def test_unrecognized_name_has_no_moves(self):
        assert mutate_names("ST", 1) == ()


class TestRunSearch:
    def test_exhaustive_budget_is_bit_identical_to_sweep(self, machine=None):
        sweep = tiny_session().sweep(2, ["LLLL"])
        result, report = run_search(tiny_session(), 2, ["LLLL"])
        assert report.mode == "exhaustive"
        assert result.rows == sweep.rows
        assert result.meta["frontier"] == sweep.meta["frontier"]
        assert result.experiment == "search2"

    def test_capped_budget_screens_on_reduced_rungs(self):
        result, report = run_search(tiny_session(), 3, ["LLLL"],
                                    budget=0.5)
        assert report.mode == "halving"
        assert report.spent <= report.budget_units + 1e-9
        assert report.full_fraction <= 0.5
        assert report.schedule[0]["rung"] == "f0.05"
        assert report.schedule[-1]["rung"] == "full"
        assert result.meta["search"]["mode"] == "halving"
        # promotion bookkeeping is reported, never silent
        screened = report.schedule[0]
        assert {"frontier", "neighborhood",
                "promoted"} <= set(screened)

    def test_validation(self):
        session = tiny_session()
        with pytest.raises(ValueError, match="budget must be > 0"):
            run_search(session, 2, ["LLLL"], budget=0.0)
        with pytest.raises(ValueError, match="full fidelity"):
            run_search(session, 2, ["LLLL"],
                       rungs=(FidelityRung.for_scale(0.05),))
        with pytest.raises(ValueError, match="reduced rung"):
            run_search(session, 2, ["LLLL"], budget=0.5,
                       rungs=(FidelityRung.for_scale(1.0),))

    def test_search_resumes_from_store_without_resimulating(self,
                                                            tmp_path):
        """Kill-and-reinvoke: the second run replays the schedule with
        every cell reused from the store."""
        url = str(tmp_path / "run")
        first, rep1 = run_search(tiny_session(store=url), 3, ["LLLL"],
                                 budget=0.9)
        assert any(e["executed"] for e in rep1.schedule)
        second, rep2 = run_search(tiny_session(store=url), 3, ["LLLL"],
                                  budget=0.9)
        assert all(e["executed"] == 0 for e in rep2.schedule)
        # the replayed schedule and frontier are identical; only the
        # executed/reused audit counts differ
        assert second.rows == first.rows
        assert second.meta["frontier"] == first.meta["frontier"]
        assert rep2.evaluated_full == rep1.evaluated_full
        assert rep2.spent == rep1.spent  # pricing is schedule-pure

    def test_evolve_mode_discovers_through_the_grammar(self):
        result, report = run_search(tiny_session(), 3, ["LLLL"],
                                    budget=0.9, evolve=True, seed=1,
                                    population=3, generations=2)
        assert report.mode == "evolve"
        assert any(e["round"].startswith("gen") for e in report.schedule)
        assert result.meta["frontier"]

    def test_evolve_final_generation_pool_is_fully_measured(self):
        """Regression: at 4 threads the grammar is rich enough that the
        last generation still finds fresh mutants — those must not join
        the pool unmeasured (rung 0 reuses the evolve phase's low-rung
        IPC and used to KeyError on them)."""
        result, report = run_search(tiny_session(), 4, ["LLLL"],
                                    budget=0.9, evolve=True,
                                    population=4, generations=2)
        gens = [e for e in report.schedule
                if e["round"].startswith("gen")]
        rung0 = next(e for e in report.schedule if e["round"] == "rung0")
        # the reused rung-0 pool is exactly what the generations measured
        assert rung0["candidates"] == sum(e["candidates"] for e in gens)
        assert rung0["executed"] == 0
        assert result.meta["frontier"]

    def test_session_search_verb_saves_artifact(self, tmp_path):
        session = tiny_session(store=str(tmp_path / "run"))
        result = session.search(2, ["LLLL"], save=True)
        loaded = session.store.load_artifact("search2")
        assert loaded is not None
        assert loaded.rows == result.rows


class TestQueueSearch:
    def test_queue_spec_requires_queue_store(self, tmp_path):
        session = tiny_session(store=str(tmp_path / "run"))
        spec = CampaignSpec(experiment=sweep_experiment_id(2),
                            kind="search", workloads=("LLLL",))
        with pytest.raises(ValueError, match="queue:"):
            run_search(session, 2, ["LLLL"], queue_spec=spec)

    def test_spec_session_mismatch_rejected_before_any_write(
            self, tmp_path):
        """Regression: a session whose config is not exactly
        ``default_config(spec.scale, spec.engine)`` (here: seed 2) used
        to fail inside init_queue with a store error blaming --scale.
        The coordinator now names the differing fields up front and
        leaves the queue untouched."""
        base = dataclasses.replace(default_config(0.04), seed=2)
        rungs = rungs_from_spec("0.5,1")
        url = f"queue:{tmp_path / 'q.db'}"
        session = Session(config=base, configs=rung_configs(base, rungs),
                          store=url)
        spec = CampaignSpec(experiment=sweep_experiment_id(2), scale=0.04,
                            kind="search", workloads=("LLLL",),
                            configs=(("f0.5", 0.5),))
        with pytest.raises(ValueError, match=r"differs in: config\.seed, "
                                             r"configs\.f0\.5\.seed\)"):
            run_search(session, 2, ["LLLL"], rungs=rungs, queue_spec=spec)
        backend = session.store.backend
        assert backend.load_campaign() is None
        assert sum(backend.queue_counts().values()) == 0

    def test_coordinator_drains_inline_and_marks_done(self, tmp_path):
        """A search coordinator on a queue store is self-sufficient:
        it enqueues each rung and drains alongside (here: without) a
        fleet, then flips the manifest to done."""
        base = default_config(0.04)
        url = f"queue:{tmp_path / 'q.db'}"
        session = Session(config=base, configs=rung_configs(base),
                          store=url)
        spec = CampaignSpec(
            experiment=sweep_experiment_id(2), scale=0.04,
            kind="search", workloads=("LLLL",),
            configs=tuple((r.tag, r.scale)
                          for r in DEFAULT_RUNGS if r.tag))
        result, report = run_search(session, 2, ["LLLL"],
                                    queue_spec=spec)
        assert report.mode == "exhaustive"
        assert len(session.store.load_cells("sweep2")) == \
            len(SweepPlan.build(2, ["LLLL"]).cells())
        status = session.store.manifest()["experiments"]["search2"]
        assert status["search_status"] == "done"
        assert result.meta["frontier"]


class TestCli:
    def test_search_command_runs(self, tmp_path, capsys):
        from repro.eval.cli import main

        out_dir = str(tmp_path / "run")
        assert main(["search", "-t", "2", "--workloads", "LLLL",
                     "--scale", "0.04", "--store", out_dir]) == 0
        out = capsys.readouterr().out
        assert "search" in out and "frontier" in out.lower()

    def test_search_thread_bounds_enforced(self, capsys):
        from repro.eval.cli import main

        assert main(["search", "-t", "9"]) == 1
        assert "1..8" in capsys.readouterr().err
