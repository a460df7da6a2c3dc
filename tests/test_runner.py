"""Grid runner, run store, compile cache and CLI orchestration tests."""

import json

import pytest

from repro.arch import paper_machine
from repro.compiler.options import CompilerOptions
from repro.eval import (
    Cell,
    RunStore,
    Session,
    StoreMismatchError,
    run_cells,
)
from repro.eval.cli import main
from repro.kernels import SUITE
from repro.kernels.cache import ProgramCache, cache_key
from repro.sim import SimConfig

TINY = SimConfig(instr_limit=800, timeslice=400, warmup_instrs=200)


@pytest.fixture(scope="module")
def machine():
    return paper_machine()


def _fingerprint(config, machine) -> dict:
    return Session(machine, config=config).fingerprint()


class TestCell:
    def test_key_is_stable(self):
        c = Cell("fig4", "workload", "LLHH", "3SSS")
        assert c.key == "workload:LLHH:3SSS:base"

    def test_rejects_unknown_kind_and_variant(self):
        with pytest.raises(ValueError):
            Cell("x", "nope", "LLHH", "3SSS")
        with pytest.raises(ValueError):
            Cell("x", "workload", "LLHH", "3SSS", variant="nope")

    def test_grid_rejects_mixed_experiments(self, machine):
        cells = [Cell("a", "bench", "mcf", "ST"),
                 Cell("b", "bench", "mcf", "ST")]
        with pytest.raises(ValueError, match="mixes"):
            run_cells(cells, TINY, machine)

    def test_grid_rejects_duplicates(self, machine):
        cells = [Cell("a", "bench", "mcf", "ST"),
                 Cell("a", "bench", "mcf", "ST")]
        with pytest.raises(ValueError, match="duplicate"):
            run_cells(cells, TINY, machine)


class TestParallelEqualsSerial:
    def test_fig4_bitwise_identical(self, machine):
        serial = Session(machine=machine, config=TINY).run("fig4")
        parallel = Session(machine=machine, config=TINY,
                           jobs=2).run("fig4")
        assert serial.rows == parallel.rows
        assert serial.meta == parallel.meta

    def test_fig10_bitwise_identical(self, machine):
        serial = Session(machine=machine, config=TINY).run("fig10")
        parallel = Session(machine=machine, config=TINY,
                           jobs=2).run("fig10")
        assert serial.rows == parallel.rows
        assert serial.meta == parallel.meta


class TestResume:
    CELLS = [Cell("fig6", "workload", wl, s)
             for wl in ("LLLL", "HHHH") for s in ("3SSS", "3CCC")]

    def test_resume_skips_completed_cells(self, tmp_path, machine):
        store = RunStore.open_or_create(tmp_path / "run")
        first = run_cells(self.CELLS, TINY, machine, store=store)
        assert first.executed == 4 and first.reused == 0
        second = run_cells(self.CELLS, TINY, machine, store=store)
        assert second.executed == 0 and second.reused == 4
        assert second.values == first.values

    def test_resume_across_store_instances(self, tmp_path, machine):
        path = tmp_path / "run"
        run_cells(self.CELLS, TINY, machine,
                  store=RunStore.open_or_create(path))
        fresh = RunStore.open_or_create(path)
        again = run_cells(self.CELLS, TINY, machine, store=fresh)
        assert again.executed == 0 and again.reused == 4

    def test_partial_resume_runs_only_missing(self, tmp_path, machine):
        store = RunStore.open_or_create(tmp_path / "run")
        run_cells(self.CELLS[:2], TINY, machine, store=store)
        both = run_cells(self.CELLS, TINY, machine, store=store)
        assert both.executed == 2 and both.reused == 2

    def test_fingerprint_mismatch_rejected(self, tmp_path, machine):
        path = tmp_path / "run"
        RunStore.open_or_create(path, _fingerprint(TINY, machine))
        other = SimConfig(instr_limit=999, timeslice=333, warmup_instrs=111)
        # the error names the differing keys instead of guessing a flag
        with pytest.raises(StoreMismatchError,
                           match=r"differs in: config\.instr_limit, "
                                 r"config\.timeslice, "
                                 r"config\.warmup_instrs\)"):
            RunStore.open_or_create(path, _fingerprint(other, machine))

    def test_fingerprint_adopted_by_unstamped_directory(self, tmp_path,
                                                        machine):
        path = tmp_path / "run"
        RunStore.open_or_create(path)  # API use: no fingerprint recorded
        stamped = RunStore.open_or_create(path, _fingerprint(TINY, machine))
        assert stamped.manifest()["fingerprint"]
        other = SimConfig(instr_limit=999, timeslice=333, warmup_instrs=111)
        with pytest.raises(StoreMismatchError):
            RunStore.open_or_create(path, _fingerprint(other, machine))

    def test_manifest_records_true_executed_counts(self, tmp_path, machine):
        store = RunStore.open_or_create(tmp_path / "run")
        session = Session(machine=machine, config=TINY, store=store)
        session.run("fig6")
        recorded = store.manifest()["experiments"]["fig6"]
        assert session.last_grid.executed == 18
        assert recorded == {"cells": 18, "executed": 18, "reused": 0}


class TestRunStore:
    def test_manifest_created(self, tmp_path, machine):
        store = RunStore.open_or_create(tmp_path / "r",
                                        _fingerprint(TINY, machine))
        manifest = store.manifest()
        assert manifest["fingerprint"]["machine"] == machine.describe()

    def test_cells_roundtrip(self, tmp_path):
        store = RunStore.open_or_create(tmp_path / "r")
        store.record_cell("figX", "workload:LLLL:ST:base", 1.25)
        assert RunStore(store.path).load_cells("figX") == {
            "workload:LLLL:ST:base": 1.25}

    def test_grid_records_cell_meta(self, tmp_path, machine):
        """Executed cells leave diagnostic metadata (engine + stats)
        beside their values — resume neither needs nor re-writes it."""
        cfg = SimConfig(instr_limit=300, timeslice=150, warmup_instrs=60,
                        engine="jit")
        store = RunStore.open_or_create(tmp_path / "r")
        cells = [Cell("figX", "workload", "LLLL", s)
                 for s in ("1S", "3CCC")]
        run_cells(cells, cfg, machine, store=store)
        meta = store.load_cell_meta("figX")
        assert set(meta) == {c.key for c in cells}
        entry = meta[cells[1].key]
        assert entry["engine"] == "jit"
        assert entry["engine_stats"]["fallback_runs"] == 0
        # resumed runs execute nothing and leave the metadata alone
        again = run_cells(cells, cfg, machine, store=RunStore(store.path))
        assert again.executed == 0
        assert RunStore(store.path).load_cell_meta("figX") == meta

    def test_artifact_roundtrip(self, tmp_path, machine):
        store = RunStore.open_or_create(tmp_path / "r")
        result = Session(machine=machine).run("fig9")
        store.save_artifact(result)
        loaded = store.load_artifact("fig9")
        assert loaded.rows == result.rows
        assert store.manifest()["experiments"]["fig9"]["status"] == "done"


class TestProgramCache:
    def test_disk_cache_skips_recompilation(self, tmp_path, monkeypatch,
                                            machine):
        import repro.kernels.cache as cache_mod

        calls = []
        real = cache_mod.compile_kernel
        monkeypatch.setattr(cache_mod, "compile_kernel",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        spec = SUITE[0]
        warm = ProgramCache(str(tmp_path))
        prog1 = warm.get(spec, machine)
        assert len(calls) == 1 and warm.compiles == 1
        # fresh cache, same directory: served from disk, no recompile
        cold = ProgramCache(str(tmp_path))
        prog2 = cold.get(spec, machine)
        assert len(calls) == 1 and cold.disk_hits == 1
        assert prog1.dump() == prog2.dump()
        # memory hit on repeat
        assert cold.get(spec, machine) is prog2
        assert cold.memory_hits == 1

    def test_key_changes_with_options(self, machine):
        spec = SUITE[0]
        base = cache_key(spec, machine, CompilerOptions())
        other = cache_key(spec, machine, CompilerOptions(unroll_scale=2.0))
        assert base != other

    def test_corrupt_disk_entry_falls_back(self, tmp_path, machine):
        spec = SUITE[0]
        cache = ProgramCache(str(tmp_path))
        key = cache_key(spec, machine, CompilerOptions())
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        prog = cache.get(spec, machine)
        assert prog is not None and cache.compiles == 1


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "117" in out

    def test_out_directory_created(self, tmp_path, capsys):
        out = tmp_path / "nested" / "run"
        assert main(["-e", "fig9", "--out", str(out)]) == 0
        assert (out / "fig9.json").exists()
        assert (out / "manifest.json").exists()

    def test_runner_exception_gives_nonzero_exit(self, monkeypatch, capsys):
        from repro.eval import experiments

        def boom(machine=None):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(experiments._STATIC_RUNNERS, "fig9", boom)
        assert main(["-e", "fig9"]) == 1
        err = capsys.readouterr().err
        assert "synthetic failure" in err and "Traceback" not in err

    def test_subcommand_form_equivalent_to_legacy(self, tmp_path, capsys):
        """`repro-eval run ...` and the bare legacy flag form agree."""
        assert main(["run", "--list"]) == 0
        sub = capsys.readouterr().out
        assert main(["--list"]) == 0
        assert capsys.readouterr().out == sub

    def test_out_resume_conflict_rejected(self, tmp_path, capsys):
        """Different --out and --resume directories must error, not
        silently drop --out (the old `resume or out` behavior)."""
        assert main(["-e", "fig9", "--out", str(tmp_path / "a"),
                     "--resume", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert "conflicts" in err
        assert not (tmp_path / "a").exists()
        assert not (tmp_path / "b").exists()

    def test_out_resume_same_directory_allowed(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["-e", "fig9", "--out", run_dir,
                     "--resume", run_dir]) == 0
        assert (tmp_path / "run" / "fig9.json").exists()

    def test_scale_mismatch_on_resume_errors(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["-e", "fig9", "--out", run_dir, "--scale", "0.05"]) == 0
        assert main(["-e", "fig9", "--resume", run_dir,
                     "--scale", "0.10"]) == 1
        assert "different config" in capsys.readouterr().err

    def test_parallel_resume_cycle(self, tmp_path, capsys):
        """--jobs N equals --jobs 1, and --resume reruns zero cells."""
        run_dir = str(tmp_path / "run")
        assert main(["-e", "fig4", "--scale", "0.04", "--jobs", "2",
                     "--out", run_dir]) == 0
        first = capsys.readouterr().out
        assert "cells: 27 simulated, 0 reused" in first
        saved = json.load(open(f"{run_dir}/fig4.json"))

        assert main(["-e", "fig4", "--scale", "0.04",
                     "--resume", run_dir]) == 0
        second = capsys.readouterr().out
        assert "cells: 0 simulated, 27 reused" in second
        resumed = json.load(open(f"{run_dir}/fig4.json"))
        assert resumed["rows"] == saved["rows"]

        from repro.eval import default_config

        serial = Session(config=default_config(0.04)).run("fig4")
        assert [list(r) for r in serial.rows] == saved["rows"]

    def test_all_simulates_fig10_once(self, monkeypatch, capsys):
        """--experiment all shares one fig10 result with fig11/fig12."""
        from repro.eval import experiments

        executed = {}
        real = experiments.run_cells

        def counting(cells, config, machine=None, jobs=1, store=None):
            grid = real(cells, config, machine, jobs=jobs, store=store)
            executed[grid.experiment] = (executed.get(grid.experiment, 0)
                                         + grid.executed)
            return grid

        monkeypatch.setattr(experiments, "run_cells", counting)
        assert main(["-e", "all", "--scale", "0.04"]) == 0
        assert executed["fig10"] == 117  # once, not three times
        out = capsys.readouterr().out
        for name in ("table1", "table2", "fig4", "fig5", "fig6", "fig9",
                     "fig10", "fig11", "fig12"):
            assert f"== {name}:" in out
