"""Queue campaigns: atomic claiming, crash recovery, drain identity.

The three guarantees the worker-pull queue makes (DESIGN.md §8):

* two workers claiming from one queue never double-execute a cell
  (``BEGIN IMMEDIATE`` claiming transactions);
* a worker killed mid-cell is harmless — its claim goes stale after the
  heartbeat ttl and the next claimer reclaims it;
* a drained queue is a completed run store: resuming the campaign
  through ``queue:`` yields results byte-identical to running the same
  grid serially through ``dir:``.

Backend *store* parity (round-trips, mixed-backend merge) is covered by
``tests/test_backends.py``, which parametrizes over the queue kind.
"""

import dataclasses
import threading
import time

import pytest

from repro.eval import (
    CampaignSpec,
    Session,
    StoreMismatchError,
    init_queue,
    merge_runs,
    queue_status,
    reset_failed,
    run_worker,
)
from repro.eval.backends import QueueBackend
from repro.eval.cli import main
from repro.eval.evaluator import rungs_from_spec
from repro.eval.experiments import default_config, experiment_cells
from repro.eval.runner import GridResult

#: 2-thread sweep over one workload: a 2-cell grid, the cheapest real
#: campaign (sub-second at scale 0.05).
SPEC = CampaignSpec(experiment="sweep2", scale=0.05, workloads=("LLLL",))


def _url(tmp_path, name="camp.db") -> str:
    return f"queue:{tmp_path / name}"


class _Built(Exception):
    """Carries the Session a CLI verb built out of the verb."""


def _cli_session(monkeypatch, argv) -> Session:
    """The Session ``repro-eval ARGV`` builds, captured before it runs."""
    def build(*args, **kw):
        raise _Built(Session(*args, **kw))

    monkeypatch.setattr("repro.eval.cli.Session", build)
    with pytest.raises(_Built) as built:
        main(argv)
    return built.value.args[0]


def _dummy_cells(n: int) -> dict[str, dict]:
    return {f"workload:W{i}:1S:base": {
        "experiment": "x", "kind": "workload", "target": f"W{i}",
        "scheme": "1S", "variant": "base", "machine": "", "config": ""}
        for i in range(n)}


# ----------------------------------------------------------------------
# claiming primitives (QueueBackend)
# ----------------------------------------------------------------------
class TestClaiming:
    def test_claim_is_exclusive_and_ordered(self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(3))
        keys = [backend.claim(f"w{i}", ttl=60)["key"] for i in range(3)]
        assert keys == sorted(keys)  # deterministic claim order
        assert backend.claim("w3", ttl=60) is None  # all claimed, none open
        assert backend.queue_counts()["claimed"] == 3

    def test_two_threads_never_claim_the_same_cell(self, tmp_path):
        """Each thread drains through its own connection; the union of
        their claims must partition the queue exactly."""
        path = str(tmp_path / "q.db")
        QueueBackend(path).enqueue("x", _dummy_cells(20))
        claimed: list[str] = []
        lock = threading.Lock()

        def drain(worker):
            backend = QueueBackend(path)  # sqlite: one conn per thread
            while True:
                claim = backend.claim(worker, ttl=60)
                if claim is None:
                    return
                with lock:
                    claimed.append(claim["key"])
                backend.finish(claim["experiment"], claim["key"], 1.0)

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(_dummy_cells(20))
        assert len(claimed) == len(set(claimed))  # no double-claim
        assert QueueBackend(path).queue_counts()["done"] == 20

    def test_stale_claim_is_reclaimed_with_attempt_increment(self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(1))
        first = backend.claim("crasher", ttl=10, now=100.0)
        assert first["attempt"] == 1
        # within ttl: nothing runnable for anyone else
        assert backend.claim("other", ttl=10, now=105.0) is None
        # past ttl: the abandoned cell is reclaimed
        second = backend.claim("rescuer", ttl=10, now=111.0)
        assert second["key"] == first["key"]
        assert second["attempt"] == 2
        (row,) = backend.queue_rows("claimed")
        assert row["worker"] == "rescuer"

    def test_exhausted_attempts_park_the_cell_as_failed(self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(1))
        backend.claim("w", ttl=10, now=100.0)
        assert backend.claim("w", ttl=10, max_attempts=1, now=200.0) is None
        (row,) = backend.queue_rows("failed")
        assert "heartbeat expired" in row["error"]
        # reset returns it to open with a fresh attempt budget
        assert backend.reset() == 1
        assert backend.claim("w", ttl=10, now=300.0)["attempt"] == 1

    def test_heartbeat_keeps_a_slow_worker_alive(self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(1))
        backend.claim("slow", ttl=10, now=100.0)
        backend.beat("slow", now=109.0)  # pulse just before expiry
        assert backend.claim("thief", ttl=10, now=115.0) is None

    def test_enqueue_is_idempotent_and_respects_recorded_values(
            self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        cells = _dummy_cells(3)
        assert backend.enqueue("x", cells) == 3
        assert backend.enqueue("x", cells) == 0  # re-init adds nothing
        # a key whose value is already stored starts out done
        done_key = sorted(cells)[0]
        backend.save_cells("x", {done_key: 1.0})
        other = QueueBackend(str(tmp_path / "q2.db"))
        other.save_cells("x", {done_key: 1.0})
        assert other.enqueue("x", cells) == 3
        counts = other.queue_counts()
        assert counts == {"open": 2, "claimed": 0, "done": 1, "failed": 0}

    def test_reset_stale_ttl_releases_dead_claims(self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(2))
        backend.claim("dead", ttl=60)
        assert backend.reset(stale_ttl=0) == 1
        assert backend.queue_counts()["open"] == 2


# ----------------------------------------------------------------------
# campaign spec
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_round_trip(self):
        spec = CampaignSpec(experiment="sweep3", scale=0.5,
                            workloads=["LLHH", "HHHH"],
                            machines=["2c4w", "4c4w"])
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("argv, spec", [
        (["matrix", "-e", "sweep2", "--machines", "2c4w,4c4w",
          "--workloads", "LLLL", "--scale", "0.05"],
         CampaignSpec(experiment="sweep2", scale=0.05, workloads=("LLLL",),
                      machines=("2c4w", "4c4w"))),
        (["search", "-t", "2", "--workloads", "LLLL", "--scale", "0.05",
          "--rungs", "0.5,1"],
         CampaignSpec(experiment="sweep2", scale=0.05, workloads=("LLLL",),
                      kind="search", configs=(("f0.5", 0.5),))),
    ], ids=["matrix", "search"])
    def test_sweep_cells_match_the_session_grid(self, argv, spec,
                                                 monkeypatch):
        """One campaign context: the spec's session is the session the
        CLI verb builds (same store fingerprint), and the spec's grid is
        the grid that session runs."""
        session = _cli_session(monkeypatch, argv)
        assert spec.session().fingerprint() == session.fingerprint()
        ran = []

        def run_cells(cells, config, machine, jobs=1, store=None):
            ran.extend(cells)
            return GridResult(cells[0].experiment,
                              {c.key: 1.0 for c in cells})

        monkeypatch.setattr("repro.eval.experiments.run_cells", run_cells)
        if spec.kind == "search":
            # nothing is enqueued up front (cells arrive rung by rung);
            # an unlimited search runs the campaign-kind twin's grid
            assert spec.cells() == []
            session.search(2, ["LLLL"], rungs=rungs_from_spec("0.5,1"))
            spec = dataclasses.replace(spec, kind="campaign")
        else:
            session.run_matrix("sweep2", workloads=["LLLL"])
        assert spec.cells() == ran

    def test_experiment_cells_match_the_grid_layer(self):
        spec = CampaignSpec(experiment="fig6", scale=0.05)
        assert spec.cells() == experiment_cells("fig6")
        # derived experiments queue their dependency's grid
        derived = CampaignSpec(experiment="fig11", scale=0.05)
        assert derived.cells() == experiment_cells("fig11")

    def test_matrix_campaign_tags_cells_per_machine(self):
        spec = CampaignSpec(experiment="sweep2", workloads=("LLLL",),
                            machines=("2c4w", "4c4w"))
        tags = {cell.machine for cell in spec.cells()}
        assert tags == {"2c4w", "4c4w"}
        assert len(spec.cells()) == 2 * len(SPEC.cells())
        assert set(spec.session().fingerprint()["machines"]) == \
            {"2c4w", "4c4w"}

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            CampaignSpec(experiment="fig99")
        with pytest.raises(ValueError, match="workloads only apply"):
            CampaignSpec(experiment="fig10", workloads=("LLLL",))
        with pytest.raises(ValueError):
            CampaignSpec(experiment="sweep2", machines=("9z9z",))
        with pytest.raises(ValueError, match="static"):
            CampaignSpec(experiment="fig5").cells()
        # rungs: the tag rule, scale range and uniqueness
        for configs, match in (((("a:b", 0.5),), "delimiters"),
                               ((("f2", 2.0),), "scale"),
                               ((("f", 0.5), ("f", 0.25)), "duplicate")):
            with pytest.raises(ValueError, match=match):
                CampaignSpec(experiment="sweep2", kind="search",
                             configs=configs)


# ----------------------------------------------------------------------
# init / worker / status / reset (the orchestration layer)
# ----------------------------------------------------------------------
class TestWorkerLoop:
    def test_init_is_idempotent_and_rejects_a_different_campaign(
            self, tmp_path):
        url = _url(tmp_path)
        assert init_queue(url, SPEC).enqueued == 2
        assert init_queue(url, SPEC).enqueued == 0
        other = CampaignSpec(experiment="sweep2", scale=0.05,
                             workloads=("HHHH",))
        with pytest.raises(ValueError, match="different campaign"):
            init_queue(url, other)

    def test_worker_requires_an_initialized_queue(self, tmp_path):
        with pytest.raises(ValueError, match="queue-init"):
            run_worker(_url(tmp_path))

    def test_queue_verbs_reject_non_queue_stores(self, tmp_path):
        with pytest.raises(ValueError, match="not a queue store"):
            queue_status(f"sqlite:{tmp_path / 's.db'}")

    def test_worker_drains_and_reports(self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        executed = []
        monkeypatch.setattr(
            "repro.eval.queue.run_cell_detailed",
            lambda cell, config, machine: executed.append(cell.key) or (1.0, {}))
        report = run_worker(url, worker_id="w1")
        assert report.executed == 2 and report.failed == 0
        assert sorted(executed) == sorted(c.key for c in SPEC.cells())
        status = queue_status(url)
        assert status.drained
        assert status.counts["done"] == 2

    def test_concurrent_workers_never_double_execute(
            self, tmp_path, monkeypatch):
        """Two in-process workers (own backend connections each) drain a
        20-cell queue; every cell must execute exactly once."""
        spec = CampaignSpec(experiment="sweep2", scale=0.05)  # 18 cells
        url = _url(tmp_path)
        init_queue(url, spec)
        executed: list[str] = []
        lock = threading.Lock()

        def fake_run_cell_detailed(cell, config, machine):
            with lock:
                executed.append(cell.key)
            time.sleep(0.002)  # encourage interleaving
            return 1.0, {}

        monkeypatch.setattr("repro.eval.queue.run_cell_detailed", fake_run_cell_detailed)
        reports = []
        threads = [threading.Thread(
            target=lambda i=i: reports.append(
                run_worker(url, worker_id=f"w{i}", poll=0.01)))
            for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(executed) == len(set(executed)) == len(spec.cells())
        assert sum(r.executed for r in reports) == len(spec.cells())
        assert queue_status(url).drained

    def test_killed_worker_is_reclaimed_after_heartbeat_expiry(
            self, tmp_path, monkeypatch):
        """A claim without a pulse (worker kill -9'd mid-cell) must be
        picked up by the next worker once the ttl passes."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        # the "crashed" worker claims a cell and never finishes it
        crashed = QueueBackend(str(tmp_path / "camp.db"))
        abandoned = crashed.claim("crashed", ttl=300)
        assert abandoned is not None
        crashed.close()
        monkeypatch.setattr("repro.eval.queue.run_cell_detailed",
                            lambda cell, config, machine: (1.0, {}))
        time.sleep(0.06)
        report = run_worker(url, worker_id="rescuer", ttl=0.05, poll=0.01)
        assert report.executed == 2
        assert report.reclaimed == 1
        assert abandoned["key"] in report.keys
        assert queue_status(url).drained

    def test_execution_error_parks_cell_and_reset_failed_recovers(
            self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        bad_key = sorted(c.key for c in SPEC.cells())[0]

        def flaky(cell, config, machine):
            if cell.key == bad_key:
                raise RuntimeError("transient blowup")
            return 1.0, {}

        monkeypatch.setattr("repro.eval.queue.run_cell_detailed", flaky)
        report = run_worker(url, worker_id="w1")
        assert report.executed == 1 and report.failed == 1
        status = queue_status(url)
        assert not status.drained
        (row,) = status.failed
        assert "transient blowup" in row["error"]
        # operator fixes the cause, reopens, re-drains
        monkeypatch.setattr("repro.eval.queue.run_cell_detailed",
                            lambda cell, config, machine: (1.0, {}))
        assert reset_failed(url) == 1
        assert run_worker(url, worker_id="w2").executed == 1
        assert queue_status(url).drained

    def test_transient_error_releases_claim_for_retry(
            self, tmp_path, monkeypatch):
        """An exception below the attempt cap must *release* the claim
        (open for retry, attempt count kept) instead of parking the
        cell as failed — one worker alone re-drains a flaky queue."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        attempts: dict[str, int] = {}

        def flaky(cell, config, machine):
            n = attempts[cell.key] = attempts.get(cell.key, 0) + 1
            if n == 1:
                raise RuntimeError("transient blowup")
            return 1.0, {}

        monkeypatch.setattr("repro.eval.queue.run_cell_detailed", flaky)
        lines: list[str] = []
        report = run_worker(url, worker_id="w1", poll=0.01,
                            progress=lines.append)
        assert report.executed == 2 and report.failed == 0
        assert report.released == 2  # each cell bounced exactly once
        assert all(n == 2 for n in attempts.values())
        assert queue_status(url).drained
        assert any("released for retry" in ln and "transient blowup" in ln
                   for ln in lines)
        assert any("[attempt 2]" in ln for ln in lines)

    def test_released_cells_still_park_at_the_attempt_cap(
            self, tmp_path, monkeypatch):
        """Release-for-retry must not make a poison cell immortal: the
        kept attempt count parks it once the cap is burned."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        bad_key = sorted(c.key for c in SPEC.cells())[0]

        def poison(cell, config, machine):
            if cell.key == bad_key:
                raise RuntimeError("deterministic blowup")
            return 1.0, {}

        monkeypatch.setattr("repro.eval.queue.run_cell_detailed", poison)
        report = run_worker(url, worker_id="w1", poll=0.01,
                            max_attempts=3)
        assert report.executed == 1 and report.failed == 1
        assert report.released == 2  # attempts 1 and 2 bounced
        (row,) = queue_status(url).failed
        assert row["key"] == bad_key and row["attempt"] == 3

    def test_no_wait_worker_leaves_in_flight_cells_to_their_owner(
            self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        holder = QueueBackend(str(tmp_path / "camp.db"))
        held = holder.claim("other-worker", ttl=300)
        monkeypatch.setattr("repro.eval.queue.run_cell_detailed",
                            lambda cell, config, machine: (1.0, {}))
        report = run_worker(url, worker_id="w1", wait=False)
        assert report.executed == 1  # only the remaining open cell
        assert held["key"] not in report.keys
        assert queue_status(url).counts["claimed"] == 1

    def test_max_cells_bounds_a_worker(self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        monkeypatch.setattr("repro.eval.queue.run_cell_detailed",
                            lambda cell, config, machine: (1.0, {}))
        assert run_worker(url, max_cells=1).executed == 1
        assert queue_status(url).counts["open"] == 1

    def test_follow_worker_only_exits_on_its_own_search_done(
            self, tmp_path):
        """Regression: a stale ``search_status: done`` left by an
        *earlier* search (search2) must not make a --follow worker of
        the current campaign (sweep4 -> search4) bail out at an idle
        gap; only its own experiment's marker ends the follow."""
        url = _url(tmp_path)
        spec = CampaignSpec(experiment="sweep4", scale=0.05,
                            kind="search", workloads=("LLLL",))
        init_queue(url, spec)
        backend = QueueBackend(str(tmp_path / "camp.db"))
        manifest = backend.load_manifest() or {"experiments": {}}
        manifest.setdefault("experiments", {})["search2"] = {
            "search_status": "done"}
        backend.save_manifest(manifest)

        reports = []
        t = threading.Thread(target=lambda: reports.append(
            run_worker(url, worker_id="w1", follow=True, poll=0.01)))
        t.start()
        t.join(timeout=0.4)
        assert t.is_alive()  # still following despite the stale marker
        manifest = backend.load_manifest()
        manifest["experiments"]["search4"] = {"search_status": "done"}
        backend.save_manifest(manifest)
        t.join(timeout=10)
        assert not t.is_alive()
        assert reports and reports[0].executed == 0


# ----------------------------------------------------------------------
# drain identity + migration (the acceptance path)
# ----------------------------------------------------------------------
class TestDrainIdentity:
    def test_drained_queue_equals_serial_directory_run(self, tmp_path):
        """The headline guarantee: N workers through queue: =
        one process through dir:, byte-for-byte."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        report = run_worker(url)  # real simulations (2 cells, tiny)
        assert report.executed == 2
        config = default_config(0.05)
        queue_session = Session(config=config, store=url)
        via_queue = queue_session.sweep(2, ["LLLL"])
        assert queue_session.last_grid.executed == 0
        assert queue_session.last_grid.reused == 2
        serial = Session(config=config,
                         store=f"dir:{tmp_path / 'ref'}").sweep(2, ["LLLL"])
        assert via_queue.to_json() == serial.to_json()

    def test_batch_campaign_drain_equals_serial_directory_run(
            self, tmp_path):
        """``--engine batch`` workers claim cell groups and advance
        them in one lockstep simulation; the drained queue must still
        be byte-identical to a serial ``dir:`` run (which also proves
        cross-engine identity — the store fingerprint is deliberately
        engine-agnostic)."""
        pytest.importorskip("numpy")
        spec = CampaignSpec(experiment="sweep2", scale=0.05,
                            workloads=("LLLL",), engine="batch")
        url = _url(tmp_path)
        init_queue(url, spec)
        report = run_worker(url, worker_id="bw")  # one grouped claim
        assert report.executed == 2 and report.failed == 0
        assert queue_status(url).drained
        config = default_config(0.05)
        queue_session = Session(config=config, store=url)
        via_queue = queue_session.sweep(2, ["LLLL"])
        assert queue_session.last_grid.executed == 0
        assert queue_session.last_grid.reused == 2
        serial = Session(config=config,
                         store=f"dir:{tmp_path / 'ref'}").sweep(2, ["LLLL"])
        assert via_queue.to_json() == serial.to_json()

    def test_fingerprint_guard_rejects_mismatched_resume(self, tmp_path):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        with pytest.raises(StoreMismatchError):
            Session(config=default_config(0.10), store=url)

    def test_migrating_a_directory_run_marks_cells_done(self, tmp_path):
        """OPERATIONS.md §6: init the queue, merge the old run in, only
        the remainder stays open."""
        config = default_config(0.05)
        old = f"dir:{tmp_path / 'old'}"
        Session(config=config, store=old).sweep(2, ["LLLL"])
        spec = CampaignSpec(experiment="sweep2", scale=0.05,
                            workloads=("LLLL", "HHHH"))  # superset grid
        url = _url(tmp_path)
        init_queue(url, spec)
        merge_runs(url, [old])
        counts = queue_status(url).counts
        assert counts["done"] == 2 and counts["open"] == 2
        # draining simulates only the remainder
        assert run_worker(url).executed == 2


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class TestQueueCli:
    def _init(self, tmp_path, capsys) -> str:
        from repro.eval.cli import main
        url = _url(tmp_path)
        assert main(["queue-init", url, "-e", "sweep2", "--scale", "0.05",
                     "--workloads", "LLLL"]) == 0
        out = capsys.readouterr().out
        assert "enqueued 2 new cells" in out
        return url

    def test_init_worker_status_cycle(self, tmp_path, capsys):
        from repro.eval.cli import main
        url = self._init(tmp_path, capsys)
        assert main(["worker", url, "--id", "w1"]) == 0
        assert "2 cells executed" in capsys.readouterr().out
        assert main(["queue-status", url]) == 0
        out = capsys.readouterr().out
        assert "done 2 (100%)" in out and "queue drained" in out
        # the campaign's own verb assembles the artifact with 0 sims
        assert main(["sweep", "-t", "2", "--workloads", "LLLL",
                     "--scale", "0.05", "--store", url]) == 0
        assert "0 simulated" in capsys.readouterr().out

    def test_bare_path_means_queue_url(self, tmp_path, capsys):
        from repro.eval.cli import main
        self._init(tmp_path, capsys)
        assert main(["queue-status", str(tmp_path / "camp.db")]) == 0
        assert "open 2" in capsys.readouterr().out

    def test_reset_failed_verb(self, tmp_path, capsys):
        from repro.eval.cli import main
        url = self._init(tmp_path, capsys)
        assert main(["reset-failed", url]) == 0
        assert "reopened 0 cells" in capsys.readouterr().out

    def test_wrong_scheme_is_a_clean_error(self, tmp_path, capsys):
        from repro.eval.cli import main
        assert main(["queue-status", f"sqlite:{tmp_path / 's.db'}"]) == 1
        err = capsys.readouterr().err
        assert "queue:PATH.db" in err and "Traceback" not in err

    def test_unknown_experiment_is_a_clean_error(self, tmp_path, capsys):
        from repro.eval.cli import main
        assert main(["queue-init", _url(tmp_path), "-e", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err
