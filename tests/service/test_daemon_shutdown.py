"""Daemon shutdown must wind down an in-flight run, not abandon it.

Regression: ``OperatorDaemon.close()`` used to stop only the HTTP server; a
mid-run loop kept running on its daemon thread past the daemon's lifetime.
``close()`` now asks the loop to stop at the next iteration boundary and
joins the run thread."""

import time

from repro.api.scenario import Scenario
from repro.model.node import make_working_nodes
from repro.testing import make_workload


def _long_scenario(engine="partitioned", **kwargs):
    return Scenario(
        nodes=make_working_nodes(6),
        workloads=[
            make_workload(f"job-{i}", vm_count=2, duration=1e6)
            for i in range(3)
        ],
        policy="consolidation",
        engine=engine,
        optimizer_timeout=1.0,
        max_time=1e8,
        **kwargs,
    )


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestDaemonShutdownMidRun:
    def test_close_stops_a_partitioned_run(self):
        daemon = _long_scenario(engine="partitioned").serve(
            port=0, autostart=True
        )
        daemon.start_run()
        assert _wait_for(lambda: daemon._loop is not None)
        daemon.close()
        # the run thread terminated: the loop stopped at an iteration
        # boundary and no run survives the daemon
        assert not daemon._run_thread.is_alive()
        assert daemon.state in ("completed", "failed")
        result = daemon.observer.result
        assert result is not None
        assert result.metadata.get("stopped_early") is True

    def test_close_stops_a_repair_partitioned_run(self):
        daemon = _long_scenario(engine="repair-partitioned").serve(
            port=0, autostart=True
        )
        daemon.start_run()
        assert _wait_for(lambda: daemon._loop is not None)
        daemon.close()
        assert not daemon._run_thread.is_alive()

    def test_close_without_a_run_is_still_idempotent(self):
        daemon = _long_scenario().serve(port=0, autostart=True)
        daemon.close()
        daemon.close()
        assert daemon.state == "idle"

    def test_close_racing_the_build_still_stops_the_run(self):
        daemon = _long_scenario().serve(port=0, autostart=True)
        daemon.start_run()
        # close immediately: whichever side wins the race, the run thread
        # must terminate and never leak its loop
        daemon.close()
        assert _wait_for(lambda: not daemon._run_thread.is_alive())
        assert daemon.state in ("completed", "failed")
