"""CI smoke test for the operator daemon — everything over real HTTP.

Runs the ``repro-operator`` entry point to completion twice (the built-in
demo fleet, then a scenario file with a crash), each on an ephemeral port.
Then boots an :class:`repro.service.OperatorDaemon` on another, around the
built-in demo scenario plus one injected crash, drives a full run purely
through the REST API with :class:`repro.service.OperatorClient`, then checks
the operator-facing invariants end to end:

* ``/healthz`` answers and the run reaches ``completed``;
* ``/metrics`` parses under the validating Prometheus text-format parser
  and its counters agree with the run result;
* the audit log replays the executed plan sequence byte-for-byte against
  ``/plans``;
* ``/configuration`` reports a viable final placement;
* the service's own cost per round — observer hooks plus the per-iteration
  command-queue drain — stays below 100 microseconds (its share of the rest
  of the same run is printed, not gated: it is that cost over a run that is
  almost all ``decide``, so it grows whenever a decision gets cheaper).

Exit code 0 on success; any failure raises and exits non-zero.

Usage::

    python tools/service_smoke.py
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Scenario  # noqa: E402
from repro.service import (  # noqa: E402
    LoopCommandQueue,
    OperatorClient,
    OperatorDaemon,
    ServiceObserver,
    replay_plans,
)
from repro.service.__main__ import demo_scenario  # noqa: E402
from repro.service.__main__ import main as operator_main  # noqa: E402
from repro.workloads import (  # noqa: E402
    ChurnGenerator,
    ProblemClass,
    heterogeneous_nodes,
)

#: Instrumented runs the observer cost is the median of.
SHARE_SAMPLES = 5
#: Empty-queue drain calls timed for the per-iteration drain cost.
DRAIN_CALLS = 20_000
#: What the service may add to a round, seconds: hooks and drain read
#: 34-51 microseconds on the reference host, whatever the round does, so
#: twice that is a hook that started doing per-fleet work.
MAX_SERVICE_SECONDS_PER_ROUND = 100e-6


def observer_cost() -> tuple[float, float]:
    """The service's cost per round (seconds) and its share of a run, each
    the median of ``SHARE_SAMPLES`` runs, measured from inside the run.

    The hooks cost tens of microseconds per round while a round takes about
    a millisecond, so a bare-vs-instrumented wall-clock A/B is dominated by
    host jitter.  Instead every :class:`ServiceObserver` hook is wrapped in
    a ``perf_counter`` accumulator and the empty command-queue drain is
    timed separately; their sum is reported per round, and over the
    un-instrumented remainder of the *same* run.
    """
    queue = LoopCommandQueue()
    started = time.perf_counter()
    for _ in range(DRAIN_CALLS):
        queue.drain(None, 0.0)  # an empty queue never touches the loop
    drain_seconds = (time.perf_counter() - started) / DRAIN_CALLS

    per_round, shares = [], []
    for _ in range(SHARE_SAMPLES):
        observer = ServiceObserver()
        hook_seconds = 0.0

        def timed(hook):
            def call(*payload):
                nonlocal hook_seconds
                entered = time.perf_counter()
                hook(*payload)
                hook_seconds += time.perf_counter() - entered

            return call

        for name in dir(observer):
            if name.startswith("on_"):
                setattr(observer, name, timed(getattr(observer, name)))
        # An 8-node / 16-vjob churn run that never searches: about a
        # millisecond a round, nearly all of it ``decide``.
        generator = ChurnGenerator(
            seed=23,
            mean_interarrival_s=30.0,
            vm_count_choices=(2, 3),
            problem_classes=(ProblemClass.W,),
        )
        scenario = Scenario(
            nodes=heterogeneous_nodes(8, seed=5),
            workloads=generator.workloads(16),
            policy="ffd",
            optimizer_timeout=2.0,
        ).observe(observer)
        started = time.perf_counter()
        result = scenario.build(command_queue=LoopCommandQueue()).run()
        total = time.perf_counter() - started
        rounds = len(result.utilization)
        service = hook_seconds + rounds * drain_seconds
        per_round.append(service / rounds)
        shares.append(service / (total - service))
    return statistics.median(per_round), statistics.median(shares)


def operator_entry_point() -> None:
    """The ``repro-operator`` console script, run to completion: on the
    built-in demo fleet, then on a scenario file with two nodes, one
    workload and one crash."""
    assert operator_main(["--port", "0", "--run", "--oneshot"]) == 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "nodes": [{"name": "node-0"}, {"name": "node-1"}],
                    "workloads": [
                        {"name": "job-0", "vm_count": 2, "duration": 240.0}
                    ],
                    "optimizer_timeout": 2.0,
                    "faults": [
                        {"kind": "node_crash", "target": "node-1", "at": 120.0}
                    ],
                }
            )
        )
        assert (
            operator_main(
                ["--port", "0", "--run", "--oneshot", "--scenario-file", str(path)]
            )
            == 0
        )


def main() -> int:
    operator_entry_point()
    with tempfile.TemporaryDirectory() as tmp:
        audit_path = str(Path(tmp) / "audit.jsonl")
        scenario = demo_scenario()
        with OperatorDaemon(scenario, port=0, audit_path=audit_path) as daemon:
            client = OperatorClient(daemon.url)
            assert client.healthz()["status"] == "ok", "healthz not ok"

            client.inject_fault(
                {"kind": "node_crash", "target": "node-3", "at": 120.0}
            )
            client.start_run()
            state = client.wait(timeout=120.0)
            assert state == "completed", f"run ended in state {state!r}"

            result = client.result()
            assert result.makespan > 0.0, "empty run"
            assert len(result.faults) == 1, "injected crash not recorded"

            metrics = client.metrics()
            assert metrics["repro_faults_total"][0][1] == 1.0
            assert metrics["repro_vjobs_completed_total"][0][1] == len(
                result.completion_times
            )
            switch_total = sum(
                value for _, value in metrics["repro_context_switches_total"]
            )
            assert switch_total == len(result.switches)

            plans = client.plans()
            replayed = replay_plans(audit_path)
            assert json.dumps(plans, sort_keys=True) == json.dumps(
                replayed, sort_keys=True
            ), "audit replay diverged from /plans"
            assert len(plans) == len(result.switches)

            configuration = client.configuration()["configuration"]
            assert configuration["viable"], "final configuration not viable"

            print(
                f"service smoke ok: makespan={result.makespan}, "
                f"{len(plans)} plans replayed byte-for-byte, "
                f"{len(metrics)} metric families parsed"
            )
    per_round, share = observer_cost()
    print(
        f"service observer cost per round: {per_round * 1e6:.1f} us "
        f"({share:.2%} of the rest of the run)"
    )
    assert (
        per_round <= MAX_SERVICE_SECONDS_PER_ROUND
    ), "service instrumentation > 100 us per round"
    return 0


if __name__ == "__main__":
    sys.exit(main())
