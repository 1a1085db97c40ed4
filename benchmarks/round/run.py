"""The round benchmark: one command, every metric by name with its unit.

Two ways to call it::

    # one measured run of one workload (what BENCHMARK.json's command runs);
    # the last line of standard output is the result object
    python3 benchmarks/round/run.py --workload fig10 --seed 1007 --seconds 8 --trace 0

    # every workload, bare then traced, each in a fresh process; prints both
    # tables and writes the result document
    python3 benchmarks/round/run.py [--seed N] [--workload NAME] [--quick] [--check]

``--trace 0`` prints the end-to-end metrics of a pass over the bare program;
``--trace 1`` prints the per-layer table of a traced pass over a third of the
operations.  ``--check`` runs everything twice, in alternating workload
order, and fails when an end-to-end metric moved by more than its own bound
or an exact count did not repeat.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"

#: name, unit, better — the order of BENCHMARK.json's ``end_to_end``.
END_TO_END = (
    ("round_ms_p50", "ms", "lower"),
    ("rounds_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Interpreter settings of every measured process.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
}

#: A single run must end well inside the 180 s the harness allows.
RUN_TIMEOUT_S = 170


def _quartiles(values) -> dict:
    values = list(values)
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


# ---------------------------------------------------------------------- #
# one measured run                                                        #
# ---------------------------------------------------------------------- #


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in this process and return its result document."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import drivers
    import layers
    from hostclock import HostClock
    from repro.obs import Tracer, to_chrome_trace
    from workloads import SPECS

    if workload not in SPECS:
        raise SystemExit(f"unknown workload {workload!r}; one of {sorted(SPECS)}")
    spec = SPECS[workload]
    units = spec.units(seconds)
    clock = HostClock()
    setups: list[float] = []
    if trace:
        units = max(1, units // 3)
        bare = drivers.Pass(clock)
        drivers.timed_setup(spec, seed, units, clock, setups)(bare)
        bare.close()
        result = drivers.Pass(clock, tracer=Tracer(name=workload))
        runner = drivers.timed_setup(spec, seed, units, clock, setups)
        with result.tracer.activate():
            runner(result)
        result.close()
        values = layers.layer_table(bare, result)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in layers.PER_LAYER
        }
        passes = [bare, result]
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{workload}-seed{seed}.trace.json"
        trace_path.write_text(
            json.dumps(to_chrome_trace(result.tracer.to_dict(), workload))
        )
    else:
        for _ in range(spec.setup_repeats):
            runner = drivers.timed_setup(spec, seed, units, clock, setups)
        result = drivers.Pass(clock)
        runner(result)
        result.close()
        passes = [result]
        times = [op.ms for op in result.ops]
        values = {
            "round_ms_p50": statistics.median(times),
            "rounds_per_s": len(times) / (sum(times) / 1000.0),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END
        }
    ops = [op for measured in passes for op in measured.ops]
    failed = [op for op in ops if op.failures]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": all(measured.violations == 0 for measured in passes),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
        "plans_verified": sum(measured.plans_verified for measured in passes),
        "switches": sum(1 for op in ops if op.cost is not None),
        "failure_reasons": sorted({r for op in failed for r in op.failures})[:10],
        "samples": {
            "round_ms": _quartiles(op.ms for op in ops),
            "setup_s": _quartiles(setups),
        },
        # Counts that must repeat exactly, by operation index.
        "exact": {
            str(index): list(op.counts)
            for index, op in enumerate(result.ops)
            if op.exact and op.counts is not None
        },
        "host": clock.summary(),
    }


def single_run(args) -> int:
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        # Hash seed and thread counts only take effect at interpreter start.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, **PINNED_ENV},
        )
    if not SRC.is_dir():
        print(f"no program to measure: {SRC} is missing", file=sys.stderr)
        return 2
    document = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(document, indent=1))
    print(
        f"{args.workload}: {document['attempted']} rounds, "
        f"{document['switches']} switches, {document['plans_verified']} plans "
        f"verified, {document['failed']} failed"
    )
    for reason in document["failure_reasons"]:
        print(f"  failed: {reason}")
    for name, metric in document["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    print(
        json.dumps(
            {key: document[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


# ---------------------------------------------------------------------- #
# every workload, in fresh processes                                      #
# ---------------------------------------------------------------------- #


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One measured run in a fresh process; its detail document."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    started = time.perf_counter()
    subprocess.run(
        command,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=RUN_TIMEOUT_S,
        env={**os.environ, **PINNED_ENV},
    )
    document = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    document["process_s"] = time.perf_counter() - started
    return document


def _environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def _run_set(names, seed: int, seconds: float) -> dict:
    """Bare then traced run of every named workload."""
    documents = {}
    for name in names:
        documents[name] = {
            "end_to_end": _child(name, seed, seconds, 0),
            "per_layer": _child(name, seed, seconds, 1),
        }
        bare = documents[name]["end_to_end"]
        print(
            f"{name}: {bare['attempted']} rounds, {bare['failed']} failed, "
            f"{bare['plans_verified']} plans verified "
            f"({bare['process_s']:.1f} s + "
            f"{documents[name]['per_layer']['process_s']:.1f} s traced)"
        )
    return documents


def _print_tables(documents: dict) -> None:
    names = list(documents)
    for section in ("end_to_end", "per_layer"):
        print()
        print(f"{section:36s} {'unit':6s}" + "".join(f"{n:>14s}" for n in names))
        first = documents[names[0]][section]["metrics"]
        for metric, entry in first.items():
            row = "".join(
                f"{documents[n][section]['metrics'][metric]['value']:14.4f}"
                for n in names
            )
            print(f"{metric:36s} {entry['unit']:6s}{row}")


def _compare(first: dict, second: dict, bounds: dict) -> list[str]:
    """Why two sets of runs of the same code disagree (empty when they
    agree); prints the observed spread of every end-to-end metric."""
    problems = []
    print()
    print(f"{'workload':14s} {'metric':16s} {'set 1':>14s} {'set 2':>14s} {'moved':>8s} {'bound':>6s}")
    for name in first:
        one, two = first[name]["end_to_end"], second[name]["end_to_end"]
        for metric, bound in bounds.items():
            a = one["metrics"][metric]["value"]
            b = two["metrics"][metric]["value"]
            moved = abs(b - a) / a
            flag = "" if moved <= bound else "  <-- over its bound"
            print(f"{name:14s} {metric:16s} {a:14.4f} {b:14.4f} {moved:8.3f} {bound:6.2f}{flag}")
            if moved > bound:
                problems.append(f"{name} {metric} moved {moved:.3f} > {bound}")
        for index in sorted(set(one["exact"]) & set(two["exact"]), key=int):
            if one["exact"][index] != two["exact"][index]:
                problems.append(
                    f"{name} operation {index}: (nodes, backtracks, actions) "
                    f"{one['exact'][index]} then {two['exact'][index]}"
                )
        if one["failed"] or two["failed"]:
            problems.append(f"{name}: {one['failed']} + {two['failed']} failed operations")
    return problems


def full_run(args) -> int:
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload:
        names = [args.workload]
    seconds = args.seconds or manifest["run_seconds"]
    if args.quick:
        seconds /= 10.0
    first = _run_set(names, args.seed, seconds)
    _print_tables(first)
    document = {
        "benchmark": "round",
        "seed": args.seed,
        "seconds": seconds,
        "environment": _environment(),
        "workloads": first,
    }
    status = 0
    if args.check:
        second = _run_set(names[::-1], args.seed, seconds)
        bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
        problems = _compare(first, second, bounds)
        document["second_set"] = second
        document["check"] = problems
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        status = 1 if problems else 0
    out = Path(args.out) if args.out else OUT / "result.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(document, indent=1))
    print(f"\nresult document: {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1007)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="a tenth of the rounds")
    parser.add_argument("--check", action="store_true", help="two sets, own bounds")
    parser.add_argument("--out", help="where the result document goes")
    args = parser.parse_args(argv)
    if args.trace is None:
        return full_run(args)
    if not args.workload or not args.seconds:
        parser.error("--trace needs --workload and --seconds")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
