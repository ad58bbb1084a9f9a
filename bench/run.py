"""Seeded end-to-end and per-layer benchmark of matbalance.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload single-process, in a closed loop with one caller: the
next operation starts when the previous one has returned.  Whole rounds of
the same operations run until ``--seconds`` have passed.  Set-up (inputs
from the seed plus warm-up) is done once before the first round and again
at evenly spaced times within the run, each time replacing the inputs with
identical ones; the median of these set-up times is reported, so that it
samples the machine over the same window as the rounds do.  Every output
is checked independently of the program.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones.  With ``--trace 1`` rounds alternate untraced and traced,
the metrics are the per-layer ones from the traced rounds plus the tracing
overhead against the untraced rounds, and the spans of the first traced
round are written to ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, so runs on a shared machine do not contend with themselves.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 8


def _import_workloads():
    """Import the workloads against this checkout's ``src``; None when it is missing."""
    src = ROOT / "src"
    if not (src / "matbalance" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(src), str(BENCH)]
    import workloads

    return workloads


class Tally:
    """Attempted, passed and failed operations, and whether failures were expected."""

    def __init__(self, known_fault_errors: tuple[type, ...]):
        self.known_fault_errors = known_fault_errors
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.reported: set[str] = set()

    def record(self, op, error: BaseException | None) -> bool:
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        message = f"{op.kind}: {type(error).__name__}: {error}"
        expected = op.fault is not None and isinstance(error, self.known_fault_errors)
        if not expected:
            self.unexpected.append(message)
        if message not in self.reported:
            self.reported.add(message)
            known = f" [known fault: {op.fault}]" if expected else " [UNEXPECTED]"
            print(f"failed {message[:300]}{known}", file=sys.stderr)
        return False


def run_round(workload, ops, tracer, tally, latencies) -> tuple[float, int]:
    """Run every operation once; return busy seconds and operations passed.

    An exception from an operation or from its check counts that operation
    as failed; ``Tally`` decides whether the failure was a known one.
    """
    busy = 0.0
    passed = 0
    for op_id, op in enumerate(ops):
        tracer.op_id = op_id
        error = None
        start = time.perf_counter()
        try:
            if tracer.enabled:
                with tracer.span("op"):
                    output = workload.execute(op, tracer)
            else:
                output = workload.execute(op, tracer)
        except Exception as exc:  # a failing operation is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                workload.check(op, output, tracer)
            except Exception as exc:  # a wrong or unreadable output is a failure too
                error = exc
            output = None  # free the result before the next operation starts
        passed += tally.record(op, error)
        latencies.append(elapsed)
        busy += elapsed
    return busy, passed


def per_layer(tracer, rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics per traced round; counts are exact, times are busy time."""
    from workloads import CLI_COMMANDS, EXACT_SHAPES

    busy = {name: ns / 1e6 / rounds for name, ns in tracer.busy_ns.items()}
    counts = {name: n / rounds for name, n in tracer.counts.items()}

    def ms(name):
        return busy.get(name, 0.0)

    def count(name):
        return counts.get(name, 0)

    sweeps = count("iterative.sweeps")
    dispatches = count("closedform.dispatch.calls")
    out = {
        "core.validate.calls": (count("core.validate.calls"), "count"),
        "core.validate.busy_ms": (ms("core.validate"), "ms"),
        "iterative.solve.calls": (count("iterative.solve.calls"), "count"),
        "iterative.solve.busy_ms": (ms("iterative.solve"), "ms"),
        "iterative.extract_factors.busy_ms": (ms("iterative.extract_factors"), "ms"),
        "iterative.sweeps": (sweeps, "count"),
        "iterative.sweep_us": (ms("iterative.solve") * 1e3 / sweeps if sweeps else 0.0, "us"),
        "iterative.not_converged": (count("iterative.not_converged"), "count"),
        "closedform.dispatch.calls": (dispatches, "count"),
        "closedform.dispatch.busy_ms": (ms("closedform.dispatch"), "ms"),
        "closedform.singular_routes": (count("closedform.singular_routes"), "count"),
        "closedform.unsupported": (count("closedform.unsupported"), "count"),
        "closedform.failures": (count("closedform.failures"), "count"),
        "closedform.useful_ratio": (count("closedform.useful") / dispatches if dispatches else 0.0, "ratio"),
    }
    for stage in ("ideal", "buchberger", "degree"):
        total = sum(ms(f"exactalgebra.{stage}.{shape}") for shape in EXACT_SHAPES)
        out[f"exactalgebra.{stage}.busy_ms"] = (total, "ms")
    out["exactalgebra.buchberger.calls"] = (count("exactalgebra.buchberger.calls"), "count")
    out["exactalgebra.basis.size"] = (
        sum(count(f"exactalgebra.basis.{shape}.size") for shape in EXACT_SHAPES), "count")
    out["exactalgebra.basis.max_coeff_bits"] = (max([0, *tracer.peaks.values()]), "bits")
    out["exactalgebra.unit_ideals"] = (count("exactalgebra.unit_ideals"), "count")
    for shape in EXACT_SHAPES:
        out[f"exactalgebra.buchberger.{shape}.busy_ms"] = (ms(f"exactalgebra.buchberger.{shape}"), "ms")
        out[f"exactalgebra.basis.{shape}.max_coeff_bits"] = (
            tracer.peaks.get(f"exactalgebra.basis.{shape}.max_coeff_bits", 0), "bits")
    out["cli.interpreter_import_ms"] = (ms("cli.interpreter_import"), "ms")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.process_ms"] = (ms(f"cli.{command}"), "ms")
    out["cli.stdout_bytes"] = (count("cli.stdout_bytes"), "bytes")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def set_up(workload, seed: int, times: list[float]):
    """Draw the inputs from the seed and warm up; append the time taken."""
    start = time.perf_counter()
    ops = workload.generate(seed)
    workload.warm_up(ops)
    times.append(time.perf_counter() - start)
    return ops


def peak_rss_mb(who: str) -> float:
    scope = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(scope).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_workloads()
    if workloads is None:
        print(f"error: no matbalance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    from spans import OFF, Tracer

    workload = workloads.WORKLOADS[args.workload]()
    try:
        setup_times: list[float] = []
        start = time.perf_counter()
        ops = set_up(workload, args.seed, setup_times)
        tally = Tally(workloads.KNOWN_FAULT_ERRORS)
        tracer = Tracer() if args.trace else OFF
        # Latencies go to flat arrays: a list of float objects would grow the
        # peak RSS by ~36 bytes per operation, so a faster program would read
        # as a bigger one.
        plain = {"busy": 0.0, "rounds": 0, "latencies": array("d"), "rates": []}
        traced = {"busy": 0.0, "rounds": 0, "latencies": array("d"), "rates": []}
        while True:
            if (len(setup_times) < SETUP_REPEATS
                    and time.perf_counter() - start >= len(setup_times) * args.seconds / SETUP_REPEATS):
                ops = None  # drop the previous inputs before drawing identical new ones
                ops = set_up(workload, args.seed, setup_times)
            side = traced if args.trace and plain["rounds"] > traced["rounds"] else plain
            use = tracer if side is traced else OFF
            busy, passed = run_round(workload, ops, use, tally, side["latencies"])
            side["busy"] += busy
            side["rates"].append(passed / busy)
            side["rounds"] += 1
            if side is traced:
                workload.traced_round_extras(tracer)
                tracer.fold(keep=traced["rounds"] == 1)
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or traced["rounds"] >= 1):
                break
        rss_mb = peak_rss_mb(workload.rss_who)  # before the statistics below allocate
    finally:
        workload.close()

    correct = not tally.unexpected
    if args.trace:
        overhead = (traced["busy"] / traced["rounds"]) / (plain["busy"] / plain["rounds"]) - 1.0
        metrics = per_layer(tracer, traced["rounds"], 100.0 * overhead)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans of the first traced round: {trace_path.relative_to(ROOT)}", file=sys.stderr)
        print(f"rounds: {plain['rounds']} untraced, {traced['rounds']} traced", file=sys.stderr)
    else:
        latencies = sorted(plain["latencies"])
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_ops_s": (statistics.median(plain["rates"]), "ops/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        n = len(latencies)
        rates = " ".join(f"{r:.4g}" for r in plain["rates"])
        print(f"rounds: {plain['rounds']}; throughput per round (ops/s): {rates}", file=sys.stderr)
        print("set-up times (s): " + " ".join(f"{t:.4g}" for t in setup_times), file=sys.stderr)
        for q in (0.99, 0.9):
            if n * (1.0 - q) >= 10:
                tail = latencies[min(n - 1, int(q * n))] * 1e3
                print(f"latency_p{round(q * 100)}_ms {tail:.4f} ms (of {n} operations)", file=sys.stderr)
                break
    print(f"{args.workload} attempted {tally.attempted} failed {tally.failed} correct {correct}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
