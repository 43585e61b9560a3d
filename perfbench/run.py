"""Solve benchmark for the fddp library: time to a converged, checked solution.

One process runs one workload as a closed loop with one client: it sends one
solve at a time through the library's public calls (`scenarios.load_scenario`,
`build_problem`, `build_warm_start`, `solver.solve`) until the run's time is
used up, and times a few set-ups before each solve. Every solve passes
through the correctness gate of `workloads.gate`; a failed solve is counted
and the run carries on. Every timed call samples the host's speed
(`hostspeed.py`); the reported times are scaled to a nominal host speed, and
the wall times as measured are printed beside them.

    python3 perfbench/run.py --workload swingup_fddp --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 55

With `--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics; with `--trace 1` the run alternates untraced solves with
solves under the layer wrappers of `tracer.py`, and reports the per-layer
metrics. `--all` runs every workload, untraced and traced, each in its own
process, and prints one table. The library is imported from the `src`
directory beside this one; without it the benchmark exits with code 1.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so the BLAS never starts worker threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Before each solve the scenario is set up at least SETUP_REPS times and until
# SETUP_ROUND_S is spent, so set-up time is sampled across the whole run.
SETUP_REPS = 3
SETUP_ROUND_S = 0.25
# A run makes at least this many solves; the traced run this many of each kind.
MIN_SOLVES = 3
MIN_TRACED_SOLVES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "iter_s": "s",
    "iterations": "count",
    "failed_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_wall_s": "s",
    "solve_wall_s": "s",
    "iter_wall_s": "s",
    "host_slowdown": "x",
}
# failed_frac is 0 on a healthy run, so it is printed but carried in the
# result line only through `failed` and `attempted`. The wall times and the
# host's slowdown are printed and recorded but not reported: they follow the
# host more than the code.
REPORTED_END_TO_END = ("setup_s", "solve_s", "iter_s", "iterations", "peak_rss_mb")


def import_library():
    """Import fddp from the checkout's own src directory, never from elsewhere."""
    package = SRC / "fddp"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no fddp sources at {package}")
    sys.path.insert(0, str(SRC))
    import fddp

    if Path(fddp.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported fddp from {fddp.__file__}, expected {package}")


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


@dataclass
class Solve:
    """One timed solve and its verdict; iterations and cost are None when it raised.

    `seconds` is the solve's time at the nominal host speed, `wall_seconds`
    as measured, and `slowdown` the host's during the solve.
    """

    seconds: float
    wall_seconds: float
    slowdown: float
    traced: bool
    iterations: int | None
    final_cost: float | None
    accepted: int
    reasons: list[str]


def set_up_round(workload, clock, setup_times, tracer=None):
    """Set the scenario up SETUP_REPS times and for at least SETUP_ROUND_S.

    Appends (seconds at nominal speed, wall seconds, slowdown) per set-up to
    `setup_times`.
    """
    from workloads import set_up

    times = []
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        while len(times) < SETUP_REPS or sum(t.raw_s for t in times) < SETUP_ROUND_S:
            gc.collect()
            timing, scenario, problem, X, U = set_up(workload, clock)
            times.append(timing)
    setup_times.extend((t.scaled_s, t.raw_s, t.slowdown) for t in times)
    return scenario, problem, X, U


def solve_loop(workload, clock, scenario, problem, X, U, until, setup_times, tracer=None):
    """Closed loop with one client: set up, solve, check, repeat while time is left.

    Each round first times a few set-ups, so set-up is sampled across the
    whole run, then solves the run's input once. With a tracer, odd rounds
    solve under its wrappers, so traced and untraced solves see the same host
    states, and each traced solve is compared bit for bit with the first
    untraced one. Only that solve's trajectories are kept; of the others only
    the figures the metrics need. A round starts only when at least half the
    median round so far still fits before `until`, so the run ends within half
    a round of its time limit.
    """
    from fddp import solver

    from workloads import gate

    options = scenario.solver_options
    minimum = MIN_SOLVES if tracer is None else 2 * MIN_TRACED_SOLVES
    solves, rounds, reference = [], [], None
    while len(solves) < minimum or time.perf_counter() + 0.5 * statistics.median(rounds) <= until:
        t_round = time.perf_counter()
        traced = tracer is not None and len(solves) % 2 == 1
        set_up_round(workload, clock, setup_times, tracer)
        gc.collect()
        if traced:
            tracer.solve_id = len(solves)
        with tracer.installed() if traced else contextlib.nullcontext(), clock.timed() as timing:
            try:
                X_out, U_out, report = solver.solve(
                    problem, X, U, solver=workload.solver,
                    max_iters=options["max_iters"], tolerance=options["tolerance"],
                )
            except Exception:
                # A raising solve is a failed solve: record it and carry on.
                X_out = U_out = report = None
                error = traceback.format_exc()
        if traced:
            tracer.solve_id = None
        times = (timing.scaled_s, timing.raw_s, timing.slowdown)
        if report is None:
            print(error, file=sys.stderr)
            solves.append(Solve(*times, traced, None, None, 0, ["raised"]))
        else:
            accepted = sum(row.accepted for row in report.rows[1:])
            solve = Solve(
                *times, traced, report.iterations, report.final_cost, accepted,
                gate(workload, scenario, report),
            )
            result = (report.iterations, report.final_cost, X_out + U_out)
            if reference is None and not traced:
                reference = result
            elif traced and reference is not None and not same_result(reference, result):
                solve.reasons.append("traced result differs from the untraced one")
            solves.append(solve)
        X_out = U_out = report = result = None
        rounds.append(time.perf_counter() - t_round)
    return solves


def same_result(a, b) -> bool:
    """Bit-for-bit equality of two (iterations, final cost, trajectories) triples."""
    import numpy as np

    return (
        a[0] == b[0]
        and a[1] == b[1]
        and all(np.array_equal(x, y) for x, y in zip(a[2], b[2]))
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from hostspeed import HostClock
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, perturb

    workload = WORKLOADS[name]
    t_start = time.perf_counter()
    clock = HostClock()
    tracer = Tracer() if trace else None

    setup_times = []
    scenario, problem, X, U = set_up_round(workload, clock, setup_times, tracer)
    X, U = perturb(problem, X, U, seed)

    attempted = solve_loop(
        workload, clock, scenario, problem, X, U, t_start + seconds, setup_times, tracer
    )
    failures = [s for s in attempted if s.reasons]
    for s in failures:
        print(f"failed solve: {'; '.join(s.reasons)}", file=sys.stderr)
    completed = [s for s in attempted if s.iterations is not None and not s.traced]
    if not completed:
        print("perfbench: no solve completed", file=sys.stderr)
        return 1

    def median(values):
        values = list(values)
        return statistics.median(values), len(values)

    solve_s = statistics.median(s.seconds for s in completed)
    table = {
        "setup_s": median(t[0] for t in setup_times),
        "solve_s": (solve_s, len(completed)),
        "iter_s": median(s.seconds / max(s.iterations, 1) for s in completed),
        "iterations": median(s.iterations for s in completed),
        "failed_frac": (len(failures) / len(attempted), len(attempted)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "setup_wall_s": median(t[1] for t in setup_times),
        "solve_wall_s": median(s.wall_seconds for s in completed),
        "iter_wall_s": median(s.wall_seconds / max(s.iterations, 1) for s in completed),
        "host_slowdown": median(s.slowdown for s in completed),
    }
    metrics = {k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in table.items()}
    layers = {}
    if tracer is not None:
        traced = [s for s in attempted if s.iterations is not None and s.traced]
        if traced:
            layers = layer_metrics(
                tracer, traced, problem.N, solve_s, statistics.median(s.seconds for s in traced)
            )

    info = machine()
    print(f"workload {name}  seed {seed}  trace {int(trace)}  solver {workload.solver}")
    print("machine " + json.dumps(info))
    print("end to end (untraced solves)")
    print_table(metrics)
    if layers:
        print("per layer (traced solves)")
        print_table(layers)

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": info,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "per_layer": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in layers.items()},
        "failures": [s.reasons for s in failures],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.csv")

    reported = layers if trace else {k: metrics[k] for k in REPORTED_END_TO_END}
    if trace and not layers:
        return 1
    result = {
        "correct": not failures,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()},
    }
    print(json.dumps(result))
    return 0


def print_table(metrics):
    for key, (value, unit, samples) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit:<12} n={samples}")


# ---------------------------------------------------------------------------
# Every workload, one process each
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    from workloads import WORKLOADS

    summary = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = 1
                continue
            if trace == 0:
                record = json.loads((OUT / f"{name}-seed{seed}-trace0.json").read_text())
                summary[name] = record["end_to_end"]
    print(f"\nend to end, seed {seed}, {seconds:g} s per run")
    for name, table in summary.items():
        for key, entry in table.items():
            print(f"  {name:<20} {key:<12} {entry['value']:>14.6g} {entry['unit']:<6} n={entry['samples']}")
            if key == "failed_frac" and entry["value"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="workload name (see workloads.py)")
    which.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=0, help="seed of the warm-start perturbation")
    parser.add_argument("--seconds", type=float, default=55.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    if args.all:
        return run_all(args.seed, args.seconds)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
