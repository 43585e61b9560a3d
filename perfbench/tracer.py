"""Layer spans recorded from outside the library, by wrapping its callables.

A `Tracer` replaces public callables of the fddp modules with thin wrappers
while it is installed and puts the originals back afterwards. Two kinds of
wrapper exist:

* span wrappers record (name, start, end, parent, solve id, raised) for each
  call at a layer boundary: scenarios, problem, solver, action, costs,
  numdiff and contact;
* count wrappers only count calls. They sit on the leaf calls that happen
  hundreds of thousands of times per solve (manifold operators and system
  dynamics terms), where a span per call would cost more than the call.

Spans stay in memory until the run ends. Wrappers call straight through, so a
traced solve must produce bit-for-bit the results of an untraced one; the
benchmark checks that.
"""

from __future__ import annotations

import csv
import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Methods counted on every class of the module that defines them.
COUNTED_METHODS = {
    "systems": ("mass_matrix", "bias", "frame_jacobian"),
    "manifolds": ("integrate", "difference", "check_point"),
}

CONTACT_FUNCTIONS = {
    "contact_forward_dynamics": "contact.forward_dynamics",
    "contact_dynamics_derivatives": "contact.dynamics_derivatives",
    "impulse_dynamics": "contact.impulse_dynamics",
    "impulse_dynamics_derivatives": "contact.impulse_derivatives",
}

SOLVER_FUNCTIONS = (
    "backward_pass",
    "forward_pass_ddp",
    "forward_pass_fddp",
    "expected_improvement",
)

ACTION_KINDS = ("free", "contact", "impulse", "terminal")


class Tracer:
    """In-memory span and call-count recorder for one benchmark process."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, solve id, raised)
        self.counts: Counter = Counter()  # (name, solve id) -> calls
        self.solve_id = None
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        """Wrap fn in a span; name is a string or a function of the first argument."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                label = name_of(args[0]) if name_of else name
                spans[index] = (label, start, end, parent, self.solve_id, raised)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, self.solve_id)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the library's layer boundaries for the duration of the block."""
        from fddp import action, costs, manifolds, numdiff, problem, scenarios, solver, systems

        try:
            for attr, label in (
                ("load_scenario", "scenarios.load"),
                ("build_problem", "scenarios.build_problem"),
                ("build_warm_start", "scenarios.warm_start"),
            ):
                self._patch(scenarios, attr, self._span(label, getattr(scenarios, attr)))
            self._patch(solver, "solve", self._span("solver.solve", solver.solve))
            for attr in SOLVER_FUNCTIONS:
                self._patch(solver, attr, self._span(f"solver.{attr}", getattr(solver, attr)))
            for attr in ("calc", "calc_diff", "rollout"):
                method = problem.ShootingProblem.__dict__[attr]
                self._patch(problem.ShootingProblem, attr, self._span(f"problem.{attr}", method))

            def integrated_kind(model):
                if model.first_order:
                    return "linear"
                return "free" if isinstance(model.dynamics, action.FreeMechanicalDynamics) else "contact"

            for cls, kind in (
                (action.IntegratedActionModel, integrated_kind),
                (action.ImpulseActionModel, lambda model: "impulse"),
                (action.TerminalActionModel, lambda model: "terminal"),
            ):
                for attr in ("calc", "calc_diff"):
                    label = functools.partial(_action_label, f"action.{attr}.", kind)
                    self._patch(cls, attr, self._span(label, cls.__dict__[attr]))
            for cls in _classes_defining(costs, "derivatives"):
                self._patch(cls, "derivatives", self._span("costs.derivatives", cls.__dict__["derivatives"]))
            self._patch(numdiff, "jacobian", self._span("numdiff.jacobian", numdiff.jacobian))
            for attr, label in CONTACT_FUNCTIONS.items():
                self._patch(action, attr, self._span(label, getattr(action, attr)))
            for module in (systems, manifolds):
                layer = module.__name__.rsplit(".", 1)[1]
                for attr in COUNTED_METHODS[layer]:
                    for cls in _classes_defining(module, attr):
                        self._patch(cls, attr, self._count(f"{layer}.{attr}", cls.__dict__[attr]))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        """Write every span as one CSV row, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("index", "name", "start_s", "end_s", "parent", "solve_id", "raised"))
            for index, (name, start, end, parent, solve_id, raised) in enumerate(self.spans):
                writer.writerow(
                    (index, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent,
                     "" if solve_id is None else solve_id, int(raised))
                )


def _classes_defining(module, attr):
    return [
        cls
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and attr in cls.__dict__
    ]


def _action_label(prefix, kind, model):
    return prefix + kind(model)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_metrics(tracer: Tracer, solves, nodes: int, solve_s_untraced: float, solve_s_traced: float):
    """Per-layer metrics of the traced solves, as {name: (value, unit, samples)}.

    `solves` are the traced solves (with `iterations` and `accepted`), the
    two solve times are the medians of the run's untraced and traced solves,
    and `nodes` is the number of running nodes of the problem. Per-call times
    are medians over calls inside solves; shares are ratios of summed span
    time; per-iteration counts divide by the iterations of all traced solves
    together.
    """
    spans = tracer.spans
    in_solve = [s for s in spans if s[4] is not None]
    durations = defaultdict(list)
    for name, start, end, *_ in in_solve:
        durations[name].append(end - start)
    setup = defaultdict(list)
    for name, start, end, _, solve_id, _ in spans:
        if solve_id is None and name.startswith("scenarios."):
            setup[name].append(end - start)
    iterations = max(sum(s.iterations for s in solves), 1)
    accepted = sum(s.accepted for s in solves)
    solve_total = sum(durations["solver.solve"])
    calc_diff_total = sum(durations["problem.calc_diff"])
    solver_self = sum(
        t for s, t in zip(spans, self_times(spans))
        if s[4] is not None and s[0].startswith("solver.")
    )
    call_counts = Counter(name for name, *_ in in_solve)
    for (name, solve_id), n in tracer.counts.items():
        if solve_id is not None:
            call_counts[name] += n
    forward_calls = call_counts["solver.forward_pass_ddp"] + call_counts["solver.forward_pass_fddp"]
    forward_durations = durations["solver.forward_pass_ddp"] + durations["solver.forward_pass_fddp"]
    retries = sum(1 for s in in_solve if s[0] == "solver.backward_pass" and s[5])

    def median(values, scale=1.0):
        return (statistics.median(values) * scale, len(values)) if values else (0.0, 0)

    def per_iter(name):
        return call_counts[name] / iterations, iterations

    def ratio(num, den, samples):
        return (num / den if den else 0.0), samples

    metrics = {}

    def put(name, unit, value_samples):
        value, samples = value_samples
        metrics[name] = (value, unit, samples)

    for short in ("load", "build_problem", "warm_start"):
        put(f"scenarios.{short}_s", "s", median(setup[f"scenarios.{short}"]))
    put("problem.calc_diff_s", "s", median(durations["problem.calc_diff"]))
    put("problem.calc_diff_share", "frac", ratio(calc_diff_total, solve_total, len(solves)))
    put("problem.calc_s", "s", median(durations["problem.calc"]))
    put("problem.rollout_s", "s", median(durations["problem.rollout"]))
    for kind in ACTION_KINDS:
        for attr in ("calc", "calc_diff"):
            put(f"action.{attr}_us.{kind}", "us", median(durations[f"action.{attr}.{kind}"], 1e6))
    for kind in ACTION_KINDS:
        for attr in ("calc", "calc_diff"):
            put(f"action.{attr}_calls_per_iter.{kind}", "calls/iter", per_iter(f"action.{attr}.{kind}"))
    put("numdiff.jacobian_calls_per_iter", "calls/iter", per_iter("numdiff.jacobian"))
    put(
        "numdiff.jacobian_share", "frac",
        ratio(sum(durations["numdiff.jacobian"]), calc_diff_total, len(solves)),
    )
    for short in ("forward_dynamics", "dynamics_derivatives", "impulse_dynamics", "impulse_derivatives"):
        put(f"contact.{short}_us", "us", median(durations[f"contact.{short}"], 1e6))
    for layer, attrs in COUNTED_METHODS.items():
        for attr in attrs:
            put(f"{layer}.{attr}_calls_per_iter", "calls/iter", per_iter(f"{layer}.{attr}"))
    put("costs.derivatives_us", "us", median(durations["costs.derivatives"], 1e6))
    put("costs.derivatives_calls_per_iter", "calls/iter", per_iter("costs.derivatives"))
    put("solver.backward_us_per_node", "us", median(durations["solver.backward_pass"], 1e6 / nodes))
    put("solver.forward_us_per_node", "us", median(forward_durations, 1e6 / nodes))
    put(
        "solver.expected_improvement_us_per_node", "us",
        median(durations["solver.expected_improvement"], 1e6 / (nodes + 1)),
    )
    put("solver.self_share", "frac", ratio(solver_self, solve_total, len(solves)))
    put("solver.ls_trials_per_iter", "trials/iter", (forward_calls / iterations, iterations))
    put("solver.ls_accept_ratio", "frac", ratio(accepted, forward_calls, forward_calls))
    put("solver.iter_accept_ratio", "frac", ratio(accepted, iterations, iterations))
    put("solver.backward_retries_per_iter", "retries/iter", (retries / iterations, iterations))
    put("trace.overhead_frac", "frac", (solve_s_traced / solve_s_untraced - 1.0, len(solves)))
    return metrics
