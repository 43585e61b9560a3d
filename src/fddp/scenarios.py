"""Scenario files: one reader per object, node layout, and warm starts.

A scenario is a JSON document describing one benchmark problem: the dynamics
model, the horizon and step size, contact phases (with optional impulsive
switches at phase boundaries), cost terms, the warm-start policy, and solver
options. `load_scenario` reads the document in one pass, with one reader per
object: each checks its object and converts it into what it describes (the
system, the initial state, a `ContactSet` per phase and switch, a `CostTerm`
per cost entry), and reports any fault at the object's field path.
`build_problem` then only lays out the nodes: one model per (phase, dt), one
impulse node at each switch boundary, and the terminal model.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .action import (
    ActionModelBase,
    ConstrainedMechanicalDynamics,
    FreeMechanicalDynamics,
    ImpulseActionModel,
    IntegratedActionModel,
    TerminalActionModel,
    quasi_static_control,
)
from .contact import Contact, ContactSet, _factorize
from .costs import (
    ComTracking,
    ControlRegularization,
    CostTerm,
    FrameTranslationTracking,
    StateRegularization,
)
from .errors import (
    DimensionMismatch,
    FactorizationError,
    NumericalFailure,
    ParameterError,
    ScenarioError,
)
from .problem import ShootingProblem
from .systems import LinearDynamics, MechanicalSystem, build_system

BUNDLED_SCENARIOS = (
    "lqr_chain",
    "double_integrator",
    "pendulum_swingup",
    "monoped_hop",
    "monoped_hop_warmstart_infeasible",
)

WARM_START_POLICIES = ("zeros", "quasi_static_interpolation", "file")

DEFAULT_SOLVER_OPTIONS = {
    "solver": "fddp",
    "max_iters": 100,
    "tolerance": 1e-9,
}

# The fields each object of a scenario document may hold; any other key is
# rejected with its field path, so a misspelt option cannot pass unnoticed.
SCENARIO_FIELDS = (
    "name", "model", "horizon", "dt", "x0", "phases", "switches", "costs", "warm_start", "solver",
)
MODEL_FIELDS = ("id", "params")
PHASE_FIELDS = ("start", "end", "contacts")
SWITCH_FIELDS = ("node", "restitution", "contacts")
CONTACT_FIELDS = ("frame", "reference", "alpha", "beta")
COSTS_FIELDS = ("running", "terminal")
COST_FIELDS = {
    "state_regularization": ("kind", "weight", "reference", "scales"),
    "control_regularization": ("kind", "weight", "reference"),
    "frame_translation_tracking": ("kind", "weight", "frame", "reference"),
    "com_tracking": ("kind", "weight", "reference"),
}
WARM_START_FIELDS = ("policy", "path")


@dataclass
class Phase:
    start: int
    end: int
    contacts: ContactSet | None  # None in free flight


@dataclass
class Switch:
    node: int
    restitution: float
    contacts: ContactSet


@dataclass
class Scenario:
    """A scenario document read into the objects it describes."""

    name: str
    model_id: str
    system: MechanicalSystem | LinearDynamics
    horizon: int
    dts: list[float]
    x0: np.ndarray
    phases: list[Phase]
    switches: list[Switch]
    running_costs: tuple[CostTerm, ...]
    terminal_costs: tuple[CostTerm, ...]
    warm_start: dict
    solver_options: dict
    path: Path | None = None


def bundled_scenario_path(name: str) -> Path:
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioError(
            f"unknown bundled scenario {name!r}; available: {', '.join(BUNDLED_SCENARIOS)}"
        )
    return Path(str(resources.files("fddp") / "scenarios_data" / f"{name}.json"))


# ---------------------------------------------------------------------------
# Typed readers of one value
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, what: str, where: str) -> float:
    if not _is_number(value):
        raise ScenarioError(f"{what} must be a number", location=where)
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints beyond float range
        raise ScenarioError(f"{what} must be finite", location=where)
    return float(value)


def _list(value, what: str, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list", location=where)
    return value


def _coordinates(value, what: str, where: str) -> np.ndarray:
    """A list of finite numbers as a float array, each entry checked at its index."""
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a coordinate list", location=where)
    return np.array([_number(v, "coordinate", f"{where}[{i}]") for i, v in enumerate(value)], float)


def _object(value, fields, what: str, where: str | None) -> dict:
    """`value` as an object, its first key outside `fields` rejected at its
    field path (`where` is None for the document itself)."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be an object", location=where)
    for key in value:
        if key not in fields:
            raise ScenarioError(
                f"unknown field {key!r}; expected one of {', '.join(fields)}",
                location=key if where is None else f"{where}.{key}",
            )
    return value


def _need(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ScenarioError(f"missing required field {key!r}", location=where)
    value = data[key]
    if kind is float:
        return _number(value, f"field {key!r}", f"{where}.{key}")
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ScenarioError(f"field {key!r} must be an integer", location=f"{where}.{key}")
        return value
    if not isinstance(value, kind):
        raise ScenarioError(
            f"field {key!r} must be of type {kind.__name__}", location=f"{where}.{key}"
        )
    return value


def _reference(entry: dict, where: str, named: dict):
    """The entry's 'reference': a coordinate list, or one of the names in
    `named`, each mapped to a function giving its value; an absent reference
    takes the first name (None when there is none)."""
    value = entry.get("reference", next(iter(named), None))
    if value is None and not named:
        return None
    if isinstance(value, str) and value in named:
        return named[value]()
    if not isinstance(value, list):
        choices = "".join(f"{name!r} or " for name in named)
        raise ScenarioError(
            f"reference must be {choices}a coordinate list", location=f"{where}.reference"
        )
    return _coordinates(value, "reference", f"{where}.reference")


def _frame(entry: dict, where: str, system: MechanicalSystem) -> str:
    frame = _need(entry, "frame", str, where)
    if frame not in system.frames:
        raise ScenarioError(
            f"model has no frame {frame!r} (frames: {', '.join(system.frames) or 'none'})",
            location=f"{where}.frame",
        )
    return frame


# ---------------------------------------------------------------------------
# Object readers
# ---------------------------------------------------------------------------


def _read_system(data: dict):
    """The model object as (id, system): the system is built here, once."""
    model = _object(_need(data, "model", dict, "scenario"), MODEL_FIELDS, "model", "model")
    model_id = _need(model, "id", str, "model")
    params = model.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("model params must be an object", location="model.params")
    for key, value in params.items():
        _number(value, f"model parameter {key!r}", f"model.params.{key}")
    try:
        return model_id, build_system(model_id, params)
    except ParameterError as exc:
        raise ScenarioError(str(exc), location=f"model.params.{exc.name}") from exc
    except DimensionMismatch as exc:
        raise ScenarioError(str(exc), location="model.id") from exc
    except (TypeError, ValueError, MemoryError) as exc:  # a bad keyword, or a size numpy cannot allocate
        raise ScenarioError(f"bad model params: {exc}", location="model.params") from exc


def _read_dts(data: dict, horizon: int) -> list[float]:
    dt_field = data.get("dt")
    if dt_field is None:
        raise ScenarioError("missing required field 'dt'", location="dt")
    if isinstance(dt_field, list):
        if len(dt_field) != horizon:
            raise ScenarioError(
                f"dt list must have horizon entries ({horizon}), got {len(dt_field)}",
                location="dt",
            )
        dts = [_number(v, "step size", f"dt[{i}]") for i, v in enumerate(dt_field)]
    else:
        try:
            dts = [_number(dt_field, "step size", "dt")] * horizon
        except (OverflowError, MemoryError) as exc:
            raise ScenarioError(f"horizon too large: {exc}", location="horizon") from exc
    if not min(dts) > 0:
        raise ScenarioError("every step size must be > 0", location="dt")
    return dts


def _read_x0(data: dict, system) -> np.ndarray:
    """The measured initial state; without one, the origin of a linear model
    and the nominal state of a mechanical one."""
    state = system.state
    if "x0" not in data:
        return np.zeros(state.nx) if isinstance(system, LinearDynamics) else system.nominal_state()
    try:
        return state.check_point(_coordinates(data["x0"], "x0", "x0"))
    except DimensionMismatch as exc:
        raise ScenarioError(str(exc), location="x0") from exc


def _read_contacts(value, where: str, system, x0) -> ContactSet | None:
    """A phase's or switch's 'contacts' list as its contact set (None when
    empty), references resolved at the initial configuration."""
    entries = _list(value, "contacts", where)
    if entries and isinstance(system, LinearDynamics):
        raise ScenarioError("contacts/switches require a mechanical model", location=where)
    contacts = []
    for i, entry in enumerate(entries):
        loc = f"{where}[{i}]"
        _object(entry, CONTACT_FIELDS, "contact entry", loc)
        frame = _frame(entry, loc, system)
        placement = system.frame_placement(system.split_state(x0)[0], frame)
        reference = _reference(entry, loc, {"initial": lambda: placement})
        if reference.shape != placement.shape:
            raise ScenarioError(
                f"frame {frame!r} has {placement.size} coordinates, the reference {reference.size}",
                location=f"{loc}.reference",
            )
        gains = {}
        for gain in ("alpha", "beta"):
            if gain in entry:
                gains[gain] = _number(entry[gain], f"contact gain {gain}", f"{loc}.{gain}")
                if gains[gain] < 0:
                    raise ScenarioError(
                        f"contact gain {gain} must be >= 0", location=f"{loc}.{gain}"
                    )
        contacts.append(Contact(frame, reference, **gains))
    return ContactSet(tuple(contacts)) if contacts else None


def _check_rows(contacts: ContactSet, where: str, system, x0) -> None:
    """Reject a contact set whose rows are dependent at the initial
    configuration (more rows than velocity coordinates, or one frame pinned
    twice), by the factorization the contact dynamics run, rather than
    failing the first evaluation that meets it."""
    if contacts.nf > system.nv:
        raise ScenarioError(
            f"{contacts.nf} constraint rows exceed the model's {system.nv} "
            "velocity coordinates, so the rows are dependent",
            location=where,
        )
    q0 = system.split_state(x0)[0]
    M, _, _, jacobian, _ = system.forward_terms(q0, np.zeros(system.nv), contacts.frames)
    try:
        _factorize(M, jacobian)
    except FactorizationError as exc:
        raise ScenarioError(
            f"the {contacts.nf} constraint rows are dependent at the initial configuration",
            location=where,
        ) from exc


def _read_timeline(data: dict, horizon: int, system, x0):
    """The phases and the switches, each list sorted by node.

    A switch without contacts of its own imposes those of the phase it
    opens. Every contact set is rank-tested after both lists are read, in
    node order, so a dependent set is named where the horizon first imposes
    it: at a switch before the phase the switch opens.
    """
    entries = data.get("phases", [{"start": 0, "end": horizon}])
    if not isinstance(entries, list) or not entries:
        raise ScenarioError("phases must be a non-empty list", location="phases")
    phases, imposed = [], []  # imposed: (node, switch 0 / phase 1, field path, contact set)
    for i, entry in enumerate(entries):
        loc = f"phases[{i}]"
        _object(entry, PHASE_FIELDS, "phase", loc)
        start = _need(entry, "start", int, loc)
        end = _need(entry, "end", int, loc)
        if not 0 <= start < end <= horizon:
            raise ScenarioError(
                f"phase interval [{start}, {end}) must satisfy 0 <= start < end <= horizon",
                location=loc,
            )
        contacts = _read_contacts(entry.get("contacts", []), f"{loc}.contacts", system, x0)
        phases.append(Phase(start, end, contacts))
        if contacts is not None:
            imposed.append((start, 1, f"{loc}.contacts", contacts))
    phases.sort(key=lambda p: p.start)
    if phases[0].start != 0:
        raise ScenarioError("first phase must start at node 0", location="phases[0].start")
    if phases[-1].end != horizon:
        raise ScenarioError(
            f"last phase must end at the horizon ({horizon})", location=f"phases[{len(phases)-1}].end"
        )
    for i in range(1, len(phases)):
        prev, cur = phases[i - 1], phases[i]
        if cur.start < prev.end:
            raise ScenarioError(
                f"phases {i-1} and {i} overlap on [{cur.start}, {prev.end})",
                location=f"phases[{i}]",
            )
        if cur.start > prev.end:
            raise ScenarioError(
                f"gap between phases {i-1} and {i}: nodes [{prev.end}, {cur.start}) uncovered",
                location=f"phases[{i}]",
            )

    opened = {p.start: p for p in phases[1:]}  # the phase each boundary opens
    switches = []
    for i, entry in enumerate(_list(data.get("switches", []), "switches", "switches")):
        loc = f"switches[{i}]"
        _object(entry, SWITCH_FIELDS, "switch", loc)
        node = _need(entry, "node", int, loc)
        if node not in opened:
            raise ScenarioError(
                f"switch node {node} is not a phase boundary (boundaries: {sorted(opened)})",
                location=f"{loc}.node",
            )
        if any(s.node == node for s in switches):
            raise ScenarioError(f"duplicate switch at node {node}", location=loc)
        restitution = _number(entry.get("restitution", 0.0), "restitution", f"{loc}.restitution")
        if not 0.0 <= restitution <= 1.0:
            raise ScenarioError("restitution must lie in [0, 1]", location=f"{loc}.restitution")
        if isinstance(system, LinearDynamics):
            raise ScenarioError("contacts/switches require a mechanical model", location=loc)
        if "contacts" in entry:
            contacts = _read_contacts(entry["contacts"], f"{loc}.contacts", system, x0)
        else:
            contacts = opened[node].contacts
        switches.append(Switch(node, restitution, contacts))
        imposed.append((node, 0, f"{loc}.contacts", contacts))
    switches.sort(key=lambda s: s.node)
    for node, _, where, contacts in sorted(imposed, key=lambda item: item[:2]):
        if contacts is None:
            raise ScenarioError(f"switch at node {node} has no contacts to impose", location=where)
        _check_rows(contacts, where, system, x0)
    return phases, switches


def _read_cost(entry, where: str, nu: int, system, x0) -> CostTerm:
    """One cost entry as its cost term, for nodes with nu controls."""
    if not isinstance(entry, dict):
        raise ScenarioError("cost entry must be an object", location=where)
    kind = _need(entry, "kind", str, where)
    if kind not in COST_FIELDS:
        raise ScenarioError(
            f"unknown cost kind {kind!r}; expected one of {', '.join(COST_FIELDS)}",
            location=f"{where}.kind",
        )
    _object(entry, COST_FIELDS[kind], "cost entry", where)
    weight = _need(entry, "weight", float, where)
    if weight < 0:
        raise ScenarioError("cost weight must be >= 0", location=f"{where}.weight")
    state = system.state
    mechanical = isinstance(system, MechanicalSystem)
    try:
        if kind == "state_regularization":
            nominal = system.nominal_state if mechanical else lambda: np.zeros(state.nx)
            reference = _reference(entry, where, {"initial": lambda: x0, "nominal": nominal})
            scales = None
            if "scales" in entry:
                scales = _coordinates(entry["scales"], "scales", f"{where}.scales")
            return StateRegularization(state, reference, weight, nu, scales=scales)
        if kind == "control_regularization":
            reference = _reference(entry, where, {})
            return ControlRegularization(nu, weight, state.ndx, reference=reference)
        if not mechanical:
            raise ScenarioError(f"{kind} needs a mechanical model", location=where)
        q0 = system.split_state(x0)[0]
        if kind == "frame_translation_tracking":
            frame = _frame(entry, where, system)
            placement = system.frame_placement(q0, frame)
            target = _reference(entry, where, {"initial": lambda: placement})
            return FrameTranslationTracking(system, frame, target, weight, state.ndx, nu)
        target = _reference(entry, where, {"initial": lambda: system.com(q0)})
        return ComTracking(system, target, weight, state.ndx, nu)
    except DimensionMismatch as exc:
        raise ScenarioError(str(exc), location=where) from exc


def _read_costs(data: dict, system, x0):
    """The running cost terms (for the system's nu controls) and the terminal ones."""
    costs = _object(_need(data, "costs", dict, "scenario"), COSTS_FIELDS, "costs", "costs")
    return tuple(
        tuple(
            _read_cost(entry, f"costs.{part}[{i}]", nu, system, x0)
            for i, entry in enumerate(_list(costs.get(part, []), f"{part} costs", f"costs.{part}"))
        )
        for part, nu in (("running", system.nu), ("terminal", 0))
    )


def _read_warm_start(data: dict) -> dict:
    warm_start = _object(
        data.get("warm_start", {"policy": "zeros"}), WARM_START_FIELDS, "warm_start", "warm_start"
    )
    policy = warm_start.get("policy", "zeros")
    if policy not in WARM_START_POLICIES:
        raise ScenarioError(
            f"unknown warm-start policy {policy!r}; expected one of {', '.join(WARM_START_POLICIES)}",
            location="warm_start.policy",
        )
    if policy == "file" and "path" not in warm_start:
        raise ScenarioError("file warm start needs a 'path'", location="warm_start.path")
    if "path" in warm_start and not isinstance(warm_start["path"], str):
        raise ScenarioError("warm-start path must be a string", location="warm_start.path")
    return dict(warm_start)


def _read_solver(data: dict) -> dict:
    solver_field = _object(data.get("solver", {}), DEFAULT_SOLVER_OPTIONS, "solver", "solver")
    solver_options = dict(DEFAULT_SOLVER_OPTIONS)
    solver_options.update(solver_field)
    if solver_options["solver"] not in ("ddp", "fddp"):
        raise ScenarioError(
            f"unknown solver {solver_options['solver']!r}", location="solver.solver"
        )
    if _need(solver_options, "max_iters", int, "solver") < 0:
        raise ScenarioError("max_iters must be an integer >= 0", location="solver.max_iters")
    if not _need(solver_options, "tolerance", float, "solver") > 0:
        raise ScenarioError("tolerance must be > 0", location="solver.tolerance")
    return solver_options


def load_scenario(path) -> Scenario:
    """Read one scenario file into the objects it describes, each object of
    the document by one reader, which names the field path of any fault."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}", location=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", location=f"line {exc.lineno}") from exc
    _object(data, SCENARIO_FIELDS, "scenario document", None)

    name = _need(data, "name", str, "scenario")
    model_id, system = _read_system(data)
    horizon = _need(data, "horizon", int, "scenario")
    if horizon < 1:
        raise ScenarioError("horizon must be >= 1", location="horizon")
    dts = _read_dts(data, horizon)
    x0 = _read_x0(data, system)
    phases, switches = _read_timeline(data, horizon, system, x0)
    running_costs, terminal_costs = _read_costs(data, system, x0)
    return Scenario(
        name=name,
        model_id=model_id,
        system=system,
        horizon=horizon,
        dts=dts,
        x0=x0,
        phases=phases,
        switches=switches,
        running_costs=running_costs,
        terminal_costs=terminal_costs,
        warm_start=_read_warm_start(data),
        solver_options=_read_solver(data),
        path=path,
    )


# ---------------------------------------------------------------------------
# Node layout
# ---------------------------------------------------------------------------


def build_problem(scenario: Scenario) -> ShootingProblem:
    """Lay out a loaded scenario's nodes as a shooting problem.

    Each integration node gets its phase's dynamics, one model per (phase,
    dt); one impulse node is inserted before the first integration node of
    each switch boundary (a switch sits at the start of the phase it opens),
    so the model list has horizon + len(switches) running entries. A
    horizon whose node data set numpy cannot allocate raises a
    ScenarioError at `horizon`.
    """
    system = scenario.system
    switch_at = {s.node: s for s in scenario.switches}
    models: list[ActionModelBase] = []
    for phase in scenario.phases:
        if isinstance(system, LinearDynamics):
            dynamics = system
        elif phase.contacts is None:
            dynamics = FreeMechanicalDynamics(system)
        else:
            dynamics = ConstrainedMechanicalDynamics(system, phase.contacts)
        if phase.start in switch_at:
            switch = switch_at[phase.start]
            models.append(ImpulseActionModel(system, switch.contacts, switch.restitution))
        dts = scenario.dts[phase.start : phase.end]
        by_dt = {
            dt: IntegratedActionModel(dynamics, costs=scenario.running_costs, dt=dt)
            for dt in dict.fromkeys(dts)
        }
        models += map(by_dt.get, dts)
    terminal = TerminalActionModel(system.state, costs=scenario.terminal_costs)
    try:
        return ShootingProblem(scenario.x0, models, terminal)
    except MemoryError as exc:  # the node data set of a horizon numpy cannot allocate
        raise ScenarioError(f"horizon too large: {exc}", location="horizon") from exc


# ---------------------------------------------------------------------------
# Warm starts
# ---------------------------------------------------------------------------


def _interpolation_target(problem: ShootingProblem):
    """End state for interpolation: the reference of the terminal model's
    first state regularizer, else the measured state."""
    for term in problem.terminal_model.costs:
        if isinstance(term, StateRegularization):
            return term.reference
    return problem.x0_measured


def build_warm_start(scenario: Scenario, problem: ShootingProblem):
    """State/control warm start per the scenario's policy.

    zeros: constant measured state, zero controls (typically infeasible).
    quasi_static_interpolation: states slide along the manifold from the
    measured state to the terminal regularization target (node k at k / N,
    in one stacked `integrate` call); controls hold each state still where
    that is possible, from one `quasi_static_control` call per run, which
    takes the run's accelerations at rest and their control Jacobian from
    one checked saddle-point solve; they fill one stacked array, whose rows
    cut to each node's nu are returned. A node whose state no control holds
    still falls back to zero control. That is not only a flight node: on monoped_hop
    every node with controls but node 0 falls back, the stance nodes too, so
    its warm start is close to a zero-control start. A node whose forward
    step fails raises a ScenarioError at warm_start.policy naming it and the
    step's cause (the row at which the run's node steps stopped).
    file: a JSON document with explicit X and U lists of the problem's
    shapes whose entries are finite JSON numbers; a fault names the first
    bad X[k] or U[k] at warm_start.path.
    """
    policy = scenario.warm_start.get("policy", "zeros")
    M = problem.N
    if policy == "zeros":
        return problem.constant_state_guess(), problem.zero_controls()

    if policy == "file":
        raw_path = Path(scenario.warm_start["path"])
        if not raw_path.is_absolute() and scenario.path is not None:
            raw_path = scenario.path.parent / raw_path
        try:
            payload = json.loads(raw_path.read_text())
        except (OSError, UnicodeDecodeError, RecursionError) as exc:
            raise ScenarioError(
                f"cannot read warm start {raw_path}: {exc}", location="warm_start.path"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"invalid warm-start JSON in {raw_path}, line {exc.lineno}: {exc.msg}",
                location="warm_start.path",
            ) from exc
        # Checked here as well as in solve, so that a fault names its field.
        for key in ("X", "U"):
            if not isinstance(payload, dict) or not isinstance(payload.get(key), list):
                raise ScenarioError(
                    f"warm-start file {raw_path} needs a list {key!r}", location="warm_start.path"
                )
        X, U = payload["X"], payload["U"]
        if len(X) != M + 1 or len(U) != M:
            raise ScenarioError(
                f"warm-start lengths ({len(X)}, {len(U)}) do not match the problem ({M + 1}, {M})",
                location="warm_start.path",
            )
        try:
            X, U = problem.check_trajectories(X, U)
        except DimensionMismatch as exc:
            raise ScenarioError(str(exc), location="warm_start.path") from exc
        X, U = list(X), problem.node_controls(U)
        # check_trajectories converts numeric strings and booleans, which a
        # scenario rejects; JSON reads NaN, Infinity and 1e999 as floats.
        for name, entries in (("X", X), ("U", U)):
            for k, (entry, raw) in enumerate(zip(entries, payload[name])):
                if not all(map(_is_number, raw)):
                    raise ScenarioError(
                        f"{name}[{k}]: entries must be JSON numbers, got {raw}",
                        location="warm_start.path",
                    )
                if not np.isfinite(entry).all():
                    raise ScenarioError(
                        f"{name}[{k}]: entries must be finite, got {entry.tolist()}",
                        location="warm_start.path",
                    )
        return X, U

    state = problem.state
    direction = state.difference(problem.x0_measured, _interpolation_target(problem))
    X = state.integrate(problem.x0_measured, (np.arange(M + 1) / M)[:, None] * direction)
    U = np.zeros((M, problem.nu_max))
    for model, lo, hi in problem.runs:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                U[lo:hi, : model.nu] = quasi_static_control(model, X[lo:hi])[0]
        except NumericalFailure as exc:
            raise ScenarioError(
                f"no quasi-static control at node {lo + exc.row}: {exc}", location="warm_start.policy"
            ) from exc
    return list(X), problem.node_controls(U)


def load_and_build(path):
    """Load a scenario file and assemble everything it names: the scenario,
    its problem and its warm start, as `fddp solve` does."""
    scenario = load_scenario(path)
    problem = build_problem(scenario)
    X, U = build_warm_start(scenario, problem)
    return scenario, problem, X, U
