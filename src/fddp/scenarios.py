"""Scenario files: schema, validation, problem assembly, and warm starts.

A scenario is a JSON document describing one benchmark problem: the dynamics
model, the horizon and step size, contact phases (with optional impulsive
switches at phase boundaries), cost terms, the warm-start policy, and solver
options. Validation reports the offending field path; assembly turns the
document into a shooting problem whose node list interleaves one impulse node
at each switch boundary.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .action import (
    ActionModelBase,
    ConstrainedMechanicalDynamics,
    FreeMechanicalDynamics,
    ImpulseActionModel,
    IntegratedActionModel,
    LinearFlow,
    TerminalActionModel,
    quasi_static_control,
)
from .contact import Contact, ContactSet, _factorize
from .costs import COST_KINDS, StateRegularization, make_cost_term
from .errors import (
    DimensionMismatch,
    FactorizationError,
    FddpError,
    ParameterError,
    ScenarioError,
)
from .problem import ShootingProblem
from .systems import LinearDynamics, build_system

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
    contacts: list = field(default_factory=list)


@dataclass
class Switch:
    node: int
    restitution: float = 0.0
    contacts: list | None = None


@dataclass
class Scenario:
    """Validated scenario document, still in declarative form."""

    name: str
    model_id: str
    model_params: dict
    horizon: int
    dts: list[float]
    x0: np.ndarray | None
    phases: list[Phase]
    switches: list[Switch]
    running_costs: list[dict]
    terminal_costs: list[dict]
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
# Parsing and validation
# ---------------------------------------------------------------------------


def _number(value, what: str, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{what} must be a number", location=where)
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints beyond float range
        raise ScenarioError(f"{what} must be finite", location=where)
    return float(value)


def _known_fields(data: dict, fields, where: str | None) -> None:
    """Reject the first key of `data` outside `fields`, at its field path."""
    for key in data:
        if key not in fields:
            raise ScenarioError(
                f"unknown field {key!r}; expected one of {', '.join(fields)}",
                location=key if where is None else f"{where}.{key}",
            )


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


def _validate_costs(entries, where: str) -> list[dict]:
    out = []
    for i, entry in enumerate(entries):
        loc = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError("cost entry must be an object", location=loc)
        kind = _need(entry, "kind", str, loc)
        if kind not in COST_KINDS:
            raise ScenarioError(
                f"unknown cost kind {kind!r}; expected one of {', '.join(COST_KINDS)}",
                location=f"{loc}.kind",
            )
        _known_fields(entry, COST_FIELDS[kind], loc)
        weight = _need(entry, "weight", float, loc)
        if weight < 0:
            raise ScenarioError("cost weight must be >= 0", location=f"{loc}.weight")
        out.append(dict(entry))
    return out


def _validate_contacts(entries, where: str) -> list[dict]:
    out = []
    for i, entry in enumerate(entries):
        loc = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError("contact entry must be an object", location=loc)
        _known_fields(entry, CONTACT_FIELDS, loc)
        _need(entry, "frame", str, loc)
        reference = entry.get("reference", "initial")
        if not (reference == "initial" or isinstance(reference, list)):
            raise ScenarioError(
                "contact reference must be 'initial' or a coordinate list",
                location=f"{loc}.reference",
            )
        for gain in ("alpha", "beta"):
            if gain in entry and _number(entry[gain], f"contact gain {gain}", f"{loc}.{gain}") < 0:
                raise ScenarioError(f"contact gain {gain} must be >= 0", location=f"{loc}.{gain}")
        out.append(dict(entry))
    return out


def load_scenario(path) -> Scenario:
    """Parse and validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}", location=str(path)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", location=f"line {exc.lineno}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _known_fields(data, SCENARIO_FIELDS, None)

    name = _need(data, "name", str, "scenario")
    model = _need(data, "model", dict, "scenario")
    _known_fields(model, MODEL_FIELDS, "model")
    model_id = _need(model, "id", str, "model")
    model_params = model.get("params", {})
    if not isinstance(model_params, dict):
        raise ScenarioError("model params must be an object", location="model.params")
    for key, value in model_params.items():
        _number(value, f"model parameter {key!r}", f"model.params.{key}")
    try:
        system = build_system(model_id, model_params)
    except ParameterError as exc:
        raise ScenarioError(str(exc), location=f"model.params.{exc.name}") from exc
    except DimensionMismatch as exc:
        raise ScenarioError(str(exc), location="model.id") from exc
    except TypeError as exc:
        raise ScenarioError(f"bad model params: {exc}", location="model.params") from exc

    horizon = _need(data, "horizon", int, "scenario")
    if horizon < 1:
        raise ScenarioError("horizon must be >= 1", location="horizon")

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
        dts = [_number(dt_field, "step size", "dt")] * horizon
    if any(not dt > 0 for dt in dts):
        raise ScenarioError("every step size must be > 0", location="dt")

    x0 = None
    if "x0" in data:
        if not isinstance(data["x0"], list):
            raise ScenarioError("x0 must be a coordinate list", location="x0")
        x0 = np.array([_number(v, "coordinate", f"x0[{i}]") for i, v in enumerate(data["x0"])])

    phases_field = data.get("phases", [{"start": 0, "end": horizon, "contacts": []}])
    if not isinstance(phases_field, list) or not phases_field:
        raise ScenarioError("phases must be a non-empty list", location="phases")
    phases = []
    for i, entry in enumerate(phases_field):
        loc = f"phases[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError("phase must be an object", location=loc)
        _known_fields(entry, PHASE_FIELDS, loc)
        start = _need(entry, "start", int, loc)
        end = _need(entry, "end", int, loc)
        if not 0 <= start < end <= horizon:
            raise ScenarioError(
                f"phase interval [{start}, {end}) must satisfy 0 <= start < end <= horizon",
                location=loc,
            )
        contacts = _validate_contacts(entry.get("contacts", []), f"{loc}.contacts")
        phases.append(Phase(start, end, contacts))
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

    boundaries = {p.start for p in phases[1:]}
    switches = []
    for i, entry in enumerate(data.get("switches", [])):
        loc = f"switches[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError("switch must be an object", location=loc)
        _known_fields(entry, SWITCH_FIELDS, loc)
        node = _need(entry, "node", int, loc)
        if node not in boundaries:
            raise ScenarioError(
                f"switch node {node} is not a phase boundary (boundaries: {sorted(boundaries)})",
                location=f"{loc}.node",
            )
        restitution = _number(entry.get("restitution", 0.0), "restitution", f"{loc}.restitution")
        if not 0.0 <= restitution <= 1.0:
            raise ScenarioError("restitution must lie in [0, 1]", location=f"{loc}.restitution")
        contacts = entry.get("contacts")
        if contacts is not None:
            contacts = _validate_contacts(contacts, f"{loc}.contacts")
        switches.append(Switch(node, restitution, contacts))
    switches.sort(key=lambda s: s.node)
    seen = set()
    for i, s in enumerate(switches):
        if s.node in seen:
            raise ScenarioError(f"duplicate switch at node {s.node}", location=f"switches[{i}]")
        seen.add(s.node)

    costs_field = _need(data, "costs", dict, "scenario")
    _known_fields(costs_field, COSTS_FIELDS, "costs")
    running_costs = _validate_costs(costs_field.get("running", []), "costs.running")
    terminal_costs = _validate_costs(costs_field.get("terminal", []), "costs.terminal")

    warm_start = data.get("warm_start", {"policy": "zeros"})
    if not isinstance(warm_start, dict):
        raise ScenarioError("warm_start must be an object", location="warm_start")
    _known_fields(warm_start, WARM_START_FIELDS, "warm_start")
    policy = warm_start.get("policy", "zeros")
    if policy not in WARM_START_POLICIES:
        raise ScenarioError(
            f"unknown warm-start policy {policy!r}; expected one of {', '.join(WARM_START_POLICIES)}",
            location="warm_start.policy",
        )
    if policy == "file" and "path" not in warm_start:
        raise ScenarioError("file warm start needs a 'path'", location="warm_start.path")

    solver_field = data.get("solver", {})
    if not isinstance(solver_field, dict):
        raise ScenarioError("solver must be an object", location="solver")
    _known_fields(solver_field, DEFAULT_SOLVER_OPTIONS, "solver")
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

    # Contact machinery only applies to mechanical systems.
    if isinstance(system, LinearDynamics):
        if any(p.contacts for p in phases) or switches:
            raise ScenarioError(
                "contacts/switches require a mechanical model", location="phases"
            )
    else:
        for i, phase in enumerate(phases):
            for j, c in enumerate(phase.contacts):
                if c["frame"] not in system.frames:
                    raise ScenarioError(
                        f"model {model_id!r} has no frame {c['frame']!r}",
                        location=f"phases[{i}].contacts[{j}].frame",
                    )

    return Scenario(
        name=name,
        model_id=model_id,
        model_params=dict(model_params),
        horizon=horizon,
        dts=dts,
        x0=x0,
        phases=phases,
        switches=switches,
        running_costs=running_costs,
        terminal_costs=terminal_costs,
        warm_start=dict(warm_start),
        solver_options=solver_options,
        path=path,
    )


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _resolve_reference(value, fallback):
    if value == "initial" or value is None:
        return np.asarray(fallback, dtype=float).copy()
    return np.asarray(value, dtype=float)


def _build_cost_terms(entries, state, nu, system, x0, where: str):
    terms = []
    for i, entry in enumerate(entries):
        loc = f"{where}[{i}]"
        kind = entry["kind"]
        kwargs = {"state": state, "nu": nu}
        if kind == "state_regularization":
            ref = entry.get("reference", "initial")
            if ref == "initial":
                ref = x0
            elif ref == "nominal":
                if system is None or isinstance(system, LinearDynamics):
                    ref = np.zeros(state.nx)
                else:
                    ref = system.nominal_state()
            kwargs["reference"] = np.asarray(ref, dtype=float)
            if "scales" in entry:
                kwargs["scales"] = np.asarray(entry["scales"], dtype=float)
        elif kind == "control_regularization":
            if "reference" in entry:
                kwargs["reference"] = np.asarray(entry["reference"], dtype=float)
        elif kind == "frame_translation_tracking":
            if system is None or isinstance(system, LinearDynamics):
                raise ScenarioError("frame tracking needs a mechanical model", location=loc)
            frame = entry.get("frame")
            if frame is None:
                raise ScenarioError("frame tracking needs a 'frame'", location=f"{loc}.frame")
            if frame not in system.frames:
                raise ScenarioError(
                    f"model has no frame {frame!r}", location=f"{loc}.frame"
                )
            kwargs["system"] = system
            kwargs["frame"] = frame
            q0 = system.split_state(x0)[0]
            kwargs["reference"] = _resolve_reference(
                entry.get("reference"), system.frame_placement(q0, frame)
            )
        elif kind == "com_tracking":
            if system is None or isinstance(system, LinearDynamics):
                raise ScenarioError("com tracking needs a mechanical model", location=loc)
            kwargs["system"] = system
            q0 = system.split_state(x0)[0]
            kwargs["reference"] = _resolve_reference(entry.get("reference"), system.com(q0))
        try:
            terms.append(make_cost_term(kind, entry["weight"], **kwargs))
        except (DimensionMismatch, ValueError) as exc:
            raise ScenarioError(str(exc), location=loc) from exc
    return tuple(terms)


def _build_contact_set(entries, system, x0, where: str) -> ContactSet:
    """The contact set of `entries`, reported at the field path `where`.

    A set whose rows are dependent at the initial configuration (more rows
    than velocity coordinates, or one frame pinned twice) is rejected here,
    by the factorization the contact dynamics run, rather than failing the
    first evaluation that meets it, whatever evaluates the model first.
    """
    contacts = []
    q0 = system.split_state(x0)[0]
    for i, entry in enumerate(entries):
        loc = f"{where}[{i}]"
        frame = entry["frame"]
        try:
            reference = _resolve_reference(
                entry.get("reference", "initial"), system.frame_placement(q0, frame)
            )
            kwargs = {}
            if "alpha" in entry:
                kwargs["alpha"] = float(entry["alpha"])
            if "beta" in entry:
                kwargs["beta"] = float(entry["beta"])
            contacts.append(Contact(frame=frame, reference=reference, **kwargs))
        except (DimensionMismatch, ValueError) as exc:
            raise ScenarioError(str(exc), location=loc) from exc
    contact_set = ContactSet(tuple(contacts))
    if contact_set.nf > system.nv:
        raise ScenarioError(
            f"{contact_set.nf} constraint rows exceed the model's {system.nv} "
            "velocity coordinates, so the rows are dependent",
            location=where,
        )
    M, _, _, jacobian, _ = system.forward_terms(q0, np.zeros(system.nv), contact_set.frames)
    try:
        _factorize(M, jacobian)
    except FactorizationError as exc:
        raise ScenarioError(
            f"the {contact_set.nf} constraint rows are dependent at the initial configuration",
            location=where,
        ) from exc
    return contact_set


def build_problem(scenario: Scenario) -> ShootingProblem:
    """Turn a validated scenario into a shooting problem.

    Each integration node gets its phase's dynamics; one impulse node is
    inserted before the first integration node of each switch boundary, so
    the model list has horizon + len(switches) running entries.
    """
    system = build_system(scenario.model_id, scenario.model_params)
    linear = isinstance(system, LinearDynamics)
    state = system.state

    if scenario.x0 is not None:
        try:
            x0 = state.check_point(scenario.x0)
        except DimensionMismatch as exc:
            raise ScenarioError(str(exc), location="x0") from exc
    elif linear:
        x0 = np.zeros(state.nx)
    else:
        x0 = system.nominal_state()

    sys_for_costs = None if linear else system
    running_cost_terms = {}  # nu -> terms (cached; shared across nodes)

    def running_costs(nu):
        if nu not in running_cost_terms:
            running_cost_terms[nu] = _build_cost_terms(
                scenario.running_costs, state, nu, sys_for_costs, x0, "costs.running"
            )
        return running_cost_terms[nu]

    # One dynamics object per phase, one model per (phase, dt) pair.
    phase_models = {}

    def model_for(phase_idx: int, k: int) -> IntegratedActionModel:
        dt = scenario.dts[k]
        key = (phase_idx, dt)
        if key not in phase_models:
            phase = scenario.phases[phase_idx]
            if linear:
                dynamics = LinearFlow(system)
            elif phase.contacts:
                contact_set = _build_contact_set(
                    phase.contacts, system, x0, f"phases[{phase_idx}].contacts"
                )
                dynamics = ConstrainedMechanicalDynamics(system, contact_set)
            else:
                dynamics = FreeMechanicalDynamics(system)
            phase_models[key] = IntegratedActionModel(
                dynamics,
                costs=running_costs(dynamics.nu),
                dt=dt,
                label=f"{scenario.name}:phase{phase_idx}",
            )
        return phase_models[key]

    phase_of_node = np.empty(scenario.horizon, dtype=int)
    for i, phase in enumerate(scenario.phases):
        phase_of_node[phase.start : phase.end] = i

    switch_at = {s.node: (i, s) for i, s in enumerate(scenario.switches)}
    models: list[ActionModelBase] = []
    for k in range(scenario.horizon):
        if k in switch_at:
            i, switch = switch_at[k]
            entries = switch.contacts
            if entries is None:
                entries = scenario.phases[phase_of_node[k]].contacts
            if not entries:
                raise ScenarioError(
                    f"switch at node {k} has no contacts to impose",
                    location=f"switches[{i}]",
                )
            contact_set = _build_contact_set(entries, system, x0, f"switches[{i}].contacts")
            models.append(
                ImpulseActionModel(
                    system,
                    contact_set,
                    restitution=switch.restitution,
                    label=f"{scenario.name}:switch@{k}",
                )
            )
        models.append(model_for(int(phase_of_node[k]), k))

    terminal = TerminalActionModel(
        state,
        costs=_build_cost_terms(
            scenario.terminal_costs, state, 0, sys_for_costs, x0, "costs.terminal"
        ),
        label=f"{scenario.name}:terminal",
    )
    return ShootingProblem(x0, models, terminal)


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
    measured state to the terminal regularization target; controls hold each
    interpolated state still where that is possible, from one stacked
    `quasi_static_control` call per group (nodes whose dynamics cannot be
    held still, e.g. during flight, fall back to zero control).
    file: a JSON document with explicit X and U lists.
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
        except OSError as exc:
            raise ScenarioError(
                f"cannot read warm start: {exc}", location="warm_start.path"
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
            return problem.check_trajectories(X, U)
        except DimensionMismatch as exc:
            raise ScenarioError(str(exc), location="warm_start.path") from exc

    state = problem.state
    direction = state.difference(problem.x0_measured, _interpolation_target(problem))
    X = [
        state.integrate(problem.x0_measured, (k / M) * direction) for k in range(M + 1)
    ]
    stacked, U = np.array(X), [None] * M
    for model, nodes in problem.groups:
        for k, u in zip(nodes, quasi_static_control(model, stacked[nodes])[0]):
            U[k] = u
    return X, U


def load_and_build(path):
    """Convenience: load a scenario file and assemble everything it names."""
    scenario = load_scenario(path)
    problem = build_problem(scenario)
    X, U = build_warm_start(scenario, problem)
    return scenario, problem, X, U
