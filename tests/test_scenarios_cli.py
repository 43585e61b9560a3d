"""Tests for scenario files (schema, validation, assembly, warm starts) and
the command-line harness (solve, check-derivatives, exit codes).
"""

import copy
import csv
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fddp import action, cli
from fddp.action import (
    ConstrainedMechanicalDynamics,
    FreeMechanicalDynamics,
    ImpulseActionModel,
    IntegratedActionModel,
    quasi_static_control,
)
from fddp.cli import (
    DERIVATIVE_TOLERANCE,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_CONVERGED,
    EXIT_IO,
    EXIT_MAX_ITERS,
    EXIT_SOLVER_FAILURE,
    TRACE_COLUMNS,
    check_problem_derivatives,
)
from fddp import scenarios
from fddp.costs import (
    ComTracking,
    ControlRegularization,
    FrameTranslationTracking,
    StateRegularization,
)
from fddp.errors import ScenarioError
from fddp.scenarios import (
    BUNDLED_SCENARIOS,
    build_problem,
    build_warm_start,
    bundled_scenario_path,
    load_and_build,
    load_scenario,
)
from fddp.solver import solve

GRAVITY = 9.81


def pendulum_doc(**overrides):
    doc = {
        "name": "case",
        "model": {"id": "pendulum", "params": {}},
        "horizon": 10,
        "dt": 0.05,
        "x0": [0.0, 0.0],
        "costs": {
            "running": [
                {"kind": "state_regularization", "weight": 1.0, "reference": [1.0, 0.0]},
                {"kind": "control_regularization", "weight": 0.1},
            ],
            "terminal": [
                {"kind": "state_regularization", "weight": 10.0, "reference": [1.0, 0.0]}
            ],
        },
    }
    doc.update(overrides)
    return doc


def tip(**gains):
    """A contact entry pinning the pendulum tip."""
    return {"frame": "tip", **gains}


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------


def test_bundled_pendulum_scenario_fields():
    scenario = load_scenario(bundled_scenario_path("pendulum_swingup"))
    assert scenario.name == "pendulum_swingup"
    assert scenario.model_id == "pendulum"
    assert scenario.horizon == 200
    assert scenario.dts == [0.01] * 200
    assert scenario.warm_start["policy"] == "quasi_static_interpolation"
    assert scenario.solver_options["solver"] == "fddp"
    np.testing.assert_array_equal(scenario.x0, [0.0, 0.0])


def test_every_bundled_scenario_loads_and_builds():
    for name in BUNDLED_SCENARIOS:
        scenario, problem, X, U = load_and_build(bundled_scenario_path(name))
        assert scenario.name == name
        expected_nodes = scenario.horizon + len(scenario.switches)
        assert problem.N == expected_nodes
        assert len(X) == problem.N + 1
        assert len(U) == problem.N
        for k, model in enumerate(problem.running_models):
            assert U[k].shape == (model.nu,)
        cost, gaps = problem.calc(X, U)
        assert np.isfinite(cost)


def test_unknown_bundled_name_is_rejected():
    with pytest.raises(ScenarioError, match="unknown bundled scenario"):
        bundled_scenario_path("triple_pendulum")


def test_invalid_json_reports_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  broken\n}')
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(path)


def test_missing_file_is_a_scenario_error(tmp_path, capsys):
    # So are bytes that are not UTF-8 and nesting deeper than the parser recurses.
    undecodable, deep = tmp_path / "undecodable.json", tmp_path / "deep.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    deep.write_text("[" * 100000 + "]" * 100000)
    for path in (tmp_path / "absent.json", undecodable, deep):
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            load_scenario(path)
        for argv, _ in cli_runs(str(path), tmp_path):
            assert cli.main(argv) == EXIT_CONFIG
            assert f"error: {path}: cannot read scenario file" in capsys.readouterr().err


def test_unknown_model_id_is_named(tmp_path):
    doc = pendulum_doc(model={"id": "hexapod", "params": {}})
    with pytest.raises(ScenarioError, match="unknown model id 'hexapod'"):
        load_scenario(write_doc(tmp_path, doc))


def test_schema_violations_carry_field_locations(tmp_path):
    cases = [
        (lambda d: d.pop("name"), "missing required field 'name'"),
        (lambda d: d.update(horizon=0), "horizon must be >= 1"),
        # JSON's true is a Python int, not an integer field's value.
        (lambda d: d.update(horizon=True), r"scenario\.horizon: field 'horizon' must be an integer"),
        (lambda d: d.update(dt=-0.1), "every step size must be > 0"),
        (lambda d: d.update(dt=[0.05] * 3), "dt list must have horizon entries"),
        (lambda d: d.update(x0="origin"), "x0 must be a coordinate list"),
        (lambda d: d.update(x0=[0.0, "a"]), r"x0\[1\]: coordinate must be a number"),
        (lambda d: d.update(x0=[float("nan"), 0.0]), r"x0\[0\]: coordinate must be finite"),
        (lambda d: d.update(dt=float("inf")), r"dt: step size must be finite"),
        (lambda d: d.update(phases=[]), "phases: phases must be a non-empty list"),
        (lambda d: d.update(dt="0.01"), "dt: step size must be a number"),
        (lambda d: d.update(dt=[0.05] * 9 + ["0.05"]), r"dt\[9\]: step size must be a number"),
        (
            lambda d: d["costs"]["running"].append({"kind": "energy", "weight": 1.0}),
            "unknown cost kind 'energy'",
        ),
        (
            lambda d: d["costs"]["running"].append(
                {"kind": "control_regularization", "weight": -2.0}
            ),
            "cost weight must be >= 0",
        ),
        (
            lambda d: d.update(warm_start={"policy": "oracle"}),
            "unknown warm-start policy 'oracle'",
        ),
        (
            lambda d: d.update(warm_start={"policy": "file"}),
            "file warm start needs a 'path'",
        ),
        (lambda d: d.update(solver={"solver": "sqp"}), "unknown solver 'sqp'"),
        (
            lambda d: d.update(solver={"max_iters": -2}),
            "max_iters must be an integer >= 0",
        ),
        (lambda d: d.update(solver={"tolerance": 0.0}), "tolerance must be > 0"),
        (
            lambda d: d.update(solver={"tolerance": "1e-9"}),
            "solver.tolerance: field 'tolerance' must be a number",
        ),
        (lambda d: d.update(solver={"threads": 1}), "solver.threads: unknown field 'threads'"),
        (lambda d: d.update(solver={"max_iter": 0}), "solver.max_iter: unknown field 'max_iter'"),
        (lambda d: d.update(solver="fddp"), "solver: solver must be an object"),
        (
            lambda d: d.update(phases=[{"start": 0, "end": 10, "contacts": [tip(alpha="abc")]}]),
            r"phases\[0\]\.contacts\[0\]\.alpha: contact gain alpha must be a number",
        ),
        (
            lambda d: d.update(phases=[{"start": 0, "end": 10, "contacts": [tip(alpha="50")]}]),
            r"phases\[0\]\.contacts\[0\]\.alpha: contact gain alpha must be a number",
        ),
        (
            lambda d: d.update(phases=[{"start": 0, "end": 10, "contacts": [tip(beta=None)]}]),
            r"phases\[0\]\.contacts\[0\]\.beta: contact gain beta must be a number",
        ),
        (
            lambda d: d.update(
                phases=[{"start": 0, "end": 5}, {"start": 5, "end": 10, "contacts": [tip()]}],
                switches=[{"node": 5, "restitution": "x"}],
            ),
            r"switches\[0\]\.restitution: restitution must be a number",
        ),
        (
            lambda d: d.update(model={"id": "planar_monoped", "params": {"base_mass": "x"}}),
            r"model\.params\.base_mass: model parameter 'base_mass' must be a number",
        ),
        (
            lambda d: d.update(model={"id": "planar_monoped", "params": {"thigh_length": 0.0}}),
            r"model\.params\.thigh_length: thigh_length must be > 0, got 0\.0",
        ),
        (
            lambda d: d.update(model={"id": "planar_monoped", "params": {"base_mass": -1.0}}),
            r"model\.params\.base_mass: base_mass must be > 0, got -1\.0",
        ),
        (
            lambda d: d["model"]["params"].update(damping=-0.1),
            r"model\.params\.damping: damping must be >= 0, got -0\.1",
        ),
    ]
    for i, (mutate, message) in enumerate(cases):
        doc = pendulum_doc()
        mutate(doc)
        path = write_doc(tmp_path, doc, name=f"case_{i}.json")
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)


def test_whole_number_parameters_are_checked(tmp_path, capsys):
    # A dimension or a number of masses must be a whole number >= 1; both
    # commands report a bad one at its parameter with exit 5.
    documents = {
        "double_integrator": json.loads(bundled_scenario_path("double_integrator").read_text()),
        "lqr_chain": json.loads(bundled_scenario_path("lqr_chain").read_text()),
    }
    cases = [
        ("double_integrator", "dim", 2.5),
        ("double_integrator", "dim", 0),
        ("lqr_chain", "masses", 0),
        ("lqr_chain", "masses", -1),
        ("lqr_chain", "masses", 1.5),
    ]
    for scenario, name, value in cases:
        doc = documents[scenario]
        doc = dict(doc, model=dict(doc["model"], params={**doc["model"]["params"], name: value}))
        path = str(write_doc(tmp_path, doc))
        message = rf"model\.params\.{name}: {name} must be a whole number >= 1, got {value}"
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)
        for argv in (
            ["solve", "--scenario", path, "--out", str(tmp_path / "out")],
            ["check-derivatives", "--scenario", path, "--samples", "1"],
        ):
            assert cli.main(argv) == EXIT_CONFIG
            assert re.search("error: " + message, capsys.readouterr().err)
    # A whole number written as a float is a whole number.
    doc = documents["double_integrator"]
    doc = dict(doc, model=dict(doc["model"], params={"dim": 2.0}))
    assert build_problem(load_scenario(write_doc(tmp_path, doc))).state.nx == 4


def test_phase_intervals_must_partition_the_horizon(tmp_path):
    overlapping = pendulum_doc(
        phases=[{"start": 0, "end": 6}, {"start": 4, "end": 10}]
    )
    with pytest.raises(ScenarioError, match=r"phases 0 and 1 overlap on \[4, 6\)"):
        load_scenario(write_doc(tmp_path, overlapping, "overlap.json"))

    for start in (6, 5):
        gap = pendulum_doc(phases=[{"start": 0, "end": 4}, {"start": start, "end": 10}])
        with pytest.raises(ScenarioError, match=rf"nodes \[4, {start}\) uncovered"):
            load_scenario(write_doc(tmp_path, gap, f"gap{start}.json"))

    late_start = pendulum_doc(phases=[{"start": 2, "end": 10}])
    with pytest.raises(ScenarioError, match="first phase must start at node 0"):
        load_scenario(write_doc(tmp_path, late_start, "late.json"))

    short_end = pendulum_doc(phases=[{"start": 0, "end": 9}])
    with pytest.raises(ScenarioError, match=r"last phase must end at the horizon \(10\)"):
        load_scenario(write_doc(tmp_path, short_end, "short.json"))

    backwards = pendulum_doc(phases=[{"start": 5, "end": 5}])
    with pytest.raises(ScenarioError, match="0 <= start < end <= horizon"):
        load_scenario(write_doc(tmp_path, backwards, "bad_interval.json"))


def test_switch_validation(tmp_path):
    two_phase = dict(
        phases=[{"start": 0, "end": 5}, {"start": 5, "end": 10}],
    )
    off_boundary = pendulum_doc(**two_phase, switches=[{"node": 7}])
    with pytest.raises(
        ScenarioError, match=r"switch node 7 is not a phase boundary \(boundaries: \[5\]\)"
    ):
        load_scenario(write_doc(tmp_path, off_boundary, "off.json"))

    bad_restitution = pendulum_doc(
        **two_phase, switches=[{"node": 5, "restitution": 1.5}]
    )
    with pytest.raises(ScenarioError, match=r"restitution must lie in \[0, 1\]"):
        load_scenario(write_doc(tmp_path, bad_restitution, "rest.json"))

    duplicated = pendulum_doc(**two_phase, switches=[{"node": 5}, {"node": 5}])
    with pytest.raises(ScenarioError, match="duplicate switch at node 5"):
        load_scenario(write_doc(tmp_path, duplicated, "dup.json"))


def test_contacts_require_a_mechanical_model(tmp_path):
    doc = {
        "name": "linear_with_contacts",
        "model": {"id": "lqr_chain", "params": {}},
        "horizon": 10,
        "dt": 0.05,
        "costs": {"running": [{"kind": "control_regularization", "weight": 0.1}]},
        "phases": [{"start": 0, "end": 10, "contacts": [{"frame": "foot"}]}],
    }
    with pytest.raises(ScenarioError, match="contacts/switches require a mechanical model"):
        load_scenario(write_doc(tmp_path, doc))


def test_contact_frame_must_exist_on_the_model(tmp_path):
    doc = {
        "name": "monoped_bad_frame",
        "model": {"id": "planar_monoped", "params": {}},
        "horizon": 10,
        "dt": 0.02,
        "costs": {"running": [{"kind": "control_regularization", "weight": 0.1}]},
        "phases": [{"start": 0, "end": 10, "contacts": [{"frame": "hand"}]}],
    }
    with pytest.raises(ScenarioError, match="has no frame 'hand'"):
        load_scenario(write_doc(tmp_path, doc))


def test_each_cost_kind_is_read_into_its_term(tmp_path):
    # One reader per cost entry dispatches on its kind; tracking targets
    # default to their value at the initial state.
    doc = json.loads(bundled_scenario_path("monoped_hop").read_text())
    doc["costs"]["running"] += [
        {"kind": "frame_translation_tracking", "weight": 1.0, "frame": "foot"},
        {"kind": "com_tracking", "weight": 1.0},
    ]
    scenario = load_scenario(write_doc(tmp_path, doc))
    running = scenario.running_costs
    kinds = (StateRegularization, ControlRegularization, FrameTranslationTracking, ComTracking)
    assert tuple(map(type, running)) == kinds
    assert {term.nu for term in running} == {2}
    assert [(type(term), term.nu) for term in scenario.terminal_costs] == [(StateRegularization, 0)]
    system, q0 = scenario.system, scenario.x0[:5]
    np.testing.assert_array_equal(running[0].reference, scenario.x0)
    np.testing.assert_array_equal(running[2].target, system.frame_placement(q0, "foot"))
    np.testing.assert_array_equal(running[3].target, system.com(q0))


def test_one_load_and_build_makes_one_system(monkeypatch):
    # The loader builds the system once; laying out the nodes builds none.
    calls = []

    def counted(*args, build=scenarios.build_system):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(scenarios, "build_system", counted)
    for name in BUNDLED_SCENARIOS:
        calls.clear()
        build_problem(load_scenario(bundled_scenario_path(name)))
        assert len(calls) == 1, name


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def test_monoped_assembly_interleaves_the_impulse_node():
    scenario = load_scenario(bundled_scenario_path("monoped_hop"))
    problem = build_problem(scenario)
    models = problem.running_models
    assert problem.N == 91

    assert isinstance(models[50], ImpulseActionModel)
    for k in range(50):
        assert isinstance(models[k], IntegratedActionModel)
    # Stance nodes run constrained dynamics, flight nodes free dynamics.
    for k in range(40):
        assert isinstance(models[k].dynamics, ConstrainedMechanicalDynamics)
    for k in range(40, 50):
        assert isinstance(models[k].dynamics, FreeMechanicalDynamics)
    for k in range(51, 91):
        assert isinstance(models[k].dynamics, ConstrainedMechanicalDynamics)

    # One model object per (phase, dt): nodes within a phase share it.
    assert len({id(models[k]) for k in range(40)}) == 1
    assert len({id(models[k]) for k in range(40, 50)}) == 1
    assert len({id(models[k]) for k in range(51, 91)}) == 1
    assert id(models[0]) != id(models[51])


def test_assembly_defaults_x0_to_the_nominal_state(tmp_path):
    doc = {
        "name": "monoped_default_x0",
        "model": {"id": "planar_monoped", "params": {}},
        "horizon": 5,
        "dt": 0.02,
        "costs": {"running": [{"kind": "control_regularization", "weight": 0.1}]},
    }
    scenario = load_scenario(write_doc(tmp_path, doc))
    problem = build_problem(scenario)
    from fddp.systems import build_system

    np.testing.assert_array_equal(
        problem.x0_measured, build_system("planar_monoped", {}).nominal_state()
    )


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------


def test_zeros_warm_start_holds_the_measured_state():
    scenario, problem, X, U = load_and_build(bundled_scenario_path("double_integrator"))
    for x in X:
        np.testing.assert_array_equal(x, problem.x0_measured)
    for u in U:
        np.testing.assert_array_equal(u, np.zeros(2))


def test_quasi_static_interpolation_on_the_pendulum():
    scenario, problem, X, U = load_and_build(bundled_scenario_path("pendulum_swingup"))
    M = problem.N
    target = np.array([np.pi, 0.0])
    for k in range(M + 1):
        np.testing.assert_allclose(X[k], (k / M) * target, atol=1e-12)
    # Holding torque balances gravity (mass = length = 1, velocity zero).
    for k in range(M):
        np.testing.assert_allclose(U[k], [GRAVITY * np.sin(X[k][0])], atol=1e-5)


def test_interpolation_falls_back_to_zero_controls_in_flight():
    scenario, problem, X, U = load_and_build(bundled_scenario_path("monoped_hop"))
    # Flight nodes (40..49) cannot hold a pose without ground forces.
    for k in range(40, 50):
        np.testing.assert_array_equal(U[k], np.zeros(2))
    assert U[50].shape == (0,)  # impulse node has no controls


def per_node_quasi_static_control(model, x):
    """The per-node damped Newton iteration that the stacked warm start
    replaced: steps from zero control until the acceleration at (q, 0) is
    within 1e-6, and zero control once a step can no longer move it."""
    system = model.dynamics.system
    x = np.concatenate([x[: system.nq], np.zeros(system.nv)])
    stack = model.create_stack(1)
    u = np.zeros(model.nu)
    for _ in range(100):
        r = model.dynamics.acceleration(x, u, stack.nodes[0])
        if np.linalg.norm(r) <= 1e-6:
            return u
        J = model.dynamics.partials(stack, x[None], u[None])[2][0]
        step = np.linalg.solve(J.T @ J + 1e-10 * np.eye(model.nu), -J.T @ r)
        if np.linalg.norm(J @ step) <= 1e-8:
            break
        u = u + step
    return np.zeros(model.nu)


@pytest.mark.parametrize("name", ["pendulum_swingup", "monoped_hop"])
def test_stacked_quasi_static_control_matches_the_per_node_iteration(name):
    scenario, problem, X, U = load_and_build(bundled_scenario_path(name))
    held = []
    for model, lo, hi in problem.runs:
        controls, norms = quasi_static_control(model, np.array(X)[lo:hi])
        assert controls.shape == (hi - lo, model.nu) and norms.shape == (hi - lo,)
        for k, u, norm in zip(range(lo, hi), controls, norms):
            np.testing.assert_array_equal(U[k], u)
            if model.nu == 0:
                continue
            expected = per_node_quasi_static_control(model, X[k])
            if name == "pendulum_swingup":
                np.testing.assert_array_equal(u, expected)
            np.testing.assert_allclose(u, expected, rtol=0.0, atol=1e-14)
            np.testing.assert_array_equal(u == 0.0, expected == 0.0)
            # The residual the returned control leaves is within the
            # tolerance on the held nodes; the others fall back to zero.
            if norm <= 1e-6:
                held.append(int(k))
            else:
                np.testing.assert_array_equal(u, 0.0)
    if name == "pendulum_swingup":
        assert held == list(range(problem.N))
    else:
        # Only node 0 is held; the monoped's other 89 nodes with controls
        # (stance ones included) cannot hold their interpolated pose.
        assert held == [0]


def assert_interpolation_is_the_per_node_integration(scenario):
    """The warm start's interpolated states, from one stacked integrate call,
    equal node k's own integrate(x0, (k / N) * direction) to the bit, along a
    nonzero direction."""
    scenario.warm_start = {"policy": "quasi_static_interpolation"}
    problem = build_problem(scenario)
    X = np.array(build_warm_start(scenario, problem)[0])
    state, x0, M = problem.state, problem.x0_measured, problem.N
    direction = state.difference(x0, scenarios._interpolation_target(problem))
    assert direction.any()
    expected = [state.integrate(x0, (k / M) * direction) for k in range(M + 1)]
    assert X.tobytes() == np.array(expected).tobytes()
    return X


# monoped_hop_warmstart_infeasible's terminal reference is its initial state:
# its interpolation direction is zero, so every node would pass.
@pytest.mark.parametrize("name", [n for n in BUNDLED_SCENARIOS if n != "monoped_hop_warmstart_infeasible"])
def test_stacked_interpolation_matches_the_per_node_integration(name):
    assert_interpolation_is_the_per_node_integration(load_scenario(bundled_scenario_path(name)))


def test_stacked_interpolation_matches_the_per_node_integration_across_the_wrap(tmp_path):
    # The heading runs from 3.0 to -3.0 the short way, through +-pi, so the
    # interpolated headings wrap part of the way along.
    def heading_across_the_wrap(doc):
        doc["x0"][2] = 3.0
        doc["costs"]["terminal"][0]["reference"][2] = -3.0

    path = write_doc(tmp_path, hop_document(heading_across_the_wrap))
    headings = assert_interpolation_is_the_per_node_integration(load_scenario(path))[:, 2]
    assert headings[0] == 3.0 and headings[-1] == pytest.approx(-3.0)
    assert (headings > 3.0).any() and (headings < -3.0).any()


def test_warm_start_makes_one_checked_kkt_solve_per_group(monkeypatch):
    # Each mechanical run with controls takes its accelerations at rest and
    # their control Jacobian from one checked saddle-point solve, and steps
    # no node and differentiates nothing.
    scenario = load_scenario(bundled_scenario_path("monoped_hop"))
    problem = build_problem(scenario)
    solves, steps = [], []
    checked = action._kkt_solve_checked
    monkeypatch.setattr(
        action, "_kkt_solve_checked", lambda M, *rest: solves.append(len(M)) or checked(M, *rest)
    )
    monkeypatch.setattr(IntegratedActionModel, "calc", lambda *args: steps.append("calc"))
    for dynamics in (FreeMechanicalDynamics, ConstrainedMechanicalDynamics):
        monkeypatch.setattr(dynamics, "partials", lambda *args: steps.append("partials"))
    build_warm_start(scenario, problem)
    expected = [hi - lo for model, lo, hi in problem.runs if model.nu > 0]
    assert len(expected) >= 2
    assert solves == expected and not steps


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_the_warm_start_stepped_node_by_node_gives_its_controls(name, monkeypatch):
    # Where the checked solve gives up, each run steps node by node and
    # differentiates the stack: where every node passes, its controls are
    # the checked solve's within 1e-15, with the same zero entries, and the
    # residual norms agree far below QUASI_STATIC_TOL (a held node's is
    # rounding noise).
    scenario = load_scenario(bundled_scenario_path(name))
    problem = build_problem(scenario)
    X = np.array(build_warm_start(scenario, problem)[0])
    expected = [quasi_static_control(model, X[lo:hi]) for model, lo, hi in problem.runs]
    monkeypatch.setattr(action, "_kkt_solve_checked", lambda *args: None)
    for (model, lo, hi), (controls, norms) in zip(problem.runs, expected):
        stepped, stepped_norms = quasi_static_control(model, X[lo:hi])
        np.testing.assert_allclose(stepped, controls, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(stepped == 0.0, controls == 0.0)
        np.testing.assert_allclose(stepped_norms, norms, rtol=1e-12, atol=1e-10)


def test_a_failed_quasi_static_warm_start_names_its_node(tmp_path, capsys):
    # A terminal reference at the float ceiling drives the interpolated
    # states out of range from node 1 on; the stance run's forward step
    # fails there, and the failure is reported at warm_start.policy with
    # that node and the node step's cause, without a numpy warning.
    doc = json.loads(bundled_scenario_path("monoped_hop").read_text())
    doc["costs"]["terminal"][0]["reference"][0] = 1e308
    path = str(write_doc(tmp_path, doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["solve", "--scenario", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "error: warm_start.policy: " in err and "node 1: " in err
    assert "non-finite contact accelerations" in err
    assert "RuntimeWarning" not in err and not caught


def test_an_overflowing_derived_constant_is_reported_at_its_parameter(tmp_path, capsys):
    # mass * length^2 overflows though each parameter is finite, and so does
    # twice 1e308 on the lqr chain's diagonal: the solve stops at the
    # parameter the document gives, not at a warm start or node step that
    # would meet an infinite inertia, nor at the matrix A it has no key for,
    # and numpy emits no warning.
    chain = json.loads(bundled_scenario_path("lqr_chain").read_text())
    chain["model"]["params"] = {"stiffness": 1e308}
    for doc, message in (
        (pendulum_doc(model={"id": "pendulum", "params": {"mass": 1e308, "length": 10.0}}),
         "error: model.params.mass: mass overflows"),
        (chain, "error: model.params.stiffness: stiffness must be finite"),
    ):
        path = str(write_doc(tmp_path, doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["solve", "--scenario", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err
        assert "RuntimeWarning" not in err and not caught


def test_interpolation_slides_to_a_nominal_terminal_reference(tmp_path):
    doc = pendulum_doc(x0=[0.5, 0.0], warm_start={"policy": "quasi_static_interpolation"})
    doc["costs"]["terminal"][0]["reference"] = "nominal"
    scenario, problem, X, U = load_and_build(write_doc(tmp_path, doc))
    target = problem.terminal_model.costs[0].reference
    np.testing.assert_array_equal(target, [0.0, 0.0])
    np.testing.assert_array_equal(X[0], [0.5, 0.0])
    np.testing.assert_allclose(X[-1], target, atol=1e-15)


def test_file_warm_start_roundtrip(tmp_path):
    doc = pendulum_doc(warm_start={"policy": "file", "path": "guess.json"})
    path = write_doc(tmp_path, doc)
    rng = np.random.default_rng(3)
    X_ref = rng.standard_normal((11, 2))
    U_ref = rng.standard_normal((10, 1))
    (tmp_path / "guess.json").write_text(
        json.dumps({"X": X_ref.tolist(), "U": U_ref.tolist()})
    )
    scenario = load_scenario(path)
    problem = build_problem(scenario)
    X, U = build_warm_start(scenario, problem)
    np.testing.assert_array_equal(np.array(X), X_ref)
    np.testing.assert_array_equal(np.array(U), U_ref)


def test_file_warm_start_length_mismatch(tmp_path):
    doc = pendulum_doc(warm_start={"policy": "file", "path": "guess.json"})
    path = write_doc(tmp_path, doc)
    (tmp_path / "guess.json").write_text(
        json.dumps({"X": [[0.0, 0.0]] * 4, "U": [[0.0]] * 3})
    )
    scenario = load_scenario(path)
    problem = build_problem(scenario)
    with pytest.raises(ScenarioError, match=r"\(4, 3\) do not match the problem \(11, 10\)"):
        build_warm_start(scenario, problem)


def test_unparsable_warm_start_file_names_its_field_file_and_line(tmp_path, capsys):
    path = write_doc(tmp_path, pendulum_doc(warm_start={"policy": "file", "path": "guess.json"}))
    (tmp_path / "guess.json").write_text('{"X": [1,')
    scenario = load_scenario(path)
    message = r"warm_start\.path: invalid warm-start JSON in .*guess\.json, line 1: "
    with pytest.raises(ScenarioError, match=message):
        build_warm_start(scenario, build_problem(scenario))
    rc = cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "error: warm_start.path: invalid warm-start JSON in " in capsys.readouterr().err


def test_file_warm_start_entries_are_checked(tmp_path, capsys):
    # The solver trusts the trajectories it is handed, so the file reader is
    # the only check on them: every fault names its field and exits 5.
    X = [[0.0, 0.0]] * 11
    U = [[0.0]] * 10
    cases = [
        ({"U": U}, r"warm_start\.path: warm-start file .*needs a list 'X'"),
        ({"X": X, "U": 0.5}, r"warm_start\.path: warm-start file .*needs a list 'U'"),
        ([X, U], r"warm_start\.path: warm-start file .*needs a list 'X'"),
        (
            {"X": X[:3] + [[0.0, 0.0, 0.0]] + X[4:], "U": U},
            r"X\[3\]: point must have shape \(2,\)",
        ),
        ({"X": X[:1] + [[0.0, "a"]] + X[2:], "U": U}, r"X\[1\]: could not convert"),
        ({"X": X, "U": U[:2] + [[0.0, 1.0]] + U[3:]}, r"U\[2\]: control must have shape \(1,\)"),
        # JSON's NaN and Infinity literals, and 1e999, which reads as inf.
        (
            {"X": X[:7] + [[np.nan, 0.0]] + X[8:], "U": U[:3] + [[np.inf]] + U[4:]},
            r"X\[7\]: entries must be finite, got \[nan, 0\.0\]",
        ),
        ({"X": X, "U": U[:3] + [[-np.inf]] + U[4:]}, r"U\[3\]: entries must be finite"),
        (
            json.dumps({"X": X, "U": U}).replace("[0.0]]", "[1e999]]"),
            r"U\[9\]: entries must be finite, got \[inf\]",
        ),
        ({"X": X, "U": U[:3] + [[10**400]] + U[4:]}, r"U\[3\]: int too large to convert to float"),
        # A scenario rejects numeric strings and booleans; so does the file.
        (
            {"X": X, "U": U[:4] + [["0.1"]] + U[5:]},
            r"U\[4\]: entries must be JSON numbers, got \['0\.1'\]",
        ),
        (
            {"X": X[:5] + [[0.0, True]] + X[6:], "U": U[:2] + [[False]] + U[3:]},
            r"X\[5\]: entries must be JSON numbers, got \[0\.0, True\]",
        ),
        # Bytes that are not UTF-8, and nesting deeper than the parser recurses.
        (b"\xff\xfe{}", r"warm_start\.path: cannot read warm start .*guess\.json: 'utf-8'"),
        ("[" * 100000 + "]" * 100000, r"cannot read warm start .*guess\.json: maximum recursion"),
    ]
    doc = pendulum_doc(warm_start={"policy": "file", "path": "guess.json"})
    for case, (payload, message) in enumerate(cases):
        # Each case in a directory of its own: no file is rewritten.
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        path = write_doc(case_dir, doc)
        text = payload if isinstance(payload, (str, bytes)) else json.dumps(payload)
        (case_dir / "guess.json").write_bytes(text if isinstance(text, bytes) else text.encode())
        scenario = load_scenario(path)
        with pytest.raises(ScenarioError, match=message):
            build_warm_start(scenario, build_problem(scenario))
        rc = cli.main(["solve", "--scenario", str(path), "--out", str(case_dir / "out")])
        assert rc == EXIT_CONFIG
        assert "warm_start.path: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# recorded optima
# ---------------------------------------------------------------------------

# Iterations and final cost of every bundled scenario under its own solver
# settings, and of pendulum_swingup under ddp, as recorded before the per-node
# hot path was rewritten; the rewrite must reproduce them.
RECORDED_OPTIMA = [
    ("lqr_chain", "fddp", 1, 4.298872388821676),
    ("double_integrator", "fddp", 1, 1.320221617866343),
    ("pendulum_swingup", "fddp", 11, 0.977644833854317),
    ("monoped_hop", "fddp", 11, 0.2648865161229211),
    ("monoped_hop_warmstart_infeasible", "fddp", 10, 0.22207745123763414),
    ("pendulum_swingup", "ddp", 12, 0.9776448337729345),
    ("lqr_chain", "ddp", 1, 4.298872388821676),
    ("double_integrator", "ddp", 1, 1.3202216178663428),
]

# The (step_length, accepted) row of every iteration of those solves, recorded
# from a node-by-node derivative evaluation: the stacked pass must reproduce it.
FULL_STEP = (1.0, 1)
RECORDED_LINE_SEARCHES = {
    ("lqr_chain", "fddp"): [FULL_STEP],
    ("double_integrator", "fddp"): [FULL_STEP],
    ("pendulum_swingup", "fddp"): [FULL_STEP] * 11,
    ("monoped_hop", "fddp"): [(0.25, 1), (0.5, 1), FULL_STEP, (0.5, 1)] + [FULL_STEP] * 7,
    ("monoped_hop_warmstart_infeasible", "fddp"): [(0.5, 1), (0.5, 1)] + [FULL_STEP] * 8,
    ("pendulum_swingup", "ddp"): [FULL_STEP] * 12,
    ("lqr_chain", "ddp"): [FULL_STEP],
    ("double_integrator", "ddp"): [FULL_STEP],
}


@pytest.mark.parametrize(
    "name, solver, iterations, final_cost",
    RECORDED_OPTIMA,
    ids=[f"{name}-{solver}" for name, solver, *_ in RECORDED_OPTIMA],
)
def test_bundled_scenarios_reach_their_recorded_optima(name, solver, iterations, final_cost):
    scenario, problem, X, U = load_and_build(bundled_scenario_path(name))
    options = scenario.solver_options
    _, _, report = solve(
        problem, X, U, solver=solver,
        max_iters=options["max_iters"], tolerance=options["tolerance"],
    )
    assert report.converged
    assert report.iterations == iterations
    assert report.final_cost == pytest.approx(final_cost, rel=1e-12, abs=0.0)
    line_search = [(row.step_length, row.accepted) for row in report.rows[1:]]
    assert line_search == RECORDED_LINE_SEARCHES[name, solver]


# The two monoped scenarios under ddp: long runs of many short steps, the most
# sensitive to rounding, pinned by how they end (termination, iterations and
# final cost at rel=1e-12) and by the step length of every iteration, each
# accepted, as halvings: alpha = 2^-h.
RECORDED_DDP_ENDS = [
    (
        "monoped_hop", "converged", 103, 0.2648865163642681,
        "6 6 5 9 9 9 4 7 7 7 7 7 7 7 2 4 4 4 4 5 5 4 4 4 4 3 5 6 6 6 6 6 6 6 5 4 4 4 4 4 3 3 3 3"
        " 3 3 3 1 2 2 2 2 1 2 2 2 1 0 0 0 0 0 0 1 1 2 2 2 3 3 3 3 4 4 4 4 4 4 4 4 4 4 4 4 3 3 3 2"
        " 2 2 2 2 2 2 1 0 0 0 0 0 0 0 0",
    ),
    (
        "monoped_hop_warmstart_infeasible", "max_iters", 40, 3.2950584011735367,
        "4 4 4 5 5 3 5 4 3 4 5 5 5 3 3 2 3 3 3 3 3 3 2 1 2 2 2 3 3 3 2 1 3 3 2 1 1 1 0 1",
    ),
]


@pytest.mark.parametrize(
    "name, termination, iterations, final_cost, halvings",
    RECORDED_DDP_ENDS,
    ids=[f"{name}-ddp" for name, *_ in RECORDED_DDP_ENDS],
)
def test_monoped_scenarios_under_ddp_end_as_recorded(
    name, termination, iterations, final_cost, halvings
):
    scenario, problem, X, U = load_and_build(bundled_scenario_path(name))
    options = scenario.solver_options
    _, _, report = solve(
        problem, X, U, solver="ddp",
        max_iters=options["max_iters"], tolerance=options["tolerance"],
    )
    assert report.termination == termination
    assert report.iterations == iterations
    line_search = [(row.step_length, row.accepted) for row in report.rows[1:]]
    assert line_search == [(0.5 ** int(h), 1) for h in halvings.split()]
    assert report.final_cost == pytest.approx(final_cost, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# CLI: solve
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_cli_solve_writes_trace_solution_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["solve", "--scenario", "double_integrator", "--out", str(out)])
    assert rc == EXIT_CONVERGED
    assert "converged" in capsys.readouterr().out

    header, rows = read_csv(out / "trace.csv")
    assert tuple(header) == TRACE_COLUMNS
    iterations = [int(r[0]) for r in rows]
    assert iterations == list(range(len(rows)))
    cost0 = float(rows[0][1])
    gap0 = float(rows[0][2])
    for r in rows:
        # Normalized columns recompute exactly from the raw ones.
        assert float(r[7]) == float(r[1]) / cost0
        assert float(r[8]) == (0.0 if gap0 == 0.0 else float(r[2]) / gap0)
    assert int(rows[-1][6]) == 1

    header, rows = read_csv(out / "solution.csv")
    assert header[:5] == ["node", "x0", "x1", "x2", "x3"]
    assert header[5:] == ["u0", "u1"]
    assert len(rows) == 51
    assert rows[-1][5] == "" and rows[-1][6] == ""
    # Terminal state reached the regulated origin reasonably closely.
    terminal = np.array([float(v) for v in rows[-1][1:5]])
    assert np.linalg.norm(terminal) < 0.2

    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "double_integrator"
    assert summary["termination"] == "converged"
    assert summary["solver"] == "fddp"
    assert summary["iterations"] >= 1
    assert summary["wall_time_s"] > 0.0


def test_cli_solve_solver_override(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(
        ["solve", "--scenario", "double_integrator", "--solver", "ddp", "--out", str(out)]
    )
    assert rc == EXIT_CONVERGED
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["solver"] == "ddp"
    # A classical run keeps every iterate feasible.
    _, rows = read_csv(out / "trace.csv")
    for r in rows:
        assert float(r[2]) <= 1e-12


def test_cli_solve_unwritable_output_exits_io(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = cli.main(
        ["solve", "--scenario", "double_integrator", "--out", str(blocker / "sub")]
    )
    assert rc == EXIT_IO
    assert "cannot write outputs" in capsys.readouterr().err


def test_cli_usage_errors_exit_config(capsys):
    # argparse's own status for a usage error, 2, is EXIT_MAX_ITERS here.
    assert cli.main(["solve", "--scenario", "lqr_chain", "--threads", "4"]) == EXIT_CONFIG
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
    assert cli.main(["solve", "--scenario", "lqr_chain", "--bogus"]) == EXIT_CONFIG
    assert cli.main(["solve"]) == EXIT_CONFIG
    assert "usage: fddp solve" in capsys.readouterr().err


def test_cli_entry_point_runs_as_a_module(tmp_path):
    # An exhausted iteration budget exits 2 with the first row written.
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "fddp",
            "solve",
            "--scenario",
            "pendulum_swingup",
            "--max-iters",
            "0",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_MAX_ITERS
    _, rows = read_csv(out / "trace.csv")
    assert len(rows) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "max_iters"
    assert summary["iterations"] == 0


def test_trace_floats_roundtrip_exactly(tmp_path, capsys):
    # The lqr_chain fddp start has open gaps, so both normalized columns
    # are read.
    out = tmp_path / "out"
    cli.main(["solve", "--scenario", "lqr_chain", "--out", str(out)])
    capsys.readouterr()
    _, rows = read_csv(out / "trace.csv")
    cost0, gap0 = float(rows[0][1]), float(rows[0][2])
    assert gap0 > 0.0
    for r in rows:
        for cell in r[1:6]:
            value = float(cell)
            assert repr(value) == cell
        # Normalized columns recompute exactly from the raw ones.
        assert float(r[7]) == float(r[1]) / cost0
        assert float(r[8]) == float(r[2]) / gap0


# ---------------------------------------------------------------------------
# CLI: check-derivatives
# ---------------------------------------------------------------------------


def test_check_derivatives_is_exact_on_linear_dynamics(capsys):
    rc = cli.main(
        ["check-derivatives", "--scenario", "lqr_chain", "--samples", "20", "--seed", "0"]
    )
    assert rc == EXIT_CONVERGED
    assert "derivative check passed" in capsys.readouterr().out
    scenario = load_scenario(bundled_scenario_path("lqr_chain"))
    problem = build_problem(scenario)
    for label, block, err in check_problem_derivatives(problem, samples=20, seed=0):
        if block in ("f_x", "f_u"):
            assert err <= 1e-9, (label, block, err)


def assert_audit_flags_only(monkeypatch, name, rows, change=1.0):
    """Audit pendulum_swingup at three samples with its first model's block
    `name` changed by `change` at the stack's `rows`: that block fails (a
    NaN error fails too) and no other does."""
    scenario = load_scenario(bundled_scenario_path("pendulum_swingup"))
    problem = build_problem(scenario)
    model = problem.running_models[0]
    calc_diff = model.calc_diff

    def corrupted_calc_diff(stack, X, U):
        calc_diff(stack, X, U)
        getattr(stack, name)[rows] += change
        return stack

    monkeypatch.setattr(model, "calc_diff", corrupted_calc_diff)
    results = check_problem_derivatives(problem, samples=3, seed=0)
    bad = [err for _, block, err in results if block == name]
    assert bad and not all(err <= DERIVATIVE_TOLERANCE for err in bad)
    assert all(err <= DERIVATIVE_TOLERANCE for _, block, err in results if block != name)


def test_corrupted_derivative_is_caught(monkeypatch):
    assert_audit_flags_only(monkeypatch, "f_u", slice(None))


def test_a_derivative_corrupted_at_the_last_sample_only_is_caught(monkeypatch):
    # The audit differentiates the samples as one stack: it must read every
    # sample's error, not only the first one's.
    assert_audit_flags_only(monkeypatch, "f_u", -1)


@pytest.mark.parametrize("change", [1.0, np.nan])
def test_a_control_hessian_corrupted_at_the_last_sample_only_is_caught(monkeypatch, change):
    # The audit checks the Hessian blocks the backward pass reads, at every
    # sample, and a NaN there fails like a large error.
    assert_audit_flags_only(monkeypatch, "l_uu", -1, change)


@pytest.mark.parametrize(
    "errors, worst",
    [((0.5,), "f_u at 5.000e-01"), ((np.nan,), "f_u at nan"), ((0.5, np.nan), "l_u at nan")],
    ids=["0.5", "nan", "0.5-nan"],
)
def test_check_derivatives_cli_reports_failures(monkeypatch, capsys, errors, worst):
    # A NaN error fails like a large one: every comparison with NaN is false.
    # The summary names a NaN block as the worst, wherever it comes.
    def fake_check(problem, samples=100, seed=0):
        blocks = zip(("f_u", "l_u"), errors)
        return [("node 0 (IntegratedActionModel)", block, err) for block, err in blocks]

    monkeypatch.setattr(cli, "check_problem_derivatives", fake_check)
    rc = cli.main(["check-derivatives", "--scenario", "pendulum_swingup"])
    assert rc == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out.count("FAIL") == len(errors)
    assert f"{len(errors)} block(s) over" in captured.err
    assert f"worst node 0 (IntegratedActionModel) {worst}" in captured.err


def test_check_derivatives_bad_scenario_exits_config(tmp_path, capsys):
    rc = cli.main(["check-derivatives", "--scenario", str(tmp_path / "nope.json")])
    assert rc == EXIT_CONFIG
    capsys.readouterr()


def test_check_derivatives_exits_config_when_a_model_cannot_be_evaluated(tmp_path, capsys):
    # A damping torque of 1e308 times a speed near 10 overflows: the document
    # passes loading and assembly (each parameter and derived constant is
    # finite), and only an evaluation meets the non-finite dynamics. The
    # audit reports the library error with exit 5 and no traceback.
    doc = pendulum_doc(model={"id": "pendulum", "params": {"damping": 1e308}}, x0=[0.0, 10.0])
    path = write_doc(tmp_path, doc)
    rc = cli.main(["check-derivatives", "--scenario", str(path), "--samples", "2"])
    assert rc == EXIT_CONFIG
    assert "error: non-finite dynamics terms" in capsys.readouterr().err


def test_check_derivatives_needs_a_sample(capsys):
    for samples in ("0", "-1"):
        rc = cli.main(["check-derivatives", "--scenario", "lqr_chain", "--samples", samples])
        assert rc == EXIT_CONFIG
        assert "error: --samples must be >= 1" in capsys.readouterr().err


def test_check_derivatives_rejects_a_negative_seed(capsys):
    rc = cli.main(["check-derivatives", "--scenario", "lqr_chain", "--seed", "-1"])
    assert rc == EXIT_CONFIG
    assert "error: --seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, message",
    [(f"--tol={tol}", "tolerance must be finite and > 0") for tol in ("-1", "0", "nan")]
    + [("--max-iters=-3", "max_iters must be an integer >= 0")],
)
def test_cli_solve_rejects_a_solver_option_out_of_range(tmp_path, capsys, option, message):
    argv = ["solve", "--scenario", "pendulum_swingup", option, "--out", str(tmp_path)]
    assert cli.main(argv) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


UNKNOWN_FIELD_PATHS = [
    (lambda d: d, "bogus"),
    (lambda d: d["model"], "model.bogus"),
    (lambda d: d["phases"][2], "phases[2].bogus"),
    (lambda d: d["phases"][0]["contacts"][0], "phases[0].contacts[0].bogus"),
    (lambda d: d["switches"][0], "switches[0].bogus"),
    (lambda d: d["switches"][0]["contacts"][0], "switches[0].contacts[0].bogus"),
    (lambda d: d["costs"], "costs.bogus"),
    (lambda d: d["costs"]["running"][1], "costs.running[1].bogus"),
    (lambda d: d["costs"]["terminal"][0], "costs.terminal[0].bogus"),
    (lambda d: d["warm_start"], "warm_start.bogus"),
    (lambda d: d["solver"], "solver.bogus"),
]


@pytest.mark.parametrize(
    "place, where", UNKNOWN_FIELD_PATHS, ids=[where for _, where in UNKNOWN_FIELD_PATHS]
)
def test_unknown_fields_are_rejected_with_their_path(tmp_path, capsys, place, where):
    # One unknown key at one level of the hop document: both commands exit 5
    # and name its field path, before anything is solved.
    doc = json.loads(bundled_scenario_path("monoped_hop").read_text())
    place(doc)["bogus"] = 1
    path = str(write_doc(tmp_path, doc))
    for argv in (
        ["solve", "--scenario", path, "--out", str(tmp_path / "out")],
        ["check-derivatives", "--scenario", path, "--samples", "1"],
    ):
        assert cli.main(argv) == EXIT_CONFIG
        assert f"error: {where}: unknown field 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dependent_contact_rows_are_rejected_at_assembly(tmp_path, capsys):
    # The pendulum's 2-D tip pin on its one joint: more rows than velocities.
    # The monoped's foot pinned twice: four rows within its five velocities,
    # but of rank two. Both commands reject the phase or the switch that
    # imposes them, with exit 5 and the field path, whatever the warm start.
    pinned = pendulum_doc(phases=[{"start": 0, "end": 10, "contacts": [tip()]}])
    switched = pendulum_doc(
        phases=[{"start": 0, "end": 5}, {"start": 5, "end": 10, "contacts": [tip()]}],
        switches=[{"node": 5}],
    )
    foot = {"frame": "foot", "reference": [0.0, 0.0]}
    monoped = json.loads(bundled_scenario_path("monoped_hop").read_text())
    stance, *rest = monoped["phases"]
    pinned_twice = dict(monoped, phases=[dict(stance, contacts=[foot, foot]), *rest])
    switched_twice = dict(monoped, switches=[dict(monoped["switches"][0], contacts=[foot, foot])])
    excess = "2 constraint rows exceed the model's 1 velocity coordinates"
    dependent = "the 4 constraint rows are dependent at the initial configuration"
    for doc, where, message in (
        (pinned, r"phases\[0\]\.contacts", excess),
        (switched, r"switches\[0\]\.contacts", excess),
        (pinned_twice, r"phases\[0\]\.contacts", dependent),
        (switched_twice, r"switches\[0\]\.contacts", dependent),
    ):
        with pytest.raises(ScenarioError, match=where + ": " + message):
            build_problem(load_scenario(write_doc(tmp_path, doc)))
        for policy in ("zeros", "quasi_static_interpolation"):
            path = str(write_doc(tmp_path, dict(doc, warm_start={"policy": policy})))
            for argv in (
                ["solve", "--scenario", path, "--out", str(tmp_path / "out")],
                ["check-derivatives", "--scenario", path],
            ):
                assert cli.main(argv) == EXIT_CONFIG
                assert re.search("error: " + where + ": " + message, capsys.readouterr().err)


# ---------------------------------------------------------------------------
# the validation boundary under fuzzing
# ---------------------------------------------------------------------------

# One field of the hop document each, which escaped both commands as Python
# tracebacks with exit 1 before the loader read each object once, and the
# field path each is now reported at.
ESCAPED_INPUTS = [
    (lambda d: d.update(switches=5), "switches"),
    (lambda d: d["phases"][0].update(contacts=5), r"phases\[0\]\.contacts"),
    (lambda d: d["switches"][0].update(contacts=5), r"switches\[0\]\.contacts"),
    (lambda d: d["costs"].update(running=5), r"costs\.running"),
    (lambda d: d["costs"]["running"][0].update(scales="x"), r"costs\.running\[0\]\.scales"),
    (lambda d: d["costs"]["running"][0].update(reference="x"), r"costs\.running\[0\]\.reference"),
    (
        lambda d: d["costs"]["running"].append(
            {"kind": "frame_translation_tracking", "weight": 1.0, "frame": "foot",
             "reference": "nominal"}
        ),
        r"costs\.running\[2\]\.reference",
    ),
    (lambda d: d.update(warm_start={"policy": "file", "path": 5}), r"warm_start\.path"),
    (
        lambda d: d["costs"]["running"].append(
            {"kind": "com_tracking", "weight": 1.0, "reference": [0.0, 0.5, 0.0]}
        ),
        r"costs\.running\[2\]",
    ),
    (
        lambda d: d["phases"][0]["contacts"][0]["reference"].pop(),
        r"phases\[0\]\.contacts\[0\]\.reference",
    ),
]


def hop_document(mutate):
    doc = json.loads(bundled_scenario_path("monoped_hop").read_text())
    mutate(doc)
    return doc


def cli_runs(path, tmp_path):
    """Each command on a scenario file, with the exit codes it may return
    (see the cli module docstring): check-derivatives never ends a solve."""
    yield ["solve", "--scenario", path, "--max-iters", "1", "--out", str(tmp_path / "out")], {
        EXIT_CONVERGED, EXIT_MAX_ITERS, EXIT_SOLVER_FAILURE, EXIT_CONFIG
    }
    yield ["check-derivatives", "--scenario", path, "--samples", "1"], {EXIT_CONVERGED, EXIT_CONFIG}


@pytest.mark.parametrize(
    "mutate, where", ESCAPED_INPUTS, ids=[re.sub(r"\\", "", where) for _, where in ESCAPED_INPUTS]
)
def test_malformed_fields_exit_config_at_their_path(tmp_path, capsys, mutate, where):
    path = str(write_doc(tmp_path, hop_document(mutate)))
    for argv, _ in cli_runs(path, tmp_path):
        assert cli.main(argv) == EXIT_CONFIG
        assert re.match(f"error: {where}: ", capsys.readouterr().err)


# Sizes past what can be allocated, each of which fails before anything is:
# a horizon beyond the index range, and arrays numpy refuses outright.
OVERSIZED_INPUTS = [
    ("pendulum_swingup", lambda d: d.update(horizon=10**30), "horizon"),
    ("double_integrator", lambda d: d["model"]["params"].update(dim=1e18), r"model\.params"),
    ("lqr_chain", lambda d: d["model"]["params"].update(masses=1e18), r"model\.params"),
]


@pytest.mark.parametrize(
    "name, mutate, where", OVERSIZED_INPUTS, ids=[name for name, _, _ in OVERSIZED_INPUTS]
)
def test_sizes_too_large_to_allocate_exit_config_at_their_path(
    tmp_path, capsys, name, mutate, where
):
    doc = json.loads(bundled_scenario_path(name).read_text())
    mutate(doc)
    path = str(write_doc(tmp_path, doc))
    for argv, _ in cli_runs(path, tmp_path):
        assert cli.main(argv) == EXIT_CONFIG
        assert re.match(f"error: {where}: ", capsys.readouterr().err)


def test_a_horizon_too_large_to_lay_out_exits_config_at_horizon(tmp_path, capsys, monkeypatch):
    # The node data set of monoped_hop at a horizon of 10**7 needs about
    # 10 GiB. The refusal is simulated: a machine with more memory may grant
    # the allocation lazily, so the test never asks for it.
    def refuse(model, n):
        raise MemoryError(f"Unable to allocate the stack of {n} nodes")

    monkeypatch.setattr(action.ActionModelBase, "create_stack", refuse)
    scenario = load_scenario(bundled_scenario_path("monoped_hop"))
    with pytest.raises(ScenarioError, match="horizon too large") as raised:
        build_problem(scenario)
    assert raised.value.location == "horizon"
    path = str(bundled_scenario_path("monoped_hop"))
    for argv, _ in cli_runs(path, tmp_path):
        assert cli.main(argv) == EXIT_CONFIG
        assert re.match("error: horizon: horizon too large", capsys.readouterr().err)


def field_paths(value, path=()):
    """Every field path of a JSON value: the keys of its objects and the
    indices of its lists, at every depth."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def out_of_range(value):
    """A negative number for a number, an emptied list, object or string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return -1 - abs(value)
    return type(value)()


# Each mutation replaces the field's value with the result, or drops the field.
MUTATIONS = {
    "drop": None,
    "int": lambda value: 7,
    "string": lambda value: "x",
    "bool": lambda value: True,
    "nested list": lambda value: [[1]],
    "out of range": out_of_range,
}
FUZZ_CASES_PER_DOCUMENT = 30
FIELD_PATH = re.compile(r"error: [A-Za-z_]\w*(\[\d+\])*(\.\w+(\[\d+\])*)*: ")


def test_fuzzed_documents_exit_with_documented_codes(tmp_path, capsys):
    # Seeded samples of (field path, mutation) over every bundled document:
    # both commands exit only with their documented codes, never raise, and
    # name a field path when they exit 5.
    rng = np.random.default_rng(15)
    cases = []
    for name in BUNDLED_SCENARIOS:
        doc = json.loads(bundled_scenario_path(name).read_text())
        fields = list(field_paths(doc))
        draws = rng.choice(len(fields) * len(MUTATIONS), FUZZ_CASES_PER_DOCUMENT, replace=False)
        for draw in draws:
            *parents, key = fields[draw // len(MUTATIONS)]
            how, change = list(MUTATIONS.items())[draw % len(MUTATIONS)]
            mutated = copy.deepcopy(doc)
            parent = mutated
            for step in parents:
                parent = parent[step]
            if change is None:
                del parent[key]
            else:
                parent[key] = change(parent[key])
            cases.append((f"{name} {how} {[*parents, key]}", mutated))
    faults = []
    for case, (label, doc) in enumerate(cases):
        # Each case in a directory of its own: no file is rewritten.
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        path = str(write_doc(case_dir, doc))
        for argv, codes in cli_runs(path, case_dir):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - any escape is the fault under test
                faults.append(f"{label}, {argv[0]}: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            if rc not in codes or (rc == EXIT_CONFIG and not FIELD_PATH.match(err)):
                faults.append(f"{label}, {argv[0]}: exit {rc}, {err.strip()!r}")
            if "Traceback" in err:
                faults.append(f"{label}, {argv[0]}: printed a traceback")
    assert not faults, "\n".join(faults)
