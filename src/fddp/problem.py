"""Multiple-shooting problem container: node models, rollouts, and gaps.

A problem is the measured initial state, N running action models, and one
terminal model, all sharing a state manifold. Evaluating a state/control guess
produces the total cost and the per-node dynamics gaps: the tangent-space
mismatch between where each node's dynamics lands and where the guess says the
next state is (plus the mismatch between the guess and the measured initial
state at node 0).

`check_trajectories` is the validation boundary for guesses: `calc` and
`rollout` call it on entry for outside callers, and `solve` calls it once
and then evaluates through the unchecked `_calc`, `_sweep` and
`_cost_and_gaps`. Nothing below them checks a state or a control again,
and there a trajectory is two arrays: the states X (N + 1, nx) and the
controls U (N, nu_max), zero-padded (`stack_controls`, once, on entry);
node k reads `U[k, :nu_k]`.

The nodes' one layout is `runs`, (model, lo, hi) for each run of
consecutive nodes that share a model (a scenario shares one per (phase,
dt)); every stacked pass takes a run's slice lo:hi. It gives the problem's
one data set: `stacks`, one `ActionDataStack` per run (a model met again
after another run gets one per run) and the terminal node's stack of one
last, whose rows are the running nodes' containers `datas`, in node order.
Every evaluation writes there: a solve's start, its line-search trials and
`rollout`. A node's `calc` writes only its landing point and its dynamics'
solution (`xnext`, `dyn`) into its row (a failing node raises
`NumericalFailure` naming it), and `calc_diff` only the derivatives (`Fz`,
`Lz`). So an iterate's derivatives outlive the trials swept after it, but
`calc_diff` reads `dyn`: it must follow the last sweep, at the same
(X, U).

`_sweep` is the one chained rollout, of the ddp start, `rollout` and
both forward passes; `_calc`, the fddp start and `calc`, makes one
`calc_stack` call per run at the guessed states, the one node step at
given points. A sweep cuts its nodes' control rows in bulk, and without
a pull-back each node steps from the previous node's output in its
stack, copied into the states once per run at the end; it looks each
node's `calc` up on its model at every step, so a method patched between
two solves sees every call. After the nodes are stepped,
`_cost_and_gaps` makes one stacked `model.cost` call per run and one for
the terminal node, copies the landing points from the stacks and takes
one difference of the stacked states; `calc_diff` makes one stacked pass
for each run, reading the solutions in its stack.
"""

from __future__ import annotations

import numpy as np

from .action import ActionModelBase
from .errors import DimensionMismatch, NumericalFailure, finite


class ShootingProblem:
    """Initial constraint, N running models, and a terminal cost model."""

    def __init__(self, x0_measured, running_models, terminal_model: ActionModelBase):
        running_models = list(running_models)
        if len(running_models) < 1:
            raise DimensionMismatch("a shooting problem needs at least one running model")
        # (model, first node, end) of each run of consecutive nodes that share a model.
        ends = [k for k in range(1, len(running_models)) if running_models[k] is not running_models[k - 1]]
        ends.append(len(running_models))
        self.runs = [(running_models[lo], lo, hi) for lo, hi in zip([0, *ends], ends)]
        state = terminal_model.state
        # Each distinct model's manifold is compared once, in node order, so
        # the first offending model's first node is the first offending node.
        for model, lo in self.first_nodes().items():
            if model.state != state:
                raise DimensionMismatch(f"running model {lo} lives on a different manifold")
        self.state = state
        self.running_models = running_models
        self.terminal_model = terminal_model
        self.x0_measured = state.check_point(finite("x0", x0_measured, DimensionMismatch))
        self.N = len(running_models)
        nus = np.array([model.nu for model in running_models])
        self.nus, self.nu_max = nus.tolist(), int(nus.max())
        # Node k's controls in a stacked (N, nu_max) array: row k's first nu_k.
        self.control_slots = np.arange(self.nu_max) < nus[:, None]
        self.ndx = state.ndx
        # The one data set: a stack per run, in node order, then the terminal
        # node's stack of one; the running nodes' containers are their rows.
        self.stacks = [model.create_stack(hi - lo) for model, lo, hi in self.runs]
        self.stacks.append(terminal_model.create_stack(1))
        self.datas = [data for stack in self.stacks[:-1] for data in stack.nodes]

    # -- validation ------------------------------------------------------------

    def check_trajectories(self, X, U):
        """Check a guess where it enters; returns the states stacked
        (N + 1, nx), a new array, and the controls stacked by
        `stack_controls`.

        X must hold N + 1 points of the state manifold and U[k] must have
        shape (nu_k,); an error names the offending X[k] or U[k]. X is None
        for a rollout, which takes only controls. The states are converted
        in one call; only a guess that fails it is walked entry by entry, to
        name the first bad X[k].
        """
        if X is not None:
            if len(X) != self.N + 1:
                raise DimensionMismatch(f"X must hold {self.N + 1} states, got {len(X)}")
            try:
                states = np.array(X, dtype=float)
                checked = states.shape == (self.N + 1, self.state.nx)
            except (ValueError, TypeError, OverflowError):
                checked = False
            if not checked:
                check = self.state.check_point
                states = np.array([_entry(f"X[{k}]", check, x) for k, x in enumerate(X)])
            X = states
        return X, self.stack_controls(U)

    # -- evaluation ------------------------------------------------------------

    def rollout(self, U) -> np.ndarray:
        """Integrate the controls from the measured initial state (feasible X),
        leaving the data set as calc at (X, U) would."""
        return self._sweep(None, self.check_trajectories(None, U)[1])[0]

    def _sweep(self, X, U, gains=None, alpha=0.0, pull=None):
        """The one chained rollout, of controls U (N, nu_max) checked by
        check_trajectories: the states (N + 1, nx) and the controls it steps.
        Without `gains` node k takes U[k] and X is not read; with them (node
        k's [k | K]) it takes U_k + [k | K] [alpha; x_k - X_k] into new
        zero-padded controls. `pull` (N + 1, ndx) moves the initial state and
        each output before it becomes the next state. A failing node raises
        `NumericalFailure` naming it."""
        state = self.state
        states = np.empty((self.N + 1, state.nx))
        x = states[0]
        x[:] = self.x0_measured if pull is None else state.integrate(self.x0_measured, pull[0])
        controls = U if gains is None else np.zeros_like(U)
        z = np.full(self.ndx + 1, alpha)  # [alpha; dx], dx written per node
        dx = z[1:]
        rows = self.node_rows(lambda nu: (controls[:, :nu], U[:, :nu]))
        for k, (model, data, (u, u_in)) in enumerate(zip(self.running_models, self.datas, rows)):
            if gains is not None and model.nu:
                state.difference(X[k], x, out=dx)
                np.add(u_in, gains[k] @ z, out=u)
            try:
                model.calc(data, x, u)
            except NumericalFailure as exc:
                raise NumericalFailure(str(exc), node=k) from exc
            # Without a pull, the next node steps from this output in the stack.
            x = data.xnext if pull is None else state.integrate(data.xnext, pull[k + 1], out=states[k + 1])
        if pull is None:
            for (_, lo, hi), stack in zip(self.runs, self.stacks):
                states[lo + 1 : hi + 1] = stack.xnext
        return states, controls

    def calc(self, X, U) -> tuple[float, np.ndarray]:
        """Total cost and dynamics gaps of a (possibly infeasible) guess.

        gaps[0] is the measured initial state minus the guessed one; gaps[k+1]
        is where node k's dynamics lands minus the guessed X[k+1], both as
        tangent vectors at the guessed states.
        """
        return self._calc(*self.check_trajectories(X, U))

    def _calc(self, X, U) -> tuple[float, np.ndarray]:
        """calc of a stacked guess that check_trajectories has already checked:
        one calc_stack per run at the guessed states."""
        for (model, lo, hi), stack in zip(self.runs, self.stacks):
            try:
                model.calc_stack(stack, X[lo:hi], U[lo:hi, : model.nu])
            except NumericalFailure as exc:
                raise NumericalFailure(str(exc), node=lo + exc.row) from exc
        return self._cost_and_gaps(X, U)

    def _cost_and_gaps(self, X, U) -> tuple[float, np.ndarray]:
        """Total cost and gaps of the stacked states X (N + 1, nx) and
        controls U (N, nu_max), after the evaluation that left each node's
        landing point in the stacks: one stacked cost call per run and one
        for the terminal node, one difference of the states. A non-finite
        total names the first node, in node order, whose own cost is not
        finite (none when only the sum overflowed)."""
        cost = 0.0
        node_costs = np.empty(self.N + 1)
        for model, lo, hi in self.runs:
            run_costs = node_costs[lo:hi] = model.cost(X[lo:hi], U[lo:hi, : model.nu])
            cost += run_costs.sum()
        node_costs[self.N] = self.terminal_model.cost(X[self.N :], _NO_CONTROLS)[0]
        cost = float(cost + node_costs[self.N])
        if not np.isfinite(cost):
            bad = np.flatnonzero(~np.isfinite(node_costs))
            raise NumericalFailure("non-finite total cost", node=int(bad[0]) if len(bad) else None)
        landed = np.empty_like(X)
        landed[0] = self.x0_measured
        for (_, lo, hi), stack in zip(self.runs, self.stacks):
            landed[lo + 1 : hi + 1] = stack.xnext
        return cost, self.state.difference(X, landed)

    def calc_diff(self, X, U):
        """Evaluate all node derivatives at the stacked guess X (N + 1, nx),
        U (N, nu_max): one stacked pass per run, then the terminal node's.

        Reads the solutions calc at (X, U) left in the same stacks; the
        terminal node reads only X. A node's numerical failures surface in
        calc, which runs first.
        """
        for (model, lo, hi), stack in zip(self.runs, self.stacks):
            model.calc_diff(stack, X[lo:hi], U[lo:hi, : model.nu])
        self.terminal_model.calc_diff(self.stacks[-1], X[self.N :], _NO_CONTROLS)

    def stack_controls(self, U) -> np.ndarray:
        """The nodes' controls U, one (nu_k,) entry per node, checked and
        stacked as one (N, nu_max) array, each row zero-padded past its
        node's nu. The entries are converted in one concatenation; only a
        list that fails it is walked entry by entry, to name the first bad
        U[k]."""
        if len(U) != self.N:
            raise DimensionMismatch(f"U must hold {self.N} controls, got {len(U)}")
        try:
            flat = np.concatenate(U, dtype=float)
            checked = flat.ndim == 1 and list(map(len, U)) == self.nus
        except (ValueError, TypeError, OverflowError):
            checked = False
        if not checked:
            entries = enumerate(zip(U, self.nus))
            flat = np.concatenate([_entry(f"U[{k}]", _check_control, *entry) for k, entry in entries])
        array = np.zeros((self.N, self.nu_max))
        array[self.control_slots] = flat
        return array

    # -- convenience -----------------------------------------------------------

    def node_rows(self, cut) -> list[tuple]:
        """Node k's rows k of the stacked arrays cut(nu_k), each (N, ...), as
        a tuple: one cut per run, whose rows are taken only over the run."""
        rows = []
        for model, lo, hi in self.runs:
            rows += zip(*[array[lo:hi] for array in cut(model.nu)])
        return rows

    def first_nodes(self) -> dict:
        """Each distinct running model and its first node, in node order;
        models hash by identity."""
        first = {}
        for model, lo, _ in self.runs:
            first.setdefault(model, lo)
        return first

    def node_controls(self, U) -> list[np.ndarray]:
        """The stacked controls U (N, nu_max) as the nodes' list: row k cut to
        node k's nu_k, a view."""
        return [u for u, in self.node_rows(lambda nu: (U[:, :nu],))]

    def zero_controls(self) -> list[np.ndarray]:
        return self.node_controls(np.zeros((self.N, self.nu_max)))

    def constant_state_guess(self) -> list[np.ndarray]:
        return list(np.tile(self.x0_measured, (self.N + 1, 1)))


# The controls of the terminal node, a stack of one.
_NO_CONTROLS = np.zeros((1, 0))


def _check_control(u, nu: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (nu,):
        raise DimensionMismatch(f"control must have shape ({nu},), got {u.shape}")
    return u


def _entry(where: str, check, *args):
    """check(*args), with a failure re-raised as a DimensionMismatch naming where."""
    try:
        return check(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        raise DimensionMismatch(f"{where}: {exc}") from exc


def gap_l2_norm(gaps) -> float:
    """L2 norm over the stacked tangent coordinates of every gap."""
    return float(np.linalg.norm(gaps))
