"""Discrete-time action models built from continuous dynamics and cost terms.

Three dynamics families are wrapped here: free mechanical systems (acceleration
from the mass matrix and bias forces), mechanical systems with rigid frame
constraints (acceleration from a KKT solve, see the contact utilities), and
explicitly linear first-order flows used as solver oracles (a `LinearDynamics`
system, taken as it is). Mechanical models are discretized with a
semi-implicit (symplectic) Euler step, linear flows with an explicit Euler
step so their discrete Jacobians are exact.

Models are immutable after construction; each evaluation writes into a separate
data container, so one model can serve many nodes.

The model contract has four calls. `calc(data, x, u)` evaluates one node's
dynamics only, its forward step `xnext`, at x (nx,) and u (nu,), and keeps in
`dyn` the solution that `calc_diff` reads: a free node its acceleration, a
contact node its (acceleration, force) pair, an impulse node its
(post-impact velocity, impulse) pair; a node keeps no factor of its solve.
`data` is the node's row of its `ActionDataStack`, so both land in the
stack. Its dynamics make one system call, `forward_terms` (free dynamics
over a constant inertia, which they factor once, only `bias`), whose M,
bias and frame terms the dynamics, the contacts and the impulse share, and
check each quantity for non-finite values once: the contact and impulse
solves their inputs and results, the free dynamics M (a constant one when
the system is built), the torque and the acceleration.
`calc_stack(stack, X, U)` does the same for the n nodes of a stack: node by
node through `calc`, so a failing node raises what `calc` raises (with its
row as the error's `row`); it is every model's one node step at given
points, which the fddp start, the warm start's fallback and the
derivative audit take.
The quasi-static warm start (`quasi_static_control`) takes its runs'
accelerations at rest from one checked saddle-point solve each instead,
and steps a run node by node only where that solve gives up.
`cost(X, U)` returns the costs (n,) of n nodes at X (n, nx), U (n, nu), in
one stacked pass over the cost terms' residuals; no node's `calc` computes
its cost. `calc_diff(stack, X, U)` evaluates the derivatives of all n nodes
in an `ActionDataStack` at once, reading the solutions in `stack.dyn`; it
must follow `calc_stack`, or `calc` on each node, at the same points (the
terminal model's reads nothing of them, so the solve never calls its
`calc`).
Constructors check their arguments; `calc`, `calc_stack`, `cost` and
`calc_diff` do not, as the entry points (`ShootingProblem.check_trajectories`,
the scenario loader) guarantee the shapes.

`calc_diff` overwrites the stacks `Fz` and `Lz` of `ActionDataStack` in
place, through their named views f_x, f_u, l_x, l_u, l_xx, l_xu,
l_ux (= l_xu^T) and l_uu. Column 0 of `Fz` = [gap | f_x | f_u] is not a
derivative: the solver's backward pass writes each node's dynamics gap
there, and no model reads or writes it. Each node's `ActionData` fields of
those names are views of its row, so per-node readers (the backward pass)
need no copy, and a caller that keeps a block across two `calc_diff` calls
must copy it. Every model's `calc_diff` is array
operations on the whole stack, with no loop over its nodes: contact and
impulse models make one stacked KKT elimination for all of them. Constant
blocks (identity parts, linear-flow Jacobians) are built once, in the
constructors.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .contact import (
    ContactSet,
    _all_finite,
    _cholesky,
    _cholesky_solve,
    _kkt_solve_checked,
    baumgarte_a0,
    contact_dynamics_derivatives,
    contact_forward_dynamics,
    impulse_dynamics,
    impulse_dynamics_derivatives,
)
from .costs import CostTerm
from .errors import DimensionMismatch, FddpError, NumericalFailure, finite
from .manifolds import Manifold
from .systems import LinearDynamics, MechanicalSystem

QUASI_STATIC_TOL = 1e-6
_QUASI_STATIC_DAMPING = 1e-10

# The control of a node that has none (terminal and impulse nodes).
_NO_CONTROL = np.zeros(0)


class _DerivativeBlocks:
    """The named derivative blocks of `Fz` = [gap | f_x | f_u] (.., ndx, nz + 1)
    and `Lz` = [l_z | l_zz] (.., nz, nz + 1) over z = (x, u), each gradient
    in column 0 and its matrix in the columns after: views of a stack, or of
    one node's row. Column 0 of `Fz`, the node's dynamics gap, belongs to
    the solver's backward pass. The names cannot be rebound, so a block is
    written in place (`data.l_uu[:] = ...`); a rebinding, which would leave
    the stack unchanged, raises."""

    ndx = property(lambda d: d.Fz.shape[-2])
    f_x = property(lambda d: d.Fz[..., 1 : d.ndx + 1])
    f_u = property(lambda d: d.Fz[..., d.ndx + 1 :])
    l_x = property(lambda d: d.Lz[..., : d.ndx, 0])
    l_u = property(lambda d: d.Lz[..., d.ndx :, 0])
    l_xx = property(lambda d: d.Lz[..., : d.ndx, 1 : d.ndx + 1])
    l_xu = property(lambda d: d.Lz[..., : d.ndx, d.ndx + 1 :])
    l_ux = property(lambda d: d.Lz[..., d.ndx :, 1 : d.ndx + 1])
    l_uu = property(lambda d: d.Lz[..., d.ndx :, d.ndx + 1 :])


class ActionDataStack(_DerivativeBlocks):
    """The forward steps, the dynamics' solutions and the derivative stacks of
    n nodes that share one model, and their nodes.

    `calc_stack` fills `xnext` (n, nx) and `dyn` for all n nodes,
    `calc_diff` reads `dyn` and fills `Fz` and `Lz`, so the backward pass
    takes each node's blocks in one product. `dyn` holds the parts of the
    solution `calc_diff` reads, one (n, size) array per part of the model's
    `dyn_sizes`: a free node's acceleration, a contact node's (acceleration,
    force), an impulse node's (post-impact velocity, impulse), nothing for
    a linear flow or the terminal node. `nodes[i]` is node i's `ActionData`,
    whose fields are views of row i, all made on first use in one pass over
    the rows of the stack's arrays, for the node-by-node `calc_stack` and
    the backward pass. The nodes do not refer back to the stack, so no
    reference cycle outlives a data set.
    """

    def __init__(self, model: "ActionModelBase", n: int):
        nz = model.ndx + model.nu
        self.Fz = np.zeros((n, model.ndx, nz + 1))
        self.Lz = np.zeros((n, nz, nz + 1))
        self.xnext = np.zeros((n, model.state.nx))
        self.dyn = tuple(np.zeros((n, size)) for size in model.dyn_sizes)

    @cached_property
    def nodes(self) -> list["ActionData"]:
        return list(map(ActionData, self.Fz, self.Lz, self.xnext, *self.dyn))


class ActionData(_DerivativeBlocks):
    """One node's row of an `ActionDataStack`, which the node call `calc` fills.

    `Fz`, `Lz`, `xnext` and the parts of `dyn` are the node's rows of the
    stack's arrays, and the derivative blocks are views of `Fz` and `Lz`, all
    written in place; `xnext`, `dyn` and the blocks cannot be rebound, which
    would leave the stack unchanged.
    """

    xnext = property(lambda d: d._xnext)
    dyn = property(lambda d: d._dyn)

    def __init__(self, Fz, Lz, xnext, *dyn):
        self.Fz, self.Lz, self._xnext, self._dyn = Fz, Lz, xnext, dyn


# ---------------------------------------------------------------------------
# Continuous-time dynamics
# ---------------------------------------------------------------------------


class DifferentialDynamics:
    """Base for second-order dynamics: acceleration(x, u) plus its partials."""

    system: MechanicalSystem

    def __init__(self, system: MechanicalSystem):
        self.system = system
        self.state = system.state
        self.nu = system.nu

    def acceleration(self, x, u, data: ActionData) -> np.ndarray:
        """One node's acceleration (nv,) at x, u; its solution goes to data.dyn."""
        raise NotImplementedError

    def partials(self, stack: ActionDataStack, X, U):
        """Stacked tangent-space partials (a_q, a_v, a_u), each (n, nv, ·), of
        the n nodes of `stack`, from the solutions in stack.dyn."""
        raise NotImplementedError


class FreeMechanicalDynamics(DifferentialDynamics):
    """Unconstrained acceleration: M(q) vdot = S u - bias(q, v).

    A constant inertia (`system.constant_inertia`, checked when the system
    was built) is factored here once, so a node step evaluates only the bias.
    """

    def __init__(self, system: MechanicalSystem):
        super().__init__(system)
        self.dyn_sizes = (system.nv,)
        M = system.constant_inertia
        self._factor = None if M is None else _cholesky(M)

    def acceleration(self, x, u, data):
        sys, factor = self.system, self._factor
        q, v = x[: sys.nq], x[sys.nq :]
        if factor is None:
            M, bias = sys.forward_terms(q, v)[:2]
            tau = sys.actuation() @ u - bias
            if not _all_finite(M, tau):
                raise NumericalFailure("non-finite dynamics terms")
            try:
                factor = _cholesky(M)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure("inertia factorization failed") from exc
        else:  # a constant inertia, checked when the system was built
            tau = sys.actuation() @ u - sys.bias(q, v)
            if not _all_finite(tau):
                raise NumericalFailure("non-finite dynamics terms")
        vdot = _cholesky_solve(factor, tau)
        if not _all_finite(vdot):
            raise NumericalFailure("non-finite acceleration in forward integration")
        data.dyn[0][:] = vdot
        return vdot

    def partials(self, stack, X, U):
        # M a_x = -(d bias/dx + d(M vdot)/dx) and M a_u = S, for all nodes in
        # one batched solve on the stacked mass matrices.
        sys = self.system
        nq, nv = sys.nq, sys.nv
        q, v = X[:, :nq], X[:, nq:]
        vdot = stack.dyn[0]
        bq, bv = sys.bias_partials(q, v)
        mc = sys.inertia_contraction_partial(q, vdot)
        actuation = np.broadcast_to(sys.actuation(), bq.shape[:-1] + (self.nu,))
        a = np.linalg.solve(sys.mass_matrix(q), np.concatenate([-(bq + mc), -bv, actuation], -1))
        return a[..., :nv], a[..., nv : 2 * nv], a[..., 2 * nv :]


class ConstrainedMechanicalDynamics(DifferentialDynamics):
    """Acceleration under rigid frame constraints, via the primal-dual solve.

    Each active contact pins one system frame with Baumgarte-stabilized
    acceleration targets; the constraint-space reaction is eliminated through
    the factored saddle-point system.
    """

    def __init__(self, system: MechanicalSystem, contacts: ContactSet):
        super().__init__(system)
        self.contacts = contacts
        self.dyn_sizes = (system.nv, contacts.nf)
        for contact in contacts.contacts:
            if contact.frame not in system.frames:
                raise DimensionMismatch(
                    f"system has no frame {contact.frame!r} for contact"
                )

    def acceleration(self, x, u, data):
        sys = self.system
        q, v = sys.split_state(x)
        M, bias, placement, Jc, drift = sys.forward_terms(q, v, self.contacts.frames)
        a0 = baumgarte_a0(self.contacts, placement, Jc @ v, drift)
        vdot, force = contact_forward_dynamics(M, Jc, sys.actuation() @ u - bias, a0)
        data.dyn[0][:] = vdot
        data.dyn[1][:] = force
        return vdot

    def partials(self, stack, X, U):
        # Total derivatives of the two KKT rows at the solution, holding
        # (vdot, force) fixed:
        #   d/dx [tau_b - M vdot + Jc^T force] and d/dx [a0 + Jc vdot],
        # with a0 = drift - alpha (reference - placement) - beta Jc v, all
        # evaluated for the whole stack; one stacked elimination turns the
        # rows into Jacobians of the solution.
        sys = self.system
        n, nv = len(X), sys.nv
        q, v = X[:, : sys.nq], X[:, sys.nq :]
        vdot, force = stack.dyn
        bq, bv = sys.bias_partials(q, v)
        dtau_dq = -(bq + sys.inertia_contraction_partial(q, vdot))
        jacobians, da0_dq, da0_dv = [], [], []
        for contact, rows in _contact_rows(self.contacts):
            J = _per_node(sys.frame_jacobian(q, contact.frame), n)
            # d(Jc vdot)/dq - beta d(Jc v)/dq is linear in the fixed vector.
            jw_q, jtf_q, drift_q, drift_v = sys.frame_partials(
                q, v, vdot - contact.beta * v, force[:, rows], contact.frame
            )
            dtau_dq += jtf_q
            jacobians.append(J)
            da0_dq.append(drift_q + contact.alpha * J + jw_q)
            da0_dv.append(drift_v - contact.beta * J)
        a_x, a_u = contact_dynamics_derivatives(
            _per_node(sys.mass_matrix(q), n),
            np.concatenate(jacobians, -2),
            np.concatenate([dtau_dq, -bv], -1),
            _per_node(sys.actuation(), n),
            np.concatenate([np.concatenate(da0_dq, -2), np.concatenate(da0_dv, -2)], -1),
            np.zeros((n, self.contacts.nf, self.nu)),
        )
        return a_x[..., :nv], a_x[..., nv:], a_u


def _contact_rows(contacts: ContactSet):
    """Each contact and the slice of its rows in the stacked constraint."""
    row = 0
    for contact in contacts.contacts:
        yield contact, slice(row, row + contact.nf)
        row += contact.nf


def _per_node(matrix, n: int) -> np.ndarray:
    """A system term as an (n, r, c) stack: a constant term, which the system
    returns unstacked, is broadcast (read-only) to every node."""
    return np.broadcast_to(matrix, (n,) + matrix.shape[-2:])


# ---------------------------------------------------------------------------
# Action models
# ---------------------------------------------------------------------------


class ActionModelBase:
    """Shared shape bookkeeping and the cost aggregation helpers."""

    state: Manifold
    nu: int
    costs: tuple[CostTerm, ...]
    # The factor of every cost term: the step of an integrated node.
    cost_scale = 1.0
    # The widths of the parts of the dynamics' solution that calc_diff reads.
    dyn_sizes: tuple[int, ...] = ()

    def __init__(self, state: Manifold, nu: int, costs):
        self.state = state
        self.nu = int(nu)
        self.ndx = state.ndx
        self.costs = tuple(costs)
        for term in self.costs:
            if term.ndx != self.ndx or term.nu != self.nu:
                raise DimensionMismatch(
                    f"cost term shaped ({term.ndx}, {term.nu}) attached to a "
                    f"({self.ndx}, {self.nu}) model"
                )

    def create_stack(self, n: int) -> ActionDataStack:
        return ActionDataStack(self, n)

    def cost(self, X, U) -> np.ndarray:
        """The costs (n,) of n nodes at X (n, nx), U (n, nu): the sum of each
        term's 0.5 * weight * ||r||^2, from its stacked residuals."""
        total = np.zeros(len(X))
        for term in self.costs:
            r = term.residual(X, U)
            total += 0.5 * term.weight * np.einsum("ki,ki->k", r, r)
        return self.cost_scale * total

    def _cost_derivatives(self, stack: ActionDataStack, X, U):
        # Each term returns only the blocks of the argument its residual
        # reads, unstacked where they are constant: each block's
        # sum is formed apart and written into the strided stack once, and
        # the blocks no term returns (l_xu among them) stay zero.
        totals = {}
        for term in self.costs:
            for name, part in term.derivatives(X, U).items():
                part = self.cost_scale * part
                totals[name] = totals[name] + part if name in totals else part
        stack.Lz.fill(0.0)
        for name, total in totals.items():
            if name in ("l_xx", "l_uu"):
                total = 0.5 * (total + np.swapaxes(total, -1, -2))
            getattr(stack, name)[:] = total
        np.copyto(stack.l_ux, np.swapaxes(stack.l_xu, -1, -2))

    def calc(self, data: ActionData, x, u) -> ActionData:
        """One node's forward step at x (nx,), u (nu,), into its row `data`."""
        raise NotImplementedError

    def calc_stack(self, stack: ActionDataStack, X, U) -> ActionDataStack:
        """The forward steps of the stack's n nodes at X (n, nx), U (n, nu):
        calc on each row in order. A failing node raises what calc raises,
        with its row as the error's `row`."""
        for row, (data, x, u) in enumerate(zip(stack.nodes, X, U)):
            try:
                self.calc(data, x, u)
            except FddpError as exc:
                exc.row = row
                raise
        return stack

    def calc_diff(self, stack: ActionDataStack, X, U) -> ActionDataStack:
        """Derivatives of the stack's n nodes at X (n, nx), U (n, nu);
        calc_stack (or calc on each node) must have run at the same points."""
        raise NotImplementedError


class IntegratedActionModel(ActionModelBase):
    """One shooting node: continuous dynamics discretized over a step dt.

    Mechanical dynamics use a semi-implicit Euler step (velocity first, then
    configuration along the updated velocity); linear flows use an explicit
    Euler step. Costs are integrated as l(x, u) * dt.
    """

    def __init__(self, dynamics, costs=(), dt: float = 1e-3):
        if not finite("integration step", float(dt), DimensionMismatch) > 0.0:
            raise DimensionMismatch(f"integration step must be positive, got {dt}")
        super().__init__(dynamics.state, dynamics.nu, costs)
        self.dynamics = dynamics
        self.dt = float(dt)
        self.cost_scale = self.dt
        self.first_order = isinstance(dynamics, LinearDynamics)
        if self.first_order:
            self._f_x = np.eye(self.ndx) + self.dt * dynamics.A
            self._f_u = self.dt * dynamics.B
        else:
            self.dyn_sizes = dynamics.dyn_sizes
            nv = dynamics.system.nv
            self._eye_v = np.eye(nv)
            self._dt_eye_v = self.dt * self._eye_v

    def calc(self, data, x, u):
        xnext = data.xnext
        if self.first_order:
            xdot = self.dynamics.flow(x, u)
            if not _all_finite(xdot):
                raise NumericalFailure("non-finite flow in forward integration")
            np.add(x, self.dt * xdot, out=xnext)
        else:
            dynamics, dt = self.dynamics, self.dt
            nq = dynamics.system.nq
            vdot = dynamics.acceleration(x, u, data)
            v_next = np.add(x[nq:], dt * vdot, out=xnext[nq:])
            dynamics.system.config.integrate(x[:nq], dt * v_next, out=xnext[:nq])
        return data

    def calc_diff(self, stack, X, U):
        dt = self.dt
        f_x, f_u = stack.f_x, stack.f_u
        if self.first_order:
            f_x[:] = self._f_x
            f_u[:] = self._f_u
        else:
            nv = self.dynamics.system.nv
            a_q, a_v, a_u = self.dynamics.partials(stack, X, U)
            # q_next = q + dt v_next and v_next = v + dt vdot, with identity
            # Jacobians of the retraction. Rows: configuration then velocity
            # tangent; columns: (q, v) then u.
            np.add(self._eye_v, dt * dt * a_q, out=f_x[:, :nv, :nv])
            np.add(self._dt_eye_v, dt * dt * a_v, out=f_x[:, :nv, nv:])
            np.multiply(dt, a_q, out=f_x[:, nv:, :nv])
            np.add(self._eye_v, dt * a_v, out=f_x[:, nv:, nv:])
            np.multiply(dt * dt, a_u, out=f_u[:, :nv])
            np.multiply(dt, a_u, out=f_u[:, nv:])
        self._cost_derivatives(stack, X, U)
        return stack


class TerminalActionModel(ActionModelBase):
    """Cost-only endpoint node: no controls, no state advance."""

    def __init__(self, state: Manifold, costs=()):
        super().__init__(state, 0, costs)
        self._f_x = np.eye(self.ndx)

    def calc(self, data, x, u=_NO_CONTROL):
        data.xnext[:] = x
        return data

    def calc_diff(self, stack, X, U):
        stack.f_x[:] = self._f_x
        self._cost_derivatives(stack, X, U)
        return stack


class ImpulseActionModel(ActionModelBase):
    """Instantaneous contact-gain switch: velocity jump, configuration frozen.

    The post-impact velocity comes from the impulse saddle-point solve with
    restitution e (e = 0 absorbs all normal velocity at the new contacts).
    The node consumes no control and no time, matching an event between two
    integration steps.
    """

    def __init__(
        self,
        system: MechanicalSystem,
        contacts: ContactSet,
        restitution: float = 0.0,
        costs=(),
    ):
        super().__init__(system.state, 0, costs)
        if not 0.0 <= restitution <= 1.0:
            raise DimensionMismatch(f"restitution must lie in [0, 1], got {restitution}")
        self.system = system
        self.contacts = contacts
        self.restitution = float(restitution)
        self.dyn_sizes = (system.nv, contacts.nf)
        # The configuration rows of f_x: q passes the impact unchanged.
        self._f_x_q = np.eye(system.nv, self.ndx)
        for contact in contacts.contacts:
            if contact.frame not in system.frames:
                raise DimensionMismatch(
                    f"system has no frame {contact.frame!r} for impulse"
                )

    def calc(self, data, x, u=_NO_CONTROL):
        sys = self.system
        q, v = sys.split_state(x)
        M, _, _, Jc, _ = sys.forward_terms(q, v, self.contacts.frames)
        v_plus, impulse = impulse_dynamics(M, Jc, v, self.restitution)
        data.xnext[: sys.nq] = q
        data.xnext[sys.nq :] = v_plus
        data.dyn[0][:] = v_plus
        data.dyn[1][:] = impulse
        return data

    def calc_diff(self, stack, X, U):
        # Configuration partials of the two residual rows at the solution,
        # holding (v_plus, impulse) fixed:
        #   r1 = M(q) (v_plus - v) - Jc(q)^T impulse,  r2 = Jc(q) (v_plus + e v),
        # evaluated for the whole stack, then one stacked elimination.
        sys = self.system
        n, nv = len(X), sys.nv
        q, v = X[:, : sys.nq], X[:, sys.nq :]
        v_plus, impulse = stack.dyn
        dr1_dq = sys.inertia_contraction_partial(q, v_plus - v)
        closure = v_plus + self.restitution * v
        jacobians, dr2_dq = [], []
        for contact, rows in _contact_rows(self.contacts):
            jw_q, jtf_q, _, _ = sys.frame_partials(q, v, closure, impulse[:, rows], contact.frame)
            dr1_dq -= jtf_q
            jacobians.append(_per_node(sys.frame_jacobian(q, contact.frame), n))
            dr2_dq.append(jw_q)
        dvp_dq, dvp_dv = impulse_dynamics_derivatives(
            _per_node(sys.mass_matrix(q), n),
            np.concatenate(jacobians, -2),
            self.restitution,
            dr1_dq,
            np.concatenate(dr2_dq, -2),
        )
        stack.f_x[:, :nv] = self._f_x_q
        stack.f_x[:, nv:, :nv] = dvp_dq
        stack.f_x[:, nv:, nv:] = dvp_dv
        self._cost_derivatives(stack, X, U)
        return stack


# ---------------------------------------------------------------------------
# Quasi-static inverse dynamics
# ---------------------------------------------------------------------------


def quasi_static_control(model, X):
    """Controls (n, nu) holding the n states X (n, nx) of `model`'s nodes
    still, and the residual norms (n,) those controls leave.

    The residual is the acceleration at (q, v = 0) (the flow at x for a
    first-order model), affine in u: r0 + A u. For mechanical dynamics both
    come out of one saddle-point solve for the n nodes (`_rest_acceleration`);
    for a flow r0 is its `flow_stack` at u = 0 and A its B. A node whose
    forward step fails raises what `calc` raises on it. One exact
    Gauss-Newton step, u = -(A^T A + 1e-10 I)^-1 A^T r0, solved for all
    nodes at once, gives its least-squares minimum. A node keeps u where
    ||r0 + A u|| is within QUASI_STATIC_TOL, and zero control where it is
    not (no torque holds a free-flying base against gravity) or where
    ||r0|| already is.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    if model.nu == 0:
        return np.zeros((n, 0)), np.zeros(n)
    if model.first_order:
        r0, A = model.dynamics.flow_stack(X, np.zeros((n, model.nu))), model.dynamics.B
    else:
        r0, A = _rest_acceleration(model, X[:, : model.dynamics.system.nq])
    At = np.swapaxes(A, -1, -2)
    u = -np.linalg.solve(At @ A + _QUASI_STATIC_DAMPING * np.eye(model.nu), At @ r0[..., None])
    held = np.linalg.norm(r0 + (A @ u)[..., 0], axis=1)
    start = np.linalg.norm(r0, axis=1)
    keep = (held <= QUASI_STATIC_TOL) & (start > QUASI_STATIC_TOL)
    return np.where(keep[:, None], u[..., 0], 0.0), np.where(keep, held, start)


def _rest_acceleration(model, q):
    """(r0 (n, nv), A (n, nv, nu)): the acceleration r0 + A u at rest of the
    n nodes of a mechanical `model` at configurations q (n, nq), from one
    stacked `forward_terms` call and one `_kkt_solve_checked` of
    [M Jc^T; Jc 0] against [-bias | S] and [-a0 | 0] (nf = 0 rows for free
    dynamics). Where that solve gives up, the nodes step one by one
    (`calc_stack`), which raises for the first failing node; if none fails,
    r0 is its `dyn[0]` and A comes from `partials`.
    """
    dynamics, n, nu = model.dynamics, len(q), model.nu
    sys, contacts = dynamics.system, getattr(dynamics, "contacts", None)
    v = np.zeros((n, sys.nv))
    with np.errstate(all="ignore"):
        M, bias, placement, Jc, drift = sys.forward_terms(q, v, contacts.frames if contacts else ())
        a0 = baumgarte_a0(contacts, placement, 0.0, drift) if contacts else np.zeros((n, 0))
    b1 = np.concatenate([-bias[..., None], _per_node(sys.actuation(), n)], -1)
    b2 = np.concatenate([-a0[..., None], np.zeros(a0.shape + (nu,))], -1)
    solution = _kkt_solve_checked(_per_node(M, n), _per_node(Jc, n), b1, b2)
    if solution is not None:
        return solution[0][..., 0], solution[0][..., 1:]
    X, U0 = np.concatenate([q, v], 1), np.zeros((n, nu))
    stack = model.calc_stack(model.create_stack(n), X, U0)
    return stack.dyn[0], dynamics.partials(stack, X, U0)[2]
