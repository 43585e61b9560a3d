"""Gap-aware trajectory optimization over multiple-shooting problems.

Two solver flavors share one machinery. The classical one (``ddp``) keeps every
iterate feasible: it first replaces the state guess by an integration of the
warm-start controls and its rollouts always chain node outputs directly. The
gap-tolerant one (``fddp``) keeps the state guess as given, measures the
dynamics gaps between consecutive shooting nodes, deflects the Value gradient
across those gaps in the backward pass, and contracts every gap by (1 - alpha)
during the forward rollout, closing them fully only when a unit step is
accepted.

The backward pass is a Riccati recursion over tangent-space derivatives with a
scalar Levenberg-Marquardt regularizer on the control Hessian, one fused step
per node on [gradient | matrix] blocks. Both forward passes are the
problem's one chained rollout (`ShootingProblem._sweep`) under the policy's
gains, fddp's with the gaps' pull-back, ending in one stacked
`_cost_and_gaps` call (under ddp the gaps come out as exact zeros); the
ddp start is the same rollout without gains. Step acceptance uses the
two-sided Goldstein test on a quadratic expected-improvement model that
accounts for open gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contact import _cholesky, _cholesky_solve
from .errors import DimensionMismatch, NotPositiveDefinite, NumericalFailure
from .problem import ShootingProblem, gap_l2_norm

REG_MIN = 1e-9
REG_MAX = 1e9
GOLDSTEIN_LOW = 0.1
GOLDSTEIN_HIGH = 2.0
STEP_LENGTHS = tuple(0.5**i for i in range(11))


@dataclass
class TraceRow:
    """One solver iteration as it lands in the trace file."""

    iteration: int
    cost: float
    gap_l2: float
    step_length: float
    regularization: float
    expected_dj: float
    accepted: int


@dataclass
class SolveReport:
    """Per-iteration history plus the termination state of one solve."""

    solver: str
    rows: list[TraceRow] = field(default_factory=list)
    termination: str = "max_iters"

    @property
    def iterations(self) -> int:
        return self.rows[-1].iteration if self.rows else 0

    @property
    def final_cost(self) -> float:
        return self.rows[-1].cost if self.rows else float("nan")

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


class SolverWorkspace:
    """Per-node quantities produced by the backward pass, stacked by node.

    Over z = (x, u), with the control blocks zero-padded to the largest
    control dimension, three stacks hold the pass's results, each gradient in
    column 0 and its matrix in the columns after:

    * `Q` = [q | Q_zz] (N, nz, nz + 1), the local quadratic model;
    * `policy` = [k | K | .] (N, nu, nz + 1), the feed-forward k_ff and the
      feedback K_fb (the last nu columns are scratch of the solve);
    * `V` = [v_x | V_xx] (N + 1, ndx, ndx + 1), the Value derivatives.

    `Q_x`, `Q_u`, `Q_xx`, `Q_xu`, `Q_uu`, `k_ff`, `K_fb`, `V_x` and `V_xx`
    are views of them; `gaps` has N + 1 rows. Node k uses the first nu_k
    control entries, and nodes without controls (switches) keep all-zero
    rows, which add nothing to the stacked sums of `expected_improvement`.

    A node's Riccati step only does arithmetic on `riccati_rows[k]`, cut
    once here: its views of these stacks (`node_rows`), its `Fz` =
    [gap | f_x | f_u], [f_x | f_u]^T and `Lz` in its run's stack, and
    the buffers of its temporaries (`scratch`, one set per distinct nu). They
    hold arrays and views only, never a library callable, so a class
    attribute patched between two solves (as the benchmark's tracer does) is
    the one reached.
    """

    def __init__(self, problem: ShootingProblem):
        N, ndx = problem.N, problem.ndx
        nz = ndx + problem.nu_max
        x, u = slice(1, ndx + 1), slice(ndx + 1, None)
        self.Q = np.zeros((N, nz, nz + 1))
        self.policy = np.zeros((N, nz - ndx, nz + 1))
        self.V = np.zeros((N + 1, ndx, ndx + 1))
        self.Q_x, self.Q_u = self.Q[:, :ndx, 0], self.Q[:, ndx:, 0]
        self.Q_xx, self.Q_xu, self.Q_uu = self.Q[:, :ndx, x], self.Q[:, :ndx, u], self.Q[:, ndx:, u]
        self.k_ff, self.K_fb = self.policy[:, :, 0], self.policy[:, :, x]
        self.V_x, self.V_xx = self.V[:, :, 0], self.V[:, :, 1:]
        self.gaps = np.zeros((N + 1, ndx))
        # Node k's views cut to its nu_k, through which the backward pass
        # writes: rows of one stacked cut per run of nodes that share a model.
        self.node_rows = problem.node_rows(lambda nu: _node_rows(self, nu))
        # Node k's policy [k | K], which the forward passes apply.
        self.gains = [rows[6] for rows in self.node_rows]
        # For each nu: W = V_xx Fz and its column 0, [f_x | f_u]^T W, mu I,
        # Q_uu + mu I, Q_xu [k | K] and V_xx + V_xx^T.
        self.scratch = {}
        for nu in set(problem.nus):
            W = np.empty((ndx, ndx + nu + 1))
            shapes = ((ndx + nu, ndx + nu + 1), (nu, nu), (nu, nu), (ndx, ndx + 1), (ndx, ndx))
            self.scratch[nu] = (W, W[:, 0], *map(np.zeros, shapes))
        self.riccati_rows = []
        for (model, lo, hi), stack in zip(problem.runs, problem.stacks):
            blocks = zip(stack.Fz, np.swapaxes(stack.Fz[:, :, 1:], 1, 2), stack.Lz)
            rows = zip(self.node_rows[lo:hi], blocks)
            self.riccati_rows += [node + block + self.scratch[model.nu] for node, block in rows]


def _node_rows(ws: SolverWorkspace, nu: int):
    """The running nodes' views cut to nu controls, stacked by node:
    [q | Q_zz], its x rows [q_x | Q_xx], Q_xu, Q_uu and u rows, the policy
    [k | K | .] and its [k | K], [v_x | V_xx], v_x, V_xx."""
    ndx = ws.V.shape[1]
    Q, policy, V = ws.Q[:, : ndx + nu, : ndx + nu + 1], ws.policy[:, :nu, : ndx + nu + 1], ws.V[:-1]
    return (
        Q, Q[:, :ndx, : ndx + 1], Q[:, :ndx, ndx + 1 :], Q[:, ndx:, ndx + 1 :], Q[:, ndx:],
        policy, policy[:, :, : ndx + 1], V, V[:, :, 0], V[:, :, 1:],
    )


def backward_pass(problem: ShootingProblem, ws: SolverWorkspace, mu: float):
    """Riccati recursion from the terminal node, deflecting across open gaps.

    Reads the node derivatives from the problem's data set, through
    ws.riccati_rows (calc_diff must have run at the current iterate; the
    sweeps since then wrote only the nodes' `xnext` and `dyn`), and ws.gaps,
    which it writes once per run into column 0 of the stack's `Fz` =
    [gap | f_x | f_u]. Each node is then
    one fused step on [gradient | matrix] blocks over z = (x, u): W = V_xx Fz
    carries V_xx gap in its column 0, and adding v_x there makes it the
    deflected Value gradient; [q | Q] = [l | L] + [f_x | f_u]^T W; one
    Cholesky solve of the regularized Q_uu against the u rows
    [q_u | Q_ux | Q_uu] gives -[k | K | .]; and
    [v_x | V_xx] = [q_x | Q_xx] + Q_xu [k | K]. Q_uu is the product's own,
    unsymmetrized: the Cholesky factorization reads only its lower triangle.

    Raises a not-positive-definite error naming the node when the regularized
    control Hessian fails its Cholesky; the caller is expected to raise mu
    and retry. A non-finite derivative raises `NumericalFailure` naming the
    node it entered at, since no regularization can repair it: one in the
    lower triangle of a control Hessian is caught where its factorization
    fails; one in the upper triangle, which the factorization does not read,
    is caught after the sweep by one test of all control Hessians; and any
    other non-finite term spreads to the Value derivatives of every earlier
    node, which are checked at node 0. A factorization failure with a
    non-finite control Hessian at or after its node is that failure too.
    """
    stacks = problem.stacks
    N, l_xx = problem.N, stacks[-1].l_xx[0]  # the terminal node's stack of one
    vx, vxx = ws.V_x[N], ws.V_xx[N]
    vx[:] = stacks[-1].l_x[0]
    np.multiply(0.5, l_xx + l_xx.T, out=vxx)
    for (_, lo, hi), stack in zip(problem.runs, stacks):
        stack.Fz[:, :, 0] = ws.gaps[lo + 1 : hi + 1]
    for _, _, _, mu_eye, *_ in ws.scratch.values():
        np.fill_diagonal(mu_eye, mu)
    rows = ws.riccati_rows
    add, matmul, multiply = np.add, np.matmul, np.multiply
    for k in range(N - 1, -1, -1):
        (Q, x_rows, q_xu, q_uu, u_rows, policy, kK, v, v_x, v_xx,
         Fz, FzT, Lz, W, W_0, FzT_W, mu_eye, regularized, q_xu_kK, v_sum) = rows[k]
        # vx and vxx hold the Value derivatives of node k + 1.
        matmul(vxx, Fz, out=W)
        add(W_0, vx, out=W_0)
        add(Lz, matmul(FzT, W, out=FzT_W), out=Q)
        if len(policy) == 0:
            v[:] = x_rows
        else:
            try:
                factor = _cholesky(add(q_uu, mu_eye, out=regularized))
            except np.linalg.LinAlgError as exc:
                if not np.isfinite(ws.Q_uu[k:]).all():
                    raise _nonfinite_failure(ws, k) from exc
                raise NotPositiveDefinite(k) from exc
            np.negative(_cholesky_solve(factor, u_rows), out=policy)
            add(x_rows, matmul(q_xu, kK, out=q_xu_kK), out=v)
        multiply(0.5, add(v_xx, v_xx.T, out=v_sum), out=v_xx)
        vx, vxx = v_x, v_xx
    if not (np.isfinite(ws.Q_uu).all() and _finite_node(ws, 0)):
        raise _nonfinite_failure(ws, 0)
    return ws


def _finite_node(ws: SolverWorkspace, k: int) -> bool:
    """Whether node k's Value derivatives and control Hessian (none at the
    terminal node) are finite."""
    return bool(np.isfinite(ws.V[k]).all() and np.isfinite(ws.Q_uu[k : k + 1]).all())


def _nonfinite_failure(ws: SolverWorkspace, k: int) -> NumericalFailure:
    """The failure for a non-finite term met at node k of the backward pass.

    A non-finite term spreads from the node it enters at to the Value
    derivatives of every earlier node, or stays in the strict upper triangle
    of that node's control Hessian, which the factorization does not read; so
    it entered at the last node after k that is not finite, or at k itself
    when all later ones are finite.
    """
    last = len(ws.V) - 1
    node = next((j for j in range(last, k, -1) if not _finite_node(ws, j)), k)
    return NumericalFailure("non-finite derivatives in the backward pass", node=node)


def forward_pass_ddp(problem, X, U, ws, alpha):
    """Feasible rollout under the backward-pass policy: (X, U, cost, gaps),
    the gaps exact zeros."""
    return _forward(problem, X, U, ws, alpha, None)


def forward_pass_fddp(problem, X, U, ws, alpha):
    """Gap-contracting rollout: each dynamics gap shrinks by (1 - alpha).

    The initial state and every node output are pulled back along the stored
    gap by the factor (1 - alpha) before becoming the next shooting state, so
    a unit step is the feasible rollout of `forward_pass_ddp`, to the bit.
    Returns (X, U, cost, gaps), the gaps measured, not assumed.
    """
    shrink = 1.0 - alpha
    return _forward(problem, X, U, ws, alpha, -shrink * ws.gaps if shrink else None)


def _forward(problem, X, U, ws, alpha, pull):
    """The trial (X, U, cost, gaps): the problem's chained rollout from the
    stacked iterate X (N + 1, nx), U (N, nu_max) under the policy's gains,
    moved along `pull` if given, and one `_cost_and_gaps` call. Overflow is
    left to the tests of finiteness."""
    with np.errstate(over="ignore", invalid="ignore"):
        states, controls = problem._sweep(X, U, ws.gains, alpha, pull)
        return (states, controls, *problem._cost_and_gaps(states, controls))


def expected_improvement(problem, ws, X, X_trial):
    """Linear and quadratic coefficients of the expected cost change.

    The model covers both the policy step (feed-forward against the local
    quadratic) and the cost of closing the open gaps, measured around the
    trial trajectory's tangent deviation dx from the shooting nodes. The gap
    terms use the deflected value gradient (the gradient seen after sliding
    along the open gap), which is what makes the prediction come out positive
    when closing gaps must raise the cost; the acceptance test has a branch
    for exactly that case. The predicted change for a step of length alpha is
    d1*alpha + 0.5*d2*alpha^2.
    """
    f, v_xx, k_ff = ws.gaps, ws.V_xx, ws.k_ff
    dx = problem.state.difference(X, X_trial)
    vxx_dx = np.einsum("kij,kj->ki", v_xx, dx)
    vxx_f = np.einsum("kij,kj->ki", v_xx, f)
    d2 = np.einsum("ki,ki->", f, 2.0 * vxx_dx - vxx_f) + np.einsum(
        "ki,kij,kj->", k_ff, ws.Q_uu, k_ff
    )
    return _expected_d1(ws, vxx_f, vxx_dx), float(d2)


def _expected_d1(ws, vxx_f, vxx_dx=0.0):
    """d1 of `expected_improvement` from V_xx f and V_xx dx (zero when dx = 0)."""
    # The zero-padded control entries add nothing to the policy terms.
    d1 = np.einsum("ki,ki->", ws.gaps, ws.V_x + vxx_f - vxx_dx)
    return float(d1 + np.einsum("ki,ki->", ws.k_ff, ws.Q_u))


def goldstein_accept(cost_new: float, cost_old: float, dj: float) -> bool:
    """Two-sided sufficient-change test.

    Descent predictions must realize at least the fraction GOLDSTEIN_LOW of
    the model; predicted ascent (possible while gaps are open) is tolerated
    up to the factor GOLDSTEIN_HIGH.
    """
    change = cost_new - cost_old
    if dj <= 0.0:
        return change <= GOLDSTEIN_LOW * dj
    return change <= GOLDSTEIN_HIGH * dj


def solve(
    problem: ShootingProblem,
    X_guess=None,
    U_guess=None,
    *,
    solver: str = "fddp",
    max_iters: int = 100,
    tolerance: float = 1e-9,
):
    """Run the iteration loop and return (X, U, report), X and U as lists.

    Every pass through the loop performs one backward pass (with as many
    regularization bumps as Cholesky failures require) and one backtracking
    line search over step lengths 1, 1/2, ..., 2^-10, each trial one forward
    pass call, and appends exactly one trace row, accepted or not. Rejected
    line searches raise the regularizer tenfold and retry from the same
    iterate. Convergence is declared when the zero-step expected-improvement
    gradient plus the total gap norm falls under the tolerance. Failure
    states (regularization cap, non-finite evaluations naming their node,
    non-finite derivatives met by the backward pass) are recorded in the
    report, never raised. A malformed guess is rejected on entry by
    `ShootingProblem.check_trajectories`, which stacks its states and, once
    (`ShootingProblem.stack_controls`), its controls; the evaluations after
    that go through the problem's unchecked `_sweep`, `_cost_and_gaps`
    and `_calc`, on the iterate's states (N + 1, nx) and controls
    (N, nu_max). Under ddp the start is the rollout of the warm-start
    controls, which reads no state of the guess.
    """
    if solver not in ("ddp", "fddp"):
        raise DimensionMismatch(f"unknown solver {solver!r}, expected 'ddp' or 'fddp'")
    if not isinstance(max_iters, (int, np.integer)) or isinstance(max_iters, bool) or max_iters < 0:
        raise DimensionMismatch(f"max_iters must be an integer >= 0, got {max_iters!r}")
    if not 0.0 < tolerance < np.inf:  # also false for NaN
        raise DimensionMismatch(f"tolerance must be finite and > 0, got {tolerance}")

    X, U = problem.check_trajectories(
        problem.constant_state_guess() if X_guess is None else X_guess,
        problem.zero_controls() if U_guess is None else U_guess,
    )

    report = SolveReport(solver=solver)
    mu = REG_MIN
    forward_pass = forward_pass_ddp if solver == "ddp" else forward_pass_fddp

    def finish(termination):
        report.termination = termination
        return list(X), problem.node_controls(U), report

    try:
        if solver == "ddp":
            # The rollout's sweep leaves the data set as _calc would.
            X = problem._sweep(None, U)[0]
            cost, gaps = problem._cost_and_gaps(X, U)
        else:
            cost, gaps = problem._calc(X, U)
    except NumericalFailure as exc:
        report.rows.append(TraceRow(0, float("nan"), float("nan"), 0.0, mu, 0.0, 0))
        return finish(f"failure: {exc}")

    ws = SolverWorkspace(problem)
    ws.gaps = gaps
    report.rows.append(TraceRow(0, cost, gap_l2_norm(gaps), 0.0, mu, 0.0, 1))

    need_derivatives = True
    for it in range(1, max_iters + 1):
        if need_derivatives:
            try:
                problem.calc_diff(X, U)
            except NumericalFailure as exc:
                return finish(f"failure: {exc}")

        while True:
            try:
                backward_pass(problem, ws, mu)
                break
            except NotPositiveDefinite:
                mu *= 10.0
                if mu > REG_MAX:
                    return finish("failure: regularization limit reached")
            except NumericalFailure as exc:
                return finish(f"failure: {exc}")

        d1_stop = _expected_d1(ws, np.einsum("kij,kj->ki", ws.V_xx, ws.gaps))
        if abs(d1_stop) + gap_l2_norm(ws.gaps) < tolerance:
            return finish("converged")

        accepted = False
        dj = 0.0
        for alpha in STEP_LENGTHS:
            try:
                X_try, U_try, cost_try, gaps_try = forward_pass(problem, X, U, ws, alpha)
            except NumericalFailure:
                continue
            d1, d2 = expected_improvement(problem, ws, X, X_try)
            dj = d1 * alpha + 0.5 * d2 * alpha * alpha
            if goldstein_accept(cost_try, cost, dj):
                X, U, cost, ws.gaps = X_try, U_try, cost_try, gaps_try
                accepted = True
                break

        # An exhausted search leaves alpha at the last step length.
        report.rows.append(TraceRow(it, cost, gap_l2_norm(ws.gaps), alpha, mu, dj, int(accepted)))
        # Every trial sweeps into the problem's data set, and only the
        # accepted one, the search's last, leaves the new iterate's `dyn`
        # there. A rejected search keeps the derivatives, which no trial
        # writes, and must not re-derive them from the last trial's `dyn`.
        need_derivatives = accepted
        if accepted:
            mu = max(mu / 10.0, REG_MIN)
        else:
            mu *= 10.0
            if mu > REG_MAX:
                return finish("failure: regularization limit reached")

    return finish("max_iters")
