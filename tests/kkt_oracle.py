"""The dense KKT oracle of the solver tests: the Newton direction of the whole
multiple-shooting problem from one dense solve, against which the tests check
the backward and forward passes on small problems.
"""

import numpy as np

from fddp.errors import DimensionMismatch
from fddp.problem import ShootingProblem

DENSE_KKT_SIZE_LIMIT = 2000


class KKTSingular(RuntimeError):
    """The dense KKT system of the whole problem is singular."""


def kkt_search_direction(problem: ShootingProblem, X, U):
    """Newton direction from the dense KKT system of the whole problem.

    Assembles the block-sparse first-order optimality system of the
    multiple-shooting transcription (Gauss-Newton Hessian blocks on the
    diagonal, dynamics Jacobians in the constraints, gaps as the constraint
    right-hand side) and solves it as one dense symmetric system. Intended as
    a cross-check oracle on small problems.
    """
    N, ndx = problem.N, problem.ndx
    nus = [m.nu for m in problem.running_models]
    if N * (ndx + max(nus)) > DENSE_KKT_SIZE_LIMIT:
        raise DimensionMismatch(
            f"problem too large for the dense KKT oracle: {N * (ndx + max(nus))} > {DENSE_KKT_SIZE_LIMIT}"
        )
    running, terminal = problem.datas, problem.stacks[-1].nodes[0]
    _, gaps = problem.calc(X, U)
    problem.calc_diff(np.array(X), problem.stack_controls(U))

    x_off = []
    u_off = []
    offset = 0
    for k in range(N):
        x_off.append(offset)
        offset += ndx
        u_off.append(offset)
        offset += nus[k]
    x_off.append(offset)
    nvar = offset + ndx
    ncon = ndx * (N + 1)

    H = np.zeros((nvar, nvar))
    g = np.zeros(nvar)
    C = np.zeros((ncon, nvar))
    r = np.zeros(ncon)

    for k in range(N):
        d = running[k]
        xs, us = x_off[k], u_off[k]
        H[xs : xs + ndx, xs : xs + ndx] = d.l_xx
        H[xs : xs + ndx, us : us + nus[k]] = d.l_xu
        H[us : us + nus[k], xs : xs + ndx] = d.l_xu.T
        H[us : us + nus[k], us : us + nus[k]] = d.l_uu
        g[xs : xs + ndx] = d.l_x
        g[us : us + nus[k]] = d.l_u
    xs = x_off[N]
    H[xs : xs + ndx, xs : xs + ndx] = terminal.l_xx
    g[xs : xs + ndx] = terminal.l_x

    C[0:ndx, 0:ndx] = np.eye(ndx)
    r[0:ndx] = gaps[0]
    for k in range(N):
        d = running[k]
        row = ndx * (k + 1)
        C[row : row + ndx, x_off[k + 1] : x_off[k + 1] + ndx] = np.eye(ndx)
        C[row : row + ndx, x_off[k] : x_off[k] + ndx] = -d.f_x
        C[row : row + ndx, u_off[k] : u_off[k] + nus[k]] = -d.f_u
        r[row : row + ndx] = gaps[k + 1]

    kkt = np.zeros((nvar + ncon, nvar + ncon))
    kkt[:nvar, :nvar] = H
    kkt[:nvar, nvar:] = C.T
    kkt[nvar:, :nvar] = C
    rhs = np.concatenate([-g, r])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise KKTSingular("dense KKT system is singular") from exc
    if not np.all(np.isfinite(sol)):
        raise KKTSingular("dense KKT solve produced non-finite values")

    dX = [sol[x_off[k] : x_off[k] + ndx].copy() for k in range(N + 1)]
    dU = [sol[u_off[k] : u_off[k] + nus[k]].copy() for k in range(N)]
    mults = [
        sol[nvar + ndx * k : nvar + ndx * (k + 1)].copy() for k in range(N + 1)
    ]
    return dX, dU, mults
