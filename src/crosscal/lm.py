"""Damped Gauss-Newton (Levenberg-Marquardt) shared by PnP and the global solver.

The state is opaque: callers provide a residual callback, a callback that
returns the normal equations (J^T J, J^T r) at a state given its residuals,
and a retraction `plus(state, dx)` so poses can be updated on the SE(3)
tangent space. LM never sees a Jacobian, so each caller assembles its normal
equations the way its structure allows: the global solve sums 6x6 blocks
term by term, PnP builds its Jacobians a chunk of candidates at a time.
Damping follows the classic lambda*10 / lambda/10 schedule starting at 1e-3;
cost is monotonically non-increasing over accepted steps by construction. A
trial whose predicted reduction is below the cost's rounding (MINPACK's
stopping test, More 1978) is not evaluated: the damping loop ends as if
exhausted. The stop tests read MINPACK's gradient cosine, which scaling the
residuals or a parameter leaves alone: callers choose their units freely.

The state has a leading batch axis of independent problems (PnP runs one per
pose candidate of a `detect` run, the global solve is a batch of one), solved
in lock-step: each keeps its own damping, cost, accept/reject decisions and
stop tests, as if it were solved alone. The callbacks take the states of a
subset of the problems plus their indices in the batch, and each round
evaluates only the problems still running, so a few slow problems do not pay
for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LAMBDA_INIT = 1e-3  # starting damping
STEP_TOL = 1e-14  # an accepted step shorter than this ends the solve
GRADIENT_COSINE = 1e-10  # a gradient cosine below this ends the solve, converged
STALL_COSINE = 1e-6  # a problem no step can improve has converged below this cosine


@dataclass
class LMResult:
    """Outcome of a solve: state, cost, gradient_norm, gradient_cosine (of the
    last gradient each problem built) and converged are arrays over the batch,
    cost_history holds one list per problem, and iterations is the total."""

    state: np.ndarray
    cost: np.ndarray
    gradient_norm: np.ndarray
    gradient_cosine: np.ndarray
    iterations: int
    converged: np.ndarray
    cost_history: list = field(default_factory=list)


def levenberg_marquardt(
    state,
    residual_fn,
    normal_fn,
    plus,
    max_iter: int = 100,
) -> LMResult:
    """Minimize 0.5*||r(state)||^2 per problem of the batch.

    state (B, ...) is indexed along its first axis. residual_fn(states, rows)
    returns the residuals of those problems, reshaped here to (len(rows), m),
    so a batch of one may return its m rows flat. normal_fn(states, rows,
    r (len(rows), m)) -> ((len(rows), n, n), (len(rows), n)), the J^T J and
    J^T r of each problem with J the Jacobian of r at its state, and
    plus(states, dx (len(rows), n)) -> states, where rows are the indices of
    `states` in the batch. normal_fn is called once per iteration of each
    running problem, at its current state.

    A trial whose cost is not finite (e.g. a point behind the camera) is
    rejected and its damping increased; an exception from a callback
    propagates.

    Stops when the gradient cosine max_k |g_k| / (||J_k|| ||r||) (MINPACK's
    gtol test; ||J_k||^2 is the diagonal of J^T J, ||r||^2 twice the cost)
    drops below GRADIENT_COSINE, an accepted step is shorter than STEP_TOL,
    or no step can lower the cost: the damping loop ran out, or the damped
    model predicts a reduction of at most eps * cost. The last two report
    converged only if the cosine is below STALL_COSINE (a flat minimum). An
    exact fit (r = 0) has cosine 0, and a zero column does not count.
    """

    def evaluate(states, rows):  # residuals (len(rows), m) and their costs
        r = np.reshape(residual_fn(states, rows), (len(rows), -1))
        return r, 0.5 * np.einsum("bm,bm->b", r, r)

    n = len(state)
    r, cost = evaluate(state, np.arange(n))
    lam = np.full(n, LAMBDA_INIT)
    history = [[c] for c in cost.tolist()]
    eps = np.finfo(float).eps
    grad_norm, cosine = np.full(n, np.inf), np.full(n, np.inf)
    converged = np.zeros(n, dtype=bool)
    iterations = 0
    active = np.arange(n)  # problems still running
    for _ in range(max_iter):
        if not active.size:
            break
        iterations += active.size
        hess, grad = normal_fn(state[active], active, r[active])
        grad_norm[active] = np.linalg.norm(grad, axis=1)
        scale = np.sqrt(np.einsum("bkk->bk", hess) * 2.0 * cost[active, None])  # ||J_k|| ||r||
        cosine[active] = np.divide(np.abs(grad), scale, out=np.zeros_like(grad), where=scale > 0).max(1)
        done = cosine[active] < GRADIENT_COSINE
        if done.any():
            converged[active[done]] = True
            active, hess, grad = active[~done], hess[~done], grad[~done]
        accepted = np.zeros(len(active), dtype=bool)
        damping = np.arange(len(active))  # positions in `active` still looking for a step
        for _ in range(30):
            if not damping.size:
                break
            rows = active[damping]
            dx, solved = _damped_steps(hess[damping], lam[rows], grad[damping])
            # 0.5*||r||^2 - 0.5*||r + J dx||^2, using (J^T J + lam I) dx = -grad
            reduction = 0.5 * np.einsum("bn,bn->b", dx, lam[rows, None] * dx - grad[damping])
            trying = solved & (reduction > eps * cost[rows])
            tried, step = rows[trying], dx[trying]
            better = np.zeros(len(tried), dtype=bool)
            if tried.size:
                trial = plus(state[tried], step)
                r_trial, cost_trial = evaluate(trial, tried)
                better = cost_trial < cost[tried]  # False for a non-finite cost
                won = tried[better]
                state[won], r[won], cost[won] = trial[better], r_trial[better], cost_trial[better]
                for k, c in zip(won.tolist(), cost_trial[better].tolist()):
                    history[k].append(c)
                lam[won] = np.maximum(lam[won] / 10.0, 1e-12)
                converged[won] = np.einsum("bn,bn->b", step[better], step[better]) < STEP_TOL**2
                accepted[damping[trying][better]] = True
            lam[tried[~better]] *= 10.0
            lam[rows[~solved]] *= 10.0
            # a singular system retries; a rejected trial retries until lambda passes 1e14
            retry = ~solved
            retry[trying] = ~better & (lam[tried] <= 1e14)
            damping = damping[retry]
        stalled = active[~accepted]
        converged[stalled] = cosine[stalled] < STALL_COSINE  # stalled at a flat minimum
        active = active[accepted & ~converged[active]]
    return LMResult(state, cost, grad_norm, cosine, iterations, converged, history)


def _damped_steps(hess, lam, grad):
    """Solutions dx of (H + lambda I) dx = -g per problem, and which of the
    systems were solvable."""
    a = hess + lam[:, None, None] * np.eye(hess.shape[-1])
    try:
        return np.linalg.solve(a, -grad[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:  # find the singular systems one by one
        dx, ok = np.zeros_like(grad), np.ones(len(a), dtype=bool)
        for k in range(len(a)):
            try:
                dx[k] = np.linalg.solve(a[k], -grad[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return dx, ok
