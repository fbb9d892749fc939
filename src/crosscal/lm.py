"""Damped Gauss-Newton (Levenberg-Marquardt) shared by PnP and the global solver.

The state is opaque: callers provide residual/jacobian callbacks plus a
retraction `plus(state, dx)` so poses can be updated on the SE(3) tangent
space. Damping follows the classic lambda*10 / lambda/10 schedule starting
at 1e-3; cost is monotonically non-increasing over accepted steps by
construction. A trial whose predicted reduction is below the cost's rounding
(MINPACK's stopping test, More 1978) is not evaluated: the damping loop ends
as if exhausted.

With `batched=True` the state has a leading batch axis of independent
problems (PnP runs one per pose candidate of a `detect` run), solved in
lock-step: each keeps its own damping, cost, accept/reject decisions and stop
tests, as if it were solved alone. The callbacks then take the states of a
subset of the problems plus their indices in the batch, and each round
evaluates only the problems still running, so a few slow problems do not pay
for the whole batch. An unbatched call is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CrosscalError


@dataclass
class LMResult:
    """Outcome of a solve. In a batched call state, cost, gradient_norm and
    converged are arrays over the batch, cost_history holds one list per
    problem, and iterations is the total over the batch."""

    state: object
    cost: float
    gradient_norm: float
    iterations: int
    converged: bool
    cost_history: list = field(default_factory=list)


def levenberg_marquardt(
    state,
    residual_fn,
    jac_fn,
    plus,
    max_iter: int = 100,
    lambda_init: float = 1e-3,
    gradient_tol: float = 1e-10,
    step_tol: float = 1e-14,
    batched: bool = False,
) -> LMResult:
    """Minimize 0.5*||r(state)||^2.

    Unbatched: residual_fn(state) -> (m,), jac_fn(state) -> (m, n),
    plus(state, dx (n,)) -> state. Batched: state (B, ...) is indexed along
    its first axis, residual_fn(states, rows) -> (len(rows), m),
    jac_fn(states, rows) -> (len(rows), m, n) and plus(states, dx (len(rows), n))
    -> states, where rows are the indices of `states` in the batch.

    A trial whose cost is not finite is rejected and its damping increased;
    residual_fn may also raise a CrosscalError (e.g. a point behind the
    camera), which rejects every trial of that call. Any other exception
    propagates.

    Stops when the gradient norm drops below gradient_tol, an accepted step
    is shorter than step_tol, or no step can lower the cost: the damping
    loop ran out, or the damped model predicts a reduction of at most
    eps * cost. The last two report converged only if the gradient norm is
    below 1e-6 (a flat minimum).
    """
    args = (max_iter, lambda_init, gradient_tol, step_tol)
    if batched:
        return _solve(state, residual_fn, jac_fn, plus, *args)
    res = _solve(
        _one(state),
        lambda s, rows: residual_fn(s[0])[None],
        lambda s, rows: jac_fn(s[0])[None],
        lambda s, dx: _one(plus(s[0], dx[0])),
        *args,
    )
    return LMResult(
        res.state[0],
        float(res.cost[0]),
        float(res.gradient_norm[0]),
        res.iterations,
        bool(res.converged[0]),
        res.cost_history[0],
    )


def _one(state) -> np.ndarray:
    """A batch of one opaque state."""
    out = np.empty(1, dtype=object)
    out[0] = state
    return out


def _half_squares(r: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("bm,bm->b", r, r)


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


def _solve(state, residual_fn, jac_fn, plus, max_iter, lambda_init, gradient_tol, step_tol):
    n = len(state)
    r = residual_fn(state, np.arange(n))
    cost = _half_squares(r)
    lam = np.full(n, lambda_init)
    history = [[c] for c in cost.tolist()]
    eps = np.finfo(float).eps
    grad_norm = np.full(n, np.inf)
    converged = np.zeros(n, dtype=bool)
    iterations = 0
    active = np.arange(n)  # problems still running
    for _ in range(max_iter):
        if not active.size:
            break
        iterations += active.size
        jac = jac_fn(state[active], active)
        grad = (r[active, None, :] @ jac)[:, 0]
        grad_norm[active] = np.linalg.norm(grad, axis=1)
        done = grad_norm[active] < gradient_tol
        if done.any():
            converged[active[done]] = True
            active, jac, grad = active[~done], jac[~done], grad[~done]
        hess = jac.transpose(0, 2, 1) @ jac
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
                try:
                    r_trial = residual_fn(trial, tried)
                except CrosscalError:
                    r_trial = np.full((len(tried), r.shape[1]), np.inf)
                cost_trial = _half_squares(r_trial)
                better = cost_trial < cost[tried]  # False for a non-finite cost
                won = tried[better]
                state[won], r[won], cost[won] = trial[better], r_trial[better], cost_trial[better]
                for k, c in zip(won.tolist(), cost_trial[better].tolist()):
                    history[k].append(c)
                lam[won] = np.maximum(lam[won] / 10.0, 1e-12)
                converged[won] = np.einsum("bn,bn->b", step[better], step[better]) < step_tol**2
                accepted[damping[trying][better]] = True
            lam[tried[~better]] *= 10.0
            lam[rows[~solved]] *= 10.0
            # a singular system retries; a rejected trial retries until lambda passes 1e14
            retry = ~solved
            retry[trying] = ~better & (lam[tried] <= 1e14)
            damping = damping[retry]
        stalled = active[~accepted]
        converged[stalled] = grad_norm[stalled] < 1e-6  # stalled at a flat minimum
        active = active[accepted & ~converged[active]]
    return LMResult(state, cost, grad_norm, iterations, converged, history)
