"""Damped Gauss-Newton (Levenberg-Marquardt) shared by PnP and the global solver.

The state is opaque: callers provide residual/jacobian callbacks plus a
retraction `plus(state, dx)` so poses can be updated on the SE(3) tangent
space. Damping follows the classic lambda*10 / lambda/10 schedule starting
at 1e-3; cost is monotonically non-increasing over accepted steps by
construction. A trial whose predicted reduction is below the cost's rounding
(MINPACK's stopping test, More 1978) is not evaluated: the damping loop ends
as if exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CrosscalError


@dataclass
class LMResult:
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
) -> LMResult:
    """Minimize 0.5*||r(state)||^2.

    residual_fn may raise a CrosscalError to signal an invalid trial state
    (e.g. a point behind the camera); the step is then rejected and damping
    increased. Any other exception propagates.

    Stops when the gradient norm drops below gradient_tol, an accepted step
    is shorter than step_tol, or no step can lower the cost: the damping
    loop ran out, or the damped model predicts a reduction of at most
    eps * cost. The last two report converged only if the gradient norm is
    below 1e-6 (a flat minimum).
    """
    r = residual_fn(state)
    cost = 0.5 * float(r @ r)
    lam = lambda_init
    history = [cost]
    eps = np.finfo(float).eps
    grad_norm = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        jac = jac_fn(state)
        grad = jac.T @ r
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < gradient_tol:
            converged = True
            break
        hess = jac.T @ jac
        accepted = False
        for _ in range(30):
            try:
                dx = np.linalg.solve(hess + lam * np.eye(hess.shape[0]), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            # 0.5*||r||^2 - 0.5*||r + J dx||^2, using (J^T J + lam I) dx = -grad
            if 0.5 * float(dx @ (lam * dx - grad)) <= eps * cost:
                break
            trial = plus(state, dx)
            try:
                r_trial = residual_fn(trial)
                cost_trial = 0.5 * float(r_trial @ r_trial)
            except CrosscalError:
                cost_trial = np.inf
            if cost_trial < cost:
                state, r, cost = trial, r_trial, cost_trial
                history.append(cost)
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if float(dx @ dx) < step_tol**2:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            converged = grad_norm < 1e-6  # stalled at a flat minimum
            break
        if converged:
            break
    return LMResult(state, cost, grad_norm, it, converged, history)
