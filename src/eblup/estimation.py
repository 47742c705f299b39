"""Variance-component estimation by projected Fisher scoring on sigma >= 0.

One loop, with an active set (Jennrich & Sampson 1976; Harville 1977): a
component at zero whose score points outward (a_i <= 0) is held there, and
the Fisher step (-A_FF)^-1 a_F is taken on the free components F, with A
the expected Hessian.  Step halving along the step projected onto
sigma >= 0 keeps the criterion nondecreasing.  Convergence is the KKT test
on the scaled score max_i |a_i| / (1 + d_i^2), with the effective
dimensions d_i, since the components of sigma-hat converge at different
rates; at a zero component only a_i <= tol is required.  The fit stops as
not converged when ``max_iter`` steps have been accepted.  When no step
raises the criterion, the iterate counts as converged only if the predicted
gain a'd is at most 1e-12 (1 + |loglik|), a rounding floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import SigmaPoint
from .exceptions import NotPositiveDefinite, SingularGram, SingularInformation
from .likelihood import (
    InformationMatrix,
    as_method,
    effective_dims_at,
    information_at,
    loglik_at,
    score_at,
)
from .model import MixedModel, SigmaVector, validate_sigma

MAX_HALVINGS = 30


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a variance-component fit.

    ``loglik_trace`` records the criterion value at the start and after each
    accepted step; it is nondecreasing by construction.  ``workspace`` is the
    factorized covariance at sigma-hat that produced ``beta_hat`` and
    ``information``; the EBLUP and MSE code reuse it instead of factorizing
    Sigma again.
    """

    sigma_hat: SigmaVector
    method: str
    beta_hat: np.ndarray
    beta_cov: np.ndarray
    information: InformationMatrix | None
    iterations: int
    final_score_norm: float
    converged: bool
    boundary_hit: bool
    effective_dims: np.ndarray
    loglik: float
    loglik_trace: tuple[float, ...]
    workspace: SigmaPoint = field(repr=False)

    def workspace_for(self, model: MixedModel) -> SigmaPoint:
        """The fit's workspace when it belongs to ``model``, else a fresh one."""
        if self.workspace.model is model:
            return self.workspace
        return SigmaPoint(model, self.sigma_hat)


def gls_beta(model: MixedModel, sigma, y) -> tuple[np.ndarray, np.ndarray]:
    """GLS fixed effects: beta_tilde and its covariance (X'Sigma^-1 X)^-1."""
    sp = SigmaPoint(model, sigma)
    return sp.gls(np.asarray(y, dtype=float)), sp.gram_inv


def starting_values(model: MixedModel, y, method: str = "REML") -> np.ndarray:
    """Deterministic start: OLS residual variance split equally over components.

    The total is the mean squared OLS residual; each component gets total/s,
    floored at 1e-4 * total.  Zero residuals fall back to a small positive
    constant.  The same start serves both methods (``method`` is accepted for
    interface symmetry).
    """
    as_method(method)
    y = np.asarray(y, dtype=float)
    beta, *_ = np.linalg.lstsq(model.X, y, rcond=None)
    resid = y - model.X @ beta
    total = float(resid @ resid) / model.n
    if total <= 0.0:
        return np.full(model.s, 1e-8)
    return np.full(model.s, max(total / model.s, 1e-4 * total))


def _ascent_direction(A: np.ndarray, score: np.ndarray) -> np.ndarray:
    """(-A)^-1 score, degrading to the score scaled to unit max-norm when -A
    is not pd, so that the first trial step has length 1 whatever the
    score's scale and can reach sigma_i = 0 by projection."""
    try:
        np.linalg.cholesky(-A)
    except np.linalg.LinAlgError:
        return score / float(np.max(np.abs(score)))
    return np.linalg.solve(-A, score)


def fit(
    model: MixedModel,
    y,
    method: str = "REML",
    *,
    start=None,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> FitResult:
    """Maximize the REML or ML criterion over sigma >= 0 by Fisher scoring.

    At each iterate the fit stops as converged when the KKT test on the
    scaled score holds, and as not converged once ``max_iter`` steps have
    been accepted.  Otherwise it holds every component with sigma_i = 0
    and score_i <= 0, takes the Fisher step (-A_FF)^-1 a_F on the free
    block F, and halves along it, projected onto sigma >= 0, until the
    criterion does not fall.  When no step is accepted the fit stops, and
    reports converged only if the predicted gain a'd of the full step d is
    at most 1e-12 (1 + |loglik|): the iterate is then stationary to
    rounding.

    Args:
        model: the mixed model.
        y: observation vector, length n.
        method: "REML" or "ML".
        start: optional starting sigma; defaults to ``starting_values``.
        max_iter: maximum accepted Fisher-scoring steps.
        tol: tolerance on the scaled score.

    Returns:
        FitResult; when ``converged`` is false the last iterate is still
        returned.
    """
    m = as_method(method)
    y = np.asarray(y, dtype=float)
    if start is None:
        start = starting_values(model, y, m)
    sp = SigmaPoint(model, start)
    sigma = sp.sigma  # validated: components within BOUNDARY_TOL of 0 are 0
    ll = loglik_at(sp, y, m)  # NotPositiveDefinite at the start propagates
    trace = [ll]
    iterations = 0

    while True:
        score = score_at(sp, y, m)
        dims = effective_dims_at(sp)
        scaled = score / (1.0 + dims**2)
        at_zero = sigma == 0.0
        kkt = np.where(at_zero, scaled <= tol, np.abs(scaled) <= tol)
        converged = bool(np.all(kkt))
        if converged or iterations >= max_iter:
            break
        free = ~(at_zero & (score <= 0.0))
        direction = np.zeros(model.s)
        A_ff = information_at(sp, m)[np.ix_(free, free)]
        direction[free] = _ascent_direction(A_ff, score[free])
        step, accepted = 1.0, None
        for _ in range(MAX_HALVINGS + 1):
            cand = np.maximum(sigma + step * direction, 0.0)
            if np.array_equal(cand, sigma):
                break
            try:
                sp_c = SigmaPoint(model, cand)
                ll_c = loglik_at(sp_c, y, m)
            except (NotPositiveDefinite, SingularGram):
                ll_c = -np.inf
            if ll_c >= ll:
                accepted = sp_c, ll_c
                break
            step *= 0.5
        if accepted is None:
            converged = float(score @ direction) <= 1e-12 * (1.0 + abs(ll))
            break
        sp, ll = accepted
        sigma = sp.sigma
        iterations += 1
        trace.append(ll)

    # score, scaled and dims are those of the final point sp
    sv = validate_sigma(model, sigma)
    info = InformationMatrix(information_at(sp, m), m)
    try:
        info.fisher_inv  # noqa: B018 - the invertibility check
    except SingularInformation:
        info = None
    return FitResult(
        sigma_hat=sv,
        method=m,
        beta_hat=sp.gls(y),
        beta_cov=sp.gram_inv,
        information=info,
        iterations=iterations,
        final_score_norm=float(np.max(np.abs(scaled))),
        converged=converged,
        boundary_hit=bool(sv.boundary_flags.any()),
        effective_dims=dims,
        loglik=ll,
        loglik_trace=tuple(trace),
        workspace=sp,
    )
