"""Variance-component estimation by Fisher scoring on the score equations.

The update direction is (-A)^-1 a where a is the REML or ML score and A the
expected Hessian; step halving enforces a nondecreasing criterion, components
pushed below zero are clamped to the boundary, and convergence uses the
scaled score max_i |a_i| / (1 + d_i^2) with the effective dimensions d_i,
since the components of sigma-hat converge at different rates.  A boundary
component counts as converged when its score points outward (KKT sign
condition a_i <= 0 at a lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

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
from .model import BOUNDARY_TOL, MixedModel, SigmaVector, validate_sigma

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
    """(-A)^-1 score, degrading to the normalized score when -A is not pd."""
    try:
        c = sla.cho_factor(-A, lower=True)
        return sla.cho_solve(c, score)
    except np.linalg.LinAlgError:
        return score / max(1.0, float(np.max(np.abs(score))))


def _scaled_score(sp: SigmaPoint, y: np.ndarray, method: str):
    """Score, scaled score and effective dimensions at the workspace's point."""
    score = score_at(sp, y, method)
    dims = effective_dims_at(sp)
    return score, score / (1.0 + dims**2), dims


def _kkt_ok(sigma: np.ndarray, scaled: np.ndarray, tol: float) -> bool:
    at_lb = sigma <= BOUNDARY_TOL
    return bool(np.all(np.where(at_lb, scaled <= tol, np.abs(scaled) <= tol)))


def fit(
    model: MixedModel,
    y,
    method: str = "REML",
    *,
    start=None,
    max_iter: int = 100,
    tol: float = 1e-8,
    clamp_eps: float = 0.0,
) -> FitResult:
    """Solve the score equations for sigma and assemble the fit summary.

    Args:
        model: the mixed model.
        y: observation vector, length n.
        method: "REML" or "ML".
        start: optional starting sigma; defaults to ``starting_values``.
        max_iter: maximum accepted Fisher-scoring steps.
        tol: tolerance on the scaled score norm.
        clamp_eps: lower clamp value for components driven below the
            parameter space (0 clamps exactly to the boundary).

    Returns:
        FitResult; ``converged`` is false when the iteration stalls or the
        budget runs out, and the best iterate found is still returned.
    """
    m = as_method(method)
    y = np.asarray(y, dtype=float)
    if start is None:
        start = starting_values(model, y, m)
    sigma = validate_sigma(model, start).values.copy()

    sp = SigmaPoint(model, sigma)
    ll = loglik_at(sp, y, m)  # NotPositiveDefinite at the start propagates
    trace = [ll]
    iterations = 0
    converged = False

    for _ in range(max_iter):
        score, scaled, dims = _scaled_score(sp, y, m)
        if _kkt_ok(sigma, scaled, tol):
            converged = True
            break
        direction = _ascent_direction(information_at(sp, m), score)
        step = 1.0
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            cand = np.maximum(sigma + step * direction, clamp_eps)
            if np.array_equal(cand, sigma):
                break
            try:
                sp_c = SigmaPoint(model, cand)
                ll_c = loglik_at(sp_c, y, m)
            except (NotPositiveDefinite, SingularGram):
                step *= 0.5
                continue
            if ll_c >= ll:
                accepted = (sp_c, ll_c)
                break
            step *= 0.5
        if accepted is None:
            break
        sp, ll = accepted
        sigma = sp.sigma.copy()
        iterations += 1
        trace.append(ll)
    else:
        score, scaled, dims = _scaled_score(sp, y, m)
        converged = _kkt_ok(sigma, scaled, tol)

    promoted = False
    if clamp_eps == 0.0:
        sp, ll, promoted = _promote_boundary(model, y, m, sp, ll)
    if promoted:
        sigma = sp.sigma.copy()
        trace.append(ll)
        score, scaled, dims = _scaled_score(sp, y, m)
        converged = _kkt_ok(sigma, scaled, tol)

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


def _promote_boundary(model, y, method, sp, ll):
    """Snap near-zero components to exactly zero when the boundary is the root.

    An interior iteration approaching a boundary root stops at a tolerance-
    sized positive value; each small component is tested at exactly zero and
    kept there only if the criterion does not decrease and the KKT sign
    condition holds.  Genuinely interior small components fail the criterion
    test and are left alone.
    """
    sigma = sp.sigma.copy()
    thresh = 1e-3 * (1.0 + float(np.sum(sigma)))
    promoted = False
    for i in range(model.s):
        if not 0.0 < sigma[i] <= thresh:
            continue
        cand = sigma.copy()
        cand[i] = 0.0
        try:
            sp_c = SigmaPoint(model, cand)
            ll_c = loglik_at(sp_c, y, method)
        except (NotPositiveDefinite, SingularGram):
            continue
        if ll_c < ll - 1e-12 * (1.0 + abs(ll)):
            continue
        if score_at(sp_c, y, method)[i] > BOUNDARY_TOL:
            continue
        sigma, sp, ll = cand, sp_c, ll_c
        promoted = True
    return sp, ll, promoted
