"""Best linear unbiased prediction of mixed effects mu = l'b + m'v.

At known sigma the BLUP is t(sigma) = l' beta_tilde + s(sigma)'(y - X beta_tilde)
with weights s(sigma) = Sigma^-1 Z G m and random-effect predictor
v_tilde = G Z' Sigma^-1 (y - X beta_tilde).  The EBLUP plugs in a fitted
sigma-hat.  The gradient of s in sigma is analytic: G is linear in sigma
with known derivative, so

    ds/dsigma_i = -Sigma^-1 V_i Sigma^-1 Z G m + Sigma^-1 Z (dG/dsigma_i) m.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._linalg import SigmaPoint
from .estimation import FitResult
from .model import MixedModel, PredictionTarget, check_target

WARN_BOUNDARY = "boundary"


@dataclass(frozen=True, eq=False)
class BlupResult:
    """Predictor value with its parts: t = l'beta + s'(y - X beta)."""

    value: float
    s_weights: np.ndarray
    beta_used: np.ndarray
    v_tilde: np.ndarray
    warnings: tuple[str, ...] = ()


def weights_at(sp: SigmaPoint, target: PredictionTarget) -> np.ndarray:
    """The weight vector s(sigma) = Sigma^-1 Z G m at the workspace's point."""
    return sp.solve(sp.model.z_mul(sp.g_diag * target.m))


def blup_at(sp: SigmaPoint, y: np.ndarray, target: PredictionTarget) -> BlupResult:
    """BLUP of the target at the workspace's sigma, with beta from GLS."""
    model = sp.model
    beta = sp.gls(y)
    resid = y - model.X @ beta
    s_w = weights_at(sp, target)
    v_tilde = sp.g_diag * model.zt_mul(sp.solve(resid))
    value = float(target.l @ beta + s_w @ resid)
    return BlupResult(value=value, s_weights=s_w, beta_used=beta, v_tilde=v_tilde)


def blup(model: MixedModel, sigma, y, target: PredictionTarget) -> BlupResult:
    """BLUP of the target at known sigma, with beta from GLS."""
    check_target(model, target)
    return blup_at(SigmaPoint(model, sigma), np.asarray(y, dtype=float), target)


def grad_s_rhs_at(sp: SigmaPoint, target: PredictionTarget) -> np.ndarray:
    """Sigma times the weight gradient: column i is Z (dG/dsigma_i) m - V_i s,
    that is -s for the residual and Z dG_i (m - Z's) for a block."""
    model = sp.model
    sc = weights_at(sp, target)
    res = [-sc] if model.family.residual else []
    d = target.m - model.zt_mul(sc)
    return np.column_stack(res + [model.z_mul(dg * d) for dg in model.dg_diags[len(res) :]])


def grad_s(model: MixedModel, sigma, target: PredictionTarget) -> np.ndarray:
    """n x s gradient of the BLUP weights in sigma, column per component."""
    check_target(model, target)
    sp = SigmaPoint(model, sigma)
    return sp.solve(grad_s_rhs_at(sp, target))


def observation_weights(model: MixedModel, sigma, target: PredictionTarget) -> np.ndarray:
    """The full weight vector w with t(sigma) = w'y.

    Folding the GLS step into the weights gives
    w = Sigma^-1 X (X'Sigma^-1 X)^-1 (l - X's) + s; useful for comparing the
    predictor against direct minimum-MSE solutions.
    """
    check_target(model, target)
    sp = SigmaPoint(model, sigma)
    s_w = weights_at(sp, target)
    return sp.six @ sp.gram_solve(target.l - model.X.T @ s_w) + s_w


def eblup(model: MixedModel, fit: FitResult, y, target: PredictionTarget) -> BlupResult:
    """BLUP evaluated at the fitted sigma-hat, on the fit's workspace.

    A fit that clamped some component to the boundary yields a valid
    predictor; the result then carries the "boundary" warning marker.
    """
    check_target(model, target)
    res = blup_at(fit.workspace_for(model), np.asarray(y, dtype=float), target)
    if fit.boundary_hit:
        res = dataclasses.replace(res, warnings=res.warnings + (WARN_BOUNDARY,))
    return res
