"""Second-order MSE estimation for EBLUPs.

The MSE of t(sigma_hat) decomposes into the known-sigma part g1 + g2 and the
estimation penalty g3 = tr{[grad s]' Sigma [grad s] (-A)^-1}, giving the
approximation mse ~= g1 + g2 + g3.  Plugging sigma_hat into that expression
undershoots, because g1 has downward plug-in bias of order g3 (plus a score
bias term under ML); the bias-corrected estimators are

    REML:  g1(s^) + g2(s^) + 2 g3(s^)
    ML:    g1(s^) + g2(s^) + 2 g3(s^) - g10(s^),   g10 = b' A_M^-1 g_M0

with b = dg1/dsigma.  delta_terms exposes the individual correction terms
whose sum reproduces those assemblies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import SigmaPoint
from .estimation import FitResult
from .likelihood import InformationMatrix, apply_p, as_method, information_at, ml_score_bias_at
from .model import MixedModel, PredictionTarget, check_target
from .prediction import WARN_BOUNDARY, grad_s_rhs_at, weights_at

WARN_SINGULAR_INFORMATION = "singular-information"


@dataclass(frozen=True)
class MseReport:
    """All MSE estimators for one target, or naive-only when degraded.

    g3, g10, prasad_rao and second_order are None when the expected
    information is singular (warning "singular-information"); g3_data
    and g10 are None when not applicable.
    """

    g1: float
    g2: float
    g3: float | None
    g3_data: float | None
    g10: float | None
    naive: float
    prasad_rao: float | None
    second_order: float | None
    method: str
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class DeltaTerms:
    """Spelled-out bias-correction terms Delta_0..Delta_3 for eta(sigma_hat)."""

    delta0: float
    delta1: float
    delta2: float
    delta3: float
    w_vec: np.ndarray
    b_vec: np.ndarray
    method: str


# --------------------------------------------------------------------------
# the g-terms
# --------------------------------------------------------------------------


def _g1_at(sp: SigmaPoint, target: PredictionTarget) -> float:
    gm = sp.g_diag * target.m
    c = sp.model.z_mul(gm)
    val = float(target.m @ gm - c @ sp.solve(c))
    return max(val, 0.0)


def g1(model: MixedModel, sigma, target: PredictionTarget) -> float:
    """Known-sigma prediction variance m'(G - G Z' Sigma^-1 Z G)m."""
    check_target(model, target)
    return _g1_at(SigmaPoint(model, sigma), target)


def _g2_at(sp: SigmaPoint, target: PredictionTarget) -> float:
    u = target.l - sp.model.X.T @ weights_at(sp, target)
    return max(float(u @ sp.gram_solve(u)), 0.0)


def g2(model: MixedModel, sigma, target: PredictionTarget) -> float:
    """beta-estimation contribution (l - X's)'(X' Sigma^-1 X)^-1 (l - X's)."""
    check_target(model, target)
    return _g2_at(SigmaPoint(model, sigma), target)


def _g3_at(sp: SigmaPoint, rhs: np.ndarray, info: InformationMatrix) -> float:
    """g3 from rhs = Sigma grad s (``grad_s_rhs_at``): grad' Sigma grad = rhs' Sigma^-1 rhs."""
    inner = rhs.T @ sp.solve(rhs)
    return max(float(np.sum(inner * info.fisher_inv)), 0.0)


def g3(model: MixedModel, sigma, target: PredictionTarget, method: str = "REML") -> float:
    """sigma-estimation contribution tr{[grad s]' Sigma [grad s] (-A)^-1}."""
    check_target(model, target)
    method = as_method(method)
    sp = SigmaPoint(model, sigma)
    info = InformationMatrix(information_at(sp, method), method)
    return _g3_at(sp, grad_s_rhs_at(sp, target), info)


def _g3_data_at(
    sp: SigmaPoint, y: np.ndarray, rhs: np.ndarray, info: InformationMatrix
) -> float:
    """g3_data from ``rhs = grad_s_rhs_at(sp, target)``: grad'(y - X beta) = rhs'Py."""
    a = rhs.T @ apply_p(sp, y)
    return max(float(a @ info.fisher_solve(a)), 0.0)


def g3_data(
    model: MixedModel, sigma, y, target: PredictionTarget, method: str = "REML"
) -> float:
    """Data-specific variant of g3: the quadratic form in y - X beta_tilde.

    Unbiased for g3 to second order when evaluated at the REML estimate;
    unlike g3 it varies with the realized residual.
    """
    check_target(model, target)
    method = as_method(method)
    y = np.asarray(y, dtype=float)
    sp = SigmaPoint(model, sigma)
    info = InformationMatrix(information_at(sp, method), method)
    return _g3_data_at(sp, y, grad_s_rhs_at(sp, target), info)


def _g10_at(sp: SigmaPoint, target: PredictionTarget, info_ml: InformationMatrix) -> float:
    b = _dg1_at(sp, target)
    bias = ml_score_bias_at(sp)
    # A_M^-1 = -(fisher)^-1, so b' A_M^-1 g_M0 = -b' fisher_solve(g_M0)
    return -float(b @ info_ml.fisher_solve(bias))


def g10(model: MixedModel, sigma, target: PredictionTarget) -> float:
    """ML-only extra bias term b' A_M^-1 g_M0 (typically negative)."""
    check_target(model, target)
    sp = SigmaPoint(model, sigma)
    info = InformationMatrix(information_at(sp, "ML"), "ML")
    return _g10_at(sp, target, info)


def _dg1_at(sp: SigmaPoint, target: PredictionTarget) -> np.ndarray:
    # m'dG_i m - 2 m'dG_i Z's + s'V_i s: s's for the residual and
    # (m - Z's)'dG_i (m - Z's) for a block
    model = sp.model
    sc = weights_at(sp, target)
    res = [sc @ sc] if model.family.residual else []
    d = target.m - model.zt_mul(sc)
    return np.array(res + [dg @ d**2 for dg in model.dg_diags[len(res) :]])


def dg1_dsigma(model: MixedModel, sigma, target: PredictionTarget) -> np.ndarray:
    """Analytic gradient of g1 in sigma (the b vector of the corrections)."""
    check_target(model, target)
    return _dg1_at(SigmaPoint(model, sigma), target)


# --------------------------------------------------------------------------
# assembled estimators
# --------------------------------------------------------------------------


def mse_estimators(
    model: MixedModel,
    fit: FitResult,
    y,
    target: PredictionTarget,
    data_specific: bool = False,
) -> MseReport:
    """Assemble every MSE estimator at the fitted sigma-hat.

    When the expected information at sigma-hat is singular only the naive
    estimator g1 + g2 survives; the report then carries the
    "singular-information" warning and None for the corrected fields.
    ``data_specific`` additionally evaluates g3_data at the observed y.
    Everything is evaluated on the fit's workspace when it belongs to
    ``model``, so no factorization of Sigma is repeated.
    """
    check_target(model, target)
    y = np.asarray(y, dtype=float)
    sp = fit.workspace_for(model)
    g1v = _g1_at(sp, target)
    g2v = _g2_at(sp, target)
    naive = g1v + g2v
    warnings: tuple[str, ...] = ()
    if fit.boundary_hit:
        warnings += (WARN_BOUNDARY,)

    info = fit.information
    if info is None:
        return MseReport(
            g1=g1v, g2=g2v, g3=None, g3_data=None, g10=None, naive=naive,
            prasad_rao=None, second_order=None, method=fit.method,
            warnings=warnings + (WARN_SINGULAR_INFORMATION,),
        )

    rhs = grad_s_rhs_at(sp, target)
    g3v = _g3_at(sp, rhs, info)
    g3d = _g3_data_at(sp, y, rhs, info) if data_specific else None
    pr = naive + 2.0 * g3v
    if fit.method == "ML":
        g10v = _g10_at(sp, target, info)
        second = pr - g10v
    else:
        g10v = None
        second = pr
    return MseReport(
        g1=g1v, g2=g2v, g3=g3v, g3_data=g3d, g10=g10v, naive=naive,
        prasad_rao=pr, second_order=second, method=fit.method, warnings=warnings,
    )


def _mse_true_approx_at(
    sp: SigmaPoint, target: PredictionTarget, info: InformationMatrix
) -> tuple[float, float | None]:
    """(g1 + g2, g1 + g2 + g3) at the workspace's sigma; the second is None
    when the information is singular."""
    naive = _g1_at(sp, target) + _g2_at(sp, target)
    try:
        return naive, naive + _g3_at(sp, grad_s_rhs_at(sp, target), info)
    except ArithmeticError:
        return naive, None


def mse_true_approx(
    model: MixedModel, sigma_true, target: PredictionTarget, method: str = "REML"
) -> float:
    """Second-order approximation g1 + g2 + g3 of MSE[t(sigma_hat)] at the true sigma.

    Raises SingularInformation when the information at sigma_true is singular.
    """
    check_target(model, target)
    method = as_method(method)
    sp = SigmaPoint(model, sigma_true)
    info = InformationMatrix(information_at(sp, method), method)
    info.fisher_inv  # noqa: B018 - a singular information raises here
    return _mse_true_approx_at(sp, target, info)[1]


# --------------------------------------------------------------------------
# correction terms
# --------------------------------------------------------------------------


def _w_vector(sp: SigmaPoint, info: InformationMatrix, method: str) -> np.ndarray:
    """w_i = -tr{A^-1 T_i} with T_i[j,k] = tr(B V_i B V_j B V_k).

    B is P under REML and Sigma^-1 under ML; A^-1 = -fisher^-1.
    """
    return np.einsum("jk,ijk->i", info.fisher_inv, sp.trace3(method))


def delta_terms(
    model: MixedModel, sigma, target: PredictionTarget, method: str = "REML"
) -> DeltaTerms:
    """Leading-order correction terms for the plug-in estimator eta(sigma_hat).

    REML: (0, b'A_R^-1 w_R, -g3, -b'A_R^-1 w_R), summing to -g3.
    ML: (2 b'A_M^-1 g_M0, b'A_M^-1 w_M - b'A_M^-1 g_M0, -g3, -b'A_M^-1 w_M),
    summing to g10 - g3.  Subtracting the sum from eta(sigma_hat) recovers
    the second-order estimators assembled by mse_estimators.
    """
    check_target(model, target)
    method = as_method(method)
    sp = SigmaPoint(model, sigma)
    info = InformationMatrix(information_at(sp, method), method)
    b = _dg1_at(sp, target)
    w = _w_vector(sp, info, method)
    g3v = _g3_at(sp, grad_s_rhs_at(sp, target), info)
    bw = -float(b @ info.fisher_solve(w))
    if method == "REML":
        d0, d1, d3 = 0.0, bw, -bw
    else:
        rho = -float(b @ info.fisher_solve(ml_score_bias_at(sp)))
        d0, d1, d3 = 2.0 * rho, bw - rho, -bw
    return DeltaTerms(
        delta0=d0, delta1=d1, delta2=-g3v, delta3=d3, w_vec=w, b_vec=b, method=method
    )
