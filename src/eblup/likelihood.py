"""Restricted and profile loglikelihoods with exact derivative formulas.

For Sigma(sigma) linear in sigma with constant derivatives V_i, the projection

    P = Sigma^-1 - Sigma^-1 X (X' Sigma^-1 X)^-1 X' Sigma^-1

drives everything: the REML score is (1/2)[y'PV_iPy - tr(PV_i)], the profile
(ML) score replaces tr(PV_i) by tr(Sigma^-1 V_i), and the second and third
derivatives are trace polynomials in P (REML) or Sigma^-1 (ML) against the
V_i, with quadratic forms in Py.  Since PX = 0, the quadratic forms written
in the residual u = y - X beta can all be evaluated with y itself.

The REML criterion is the X-based form

    l_R = -(1/2) [log|Sigma| + log|X' Sigma^-1 X| + y'Py]

which differs from the error-contrast likelihood only by a constant free of
sigma; the profile criterion drops the Gram log-determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg as sla

from ._linalg import SigmaPoint, symmetrize3
from .exceptions import SingularInformation
from .model import MixedModel

METHODS = ("REML", "ML")


def as_method(method: str) -> str:
    """Normalize a method name to 'REML' or 'ML'."""
    m = str(method).upper()
    if m not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return m


# --------------------------------------------------------------------------
# result types
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InformationMatrix:
    """Expected Hessian A of the chosen criterion; -A is the Fisher information."""

    A: np.ndarray
    method: str

    @cached_property
    def fisher(self) -> np.ndarray:
        return -self.A

    @cached_property
    def _fisher_cho(self):
        try:
            return sla.cho_factor(self.fisher, lower=True)
        except np.linalg.LinAlgError as err:
            raise SingularInformation(
                f"{self.method} information matrix is not positive definite"
            ) from err

    def fisher_solve(self, b: np.ndarray) -> np.ndarray:
        """(-A)^-1 b for a finite b, which is not checked; raises
        SingularInformation when -A has no Cholesky factor."""
        return sla.cho_solve(self._fisher_cho, b, check_finite=False)

    @cached_property
    def fisher_inv(self) -> np.ndarray:
        inv = self.fisher_solve(np.eye(self.A.shape[0]))
        return 0.5 * (inv + inv.T)


# --------------------------------------------------------------------------
# workspace-level implementations
# --------------------------------------------------------------------------
# These *_at helpers operate on a prebuilt SigmaPoint so the estimation loop
# can reuse one factorization per iterate.  Public wrappers below build the
# point from (model, sigma).


def apply_p(sp: SigmaPoint, v: np.ndarray) -> np.ndarray:
    """P v through solves, without materializing P."""
    siv = sp.solve(v)
    return siv - sp.six @ sp.gram_solve(sp.model.X.T @ siv)


def restricted_loglik_at(sp: SigmaPoint, y: np.ndarray) -> float:
    quad = float(y @ apply_p(sp, y))
    return -0.5 * (sp.logdet_sigma + sp.logdet_gram + quad)


def profile_loglik_at(sp: SigmaPoint, y: np.ndarray) -> float:
    quad = float(y @ apply_p(sp, y))
    return -0.5 * (sp.logdet_sigma + quad)


def loglik_at(sp: SigmaPoint, y: np.ndarray, method: str) -> float:
    if method == "REML":
        return restricted_loglik_at(sp, y)
    return profile_loglik_at(sp, y)


def _v_cols(model: MixedModel, x: np.ndarray) -> np.ndarray:
    """The n x s matrix with columns V_i x."""
    return np.column_stack([model.v_mul(i, x) for i in range(model.s)])


def score_at(sp: SigmaPoint, y: np.ndarray, method: str) -> np.ndarray:
    py = apply_p(sp, y)
    quad = np.array([py @ sp.model.v_mul(i, py) for i in range(sp.model.s)])
    return 0.5 * (quad - sp.traces(method)[0])


def hessian_at(sp: SigmaPoint, y: np.ndarray, method: str) -> np.ndarray:
    w = _v_cols(sp.model, apply_p(sp, y))
    H = 0.5 * sp.traces(method)[1] - w.T @ apply_p(sp, w)
    return 0.5 * (H + H.T)


def third_derivatives_at(sp: SigmaPoint, y: np.ndarray, method: str) -> np.ndarray:
    model = sp.model
    h = apply_p(sp, _v_cols(model, apply_p(sp, y)))
    # the three cyclic quadratic forms h_i'V_jh_k agree once symmetrized
    quad = np.array([h.T @ model.v_mul(j, h) for j in range(model.s)])
    return 3.0 * symmetrize3(quad) - sp.trace3(method)


def information_at(sp: SigmaPoint, method: str) -> np.ndarray:
    """Expected Hessian A without the invertibility check."""
    t2 = sp.traces("REML")[1]
    if method == "REML":
        return -0.5 * t2
    # P Sigma P = P, so the ML term tr(PV_iPV_jP Sigma) is tr(PV_iPV_j)
    return 0.5 * sp.traces("ML")[1] - t2


def ml_score_bias_at(sp: SigmaPoint) -> np.ndarray:
    return 0.5 * (sp.traces("ML")[0] - sp.traces("REML")[0])


def effective_dims_at(sp: SigmaPoint) -> np.ndarray:
    """d_i = ||Z_i'PZ_i||_F = sqrt(tr(PV_iPV_i)), as V_i = Z_iZ_i' (Z_0 = I)."""
    # a zero trace (a one-level block beside an intercept) can round below 0
    return np.sqrt(np.maximum(np.diag(sp.traces("REML")[1]), 0.0))


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------


def projection_p(model: MixedModel, sigma) -> np.ndarray:
    """The symmetric projection matrix P; satisfies PX = 0 and P Sigma P = P."""
    return SigmaPoint(model, sigma).b_matrix("REML")


def restricted_loglik(model: MixedModel, sigma, y) -> float:
    """REML criterion -(1/2)[log|Sigma| + log|X'Sigma^-1 X| + y'Py]."""
    return restricted_loglik_at(SigmaPoint(model, sigma), np.asarray(y, dtype=float))


def profile_loglik(model: MixedModel, sigma, y) -> float:
    """Profile criterion -(1/2)[log|Sigma| + y'Py] with beta profiled out."""
    return profile_loglik_at(SigmaPoint(model, sigma), np.asarray(y, dtype=float))


def score_reml(model: MixedModel, sigma, y) -> np.ndarray:
    """REML score: component i is (1/2)[y'PV_iPy - tr(PV_i)]."""
    return score_at(SigmaPoint(model, sigma), np.asarray(y, dtype=float), "REML")


def score_ml(model: MixedModel, sigma, y) -> np.ndarray:
    """ML score: component i is (1/2)[y'PV_iPy - tr(Sigma^-1 V_i)]."""
    return score_at(SigmaPoint(model, sigma), np.asarray(y, dtype=float), "ML")


def hessian(model: MixedModel, sigma, y, method: str = "REML") -> np.ndarray:
    """Second-derivative matrix of the chosen criterion.

    Entry (i,j) is (1/2)tr(PV_iPV_j) - y'PV_iPV_jPy for REML; ML replaces
    the trace by (1/2)tr(Sigma^-1 V_i Sigma^-1 V_j).  The returned matrix is
    symmetrized (the two index orders of the quadratic form are averaged).
    """
    m = as_method(method)
    return hessian_at(SigmaPoint(model, sigma), np.asarray(y, dtype=float), m)


def third_derivatives(model: MixedModel, sigma, y, method: str = "REML") -> np.ndarray:
    """Third-derivative array: cyclic quadratic forms minus two trace orders.

    Entry (i,j,k) is

        y'PV_iPV_jPV_kPy + y'PV_jPV_kPV_iPy + y'PV_kPV_iPV_jPy
        - (1/2)[tr(BV_iBV_jBV_k) + tr(BV_iBV_kBV_j)]

    with B = P for REML and B = Sigma^-1 for ML (quadratic forms keep P).
    """
    m = as_method(method)
    return third_derivatives_at(SigmaPoint(model, sigma), np.asarray(y, dtype=float), m)


def expected_information(model: MixedModel, sigma, method: str = "REML") -> InformationMatrix:
    """Expected Hessian A; -A must be invertible (positive definite).

    REML: A(i,j) = -(1/2) tr(PV_iPV_j).  ML: the exact expectation of the
    profile Hessian, A(i,j) = (1/2)tr(S^-1 V_i S^-1 V_j) - tr(PV_iPV_jPS),
    using E[u'Qu] = tr(Q Sigma); as PSP = P, the last trace is tr(PV_iPV_j).
    Raises SingularInformation on degenerate designs where -A has no
    Cholesky factor.
    """
    m = as_method(method)
    info = InformationMatrix(A=information_at(SigmaPoint(model, sigma), m), method=m)
    info._fisher_cho  # noqa: B018 - force the invertibility check
    return info


def ml_score_bias(model: MixedModel, sigma) -> np.ndarray:
    """g_M0 with components (1/2)tr[(Sigma^-1 - P)V_i]; E(ML score) = -g_M0."""
    return ml_score_bias_at(SigmaPoint(model, sigma))


def effective_dims(model: MixedModel, sigma) -> np.ndarray:
    """Per-component effective dimensions d_i = ||Z_i' P Z_i||_F (Z_0 = I)."""
    return effective_dims_at(SigmaPoint(model, sigma))
