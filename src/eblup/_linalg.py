"""Internal dense linear-algebra workspace shared by the numeric modules.

A :class:`SigmaPoint` bundles the Cholesky factorizations of Sigma(sigma) and
of the GLS Gram matrix X' Sigma^-1 X at one parameter point, so repeated
solves and trace computations reuse the same factors.  Everything is dense;
the package targets desk-scale problems.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import linalg as sla

from .exceptions import NotPositiveDefinite, SingularGram
from .model import MixedModel, sigma_as_array, sigma_matrix


class SigmaPoint:
    """Factorized covariance state for one (model, sigma) pair.

    Lazily caches Sigma, its Cholesky factor, Sigma^-1, the Gram matrix and
    the projection P = Sigma^-1 - Sigma^-1 X (X'Sigma^-1 X)^-1 X'Sigma^-1.
    Instances are cheap views over an immutable model.  Build one per
    parameter point and pass it to every computation at that point: a fit
    returns its point at sigma-hat as ``FitResult.workspace``, which the
    EBLUP and MSE code reuse.
    """

    def __init__(self, model: MixedModel, sigma):
        self.model = model
        self.sigma = sigma_as_array(model, sigma)

    # -- Sigma ------------------------------------------------------------

    @cached_property
    def sigma_mat(self) -> np.ndarray:
        return sigma_matrix(self.model, self.sigma)

    @cached_property
    def g_diag(self) -> np.ndarray:
        """Diagonal of G(sigma)."""
        return self.model.family.g_diag(self.sigma)

    @cached_property
    def _cho(self):
        try:
            return sla.cho_factor(self.sigma_mat, lower=True)
        except np.linalg.LinAlgError as err:
            raise NotPositiveDefinite(
                f"Sigma(sigma={self.sigma.tolist()}) is not positive definite"
            ) from err

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Sigma^-1 b via the cached Cholesky factor.

        Only b is checked for non-finite entries: the factor came from a
        checked, finite Sigma, and checking its n^2 entries on every solve
        would cost as much as the solve.
        """
        return sla.cho_solve(self._cho, np.asarray_chkfinite(b), check_finite=False)

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        inv = self.solve(np.eye(self.model.n))
        return 0.5 * (inv + inv.T)

    @cached_property
    def logdet_sigma(self) -> float:
        c, _ = self._cho
        return 2.0 * float(np.sum(np.log(np.diag(c))))

    # -- Gram matrix X' Sigma^-1 X ----------------------------------------

    @cached_property
    def six(self) -> np.ndarray:
        """Sigma^-1 X, shared by the Gram matrix and the projection."""
        return self.solve(self.model.X)

    @cached_property
    def gram(self) -> np.ndarray:
        g = self.model.X.T @ self.six
        return 0.5 * (g + g.T)

    @cached_property
    def _gram_cho(self):
        try:
            return sla.cho_factor(self.gram, lower=True)
        except np.linalg.LinAlgError as err:
            raise SingularGram("X' Sigma^-1 X is numerically singular") from err

    def gram_solve(self, b: np.ndarray) -> np.ndarray:
        return sla.cho_solve(self._gram_cho, b)

    @cached_property
    def gram_inv(self) -> np.ndarray:
        inv = self.gram_solve(np.eye(self.model.p))
        return 0.5 * (inv + inv.T)

    @cached_property
    def logdet_gram(self) -> float:
        c, _ = self._gram_cho
        return 2.0 * float(np.sum(np.log(np.diag(c))))

    # -- projection and GLS -----------------------------------------------

    @cached_property
    def proj(self) -> np.ndarray:
        P = self.sigma_inv - self.six @ self.gram_solve(self.six.T)
        return 0.5 * (P + P.T)

    def gls(self, y: np.ndarray) -> np.ndarray:
        """GLS fixed-effect solution beta_tilde = (X'S^-1X)^-1 X'S^-1 y."""
        return self.gram_solve(self.model.X.T @ self.solve(y))
