"""Internal dense linear-algebra workspace shared by the numeric modules.

A :class:`SigmaPoint` bundles the Cholesky factorizations of Sigma(sigma) and
of the GLS Gram matrix X' Sigma^-1 X at one parameter point, and owns the
trace algebra of the likelihood: every second-order quantity is a trace
polynomial tr(BV_i), tr(BV_iBV_j) or tr(BV_iBV_jBV_k) in B = P (REML) or
B = Sigma^-1 (ML) against V_i = dSigma/dsigma_i.  The dense B is built inside
those calls and dropped afterwards.  Everything is dense; the package targets
desk-scale problems.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations

import numpy as np
from scipy import linalg as sla

from .exceptions import NotPositiveDefinite, SingularGram
from .model import MixedModel, sigma_as_array, sigma_matrix


class SigmaPoint:
    """Factorized covariance state for one (model, sigma) pair.

    Lazily caches Sigma, its Cholesky factor, Sigma^-1 X, the Gram matrix
    and the per-method traces; the n x n matrices Sigma^-1 and
    P = Sigma^-1 - Sigma^-1 X (X'Sigma^-1 X)^-1 X'Sigma^-1 are never kept.
    Instances are cheap views over an immutable model.  Build one per
    parameter point and pass it to every computation at that point: a fit
    returns its point at sigma-hat as ``FitResult.workspace``, which the
    EBLUP and MSE code reuse.
    """

    def __init__(self, model: MixedModel, sigma):
        self.model = model
        self.sigma = sigma_as_array(model, sigma)
        self._traces: dict[str, tuple[np.ndarray, np.ndarray]] = {}

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

    # -- GLS and the trace algebra ----------------------------------------

    def gls(self, y: np.ndarray) -> np.ndarray:
        """GLS fixed-effect solution beta_tilde = (X'S^-1X)^-1 X'S^-1 y."""
        return self.gram_solve(self.model.X.T @ self.solve(y))

    def b_matrix(self, method: str) -> np.ndarray:
        """The dense n x n B: the projection P for "REML", Sigma^-1 for "ML".

        Built afresh on every call and never cached.
        """
        inv = self.solve(np.eye(self.model.n))
        inv = 0.5 * (inv + inv.T)
        return inv if method == "ML" else self._project(inv)

    def _project(self, inv: np.ndarray) -> np.ndarray:
        return inv - self.six @ self.gram_solve(self.six.T)

    def traces(self, method: str) -> tuple[np.ndarray, np.ndarray]:
        """(t1, t2) with t1[i] = tr(BV_i) and t2[i, j] = tr(BV_iBV_j).

        Cached per method, so the score, the information and the effective
        dimensions at one point share one set of BV_i products.  Threads
        sharing a point may fill an entry twice, with equal values.
        """
        if method not in self._traces:
            B = self.b_matrix(method)
            if method == "ML" and "REML" not in self._traces:
                # the ML information and score bias also read the REML traces
                self._traces["REML"] = self._trace_pair(self._project(B))
            self._traces[method] = self._trace_pair(B)
        return self._traces[method]

    def _trace_pair(self, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # tr(B V_i) = sum(B * V_i) for symmetric B, V_i
        t1 = np.array([np.sum(B * v) for v in self.model.v_mats])
        bv = [B @ v for v in self.model.v_mats]
        t2 = np.empty((len(bv), len(bv)))
        for i in range(len(bv)):
            for j in range(i, len(bv)):
                t2[i, j] = t2[j, i] = np.sum(bv[i] * bv[j].T)
        return t1, t2

    def trace3(self, method: str) -> np.ndarray:
        """The s x s x s array tr(BV_iBV_jBV_k), symmetrized over index order."""
        B = self.b_matrix(method)
        bv = [B @ v for v in self.model.v_mats]
        t3 = np.empty((len(bv),) * 3)
        for i, bi in enumerate(bv):
            for j, bj in enumerate(bv):
                left = bi @ bj
                t3[i, j] = [np.sum(left * bk.T) for bk in bv]
        return symmetrize3(t3)


def symmetrize3(a: np.ndarray) -> np.ndarray:
    """Average a 3-index array over the six orders of its indices."""
    return sum(np.transpose(a, perm) for perm in permutations(range(3))) / 6.0
