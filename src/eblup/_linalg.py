"""Internal linear-algebra workspace shared by the numeric modules.

A :class:`SigmaPoint` holds Sigma(sigma) = R + Z G Z' and the GLS Gram matrix
X' Sigma^-1 X factorized at one parameter point, and owns the trace algebra
of the likelihood: every second-order quantity is a trace polynomial
tr(BV_i), tr(BV_iBV_j) or tr(BV_iBV_jBV_k) in B = P (REML) or B = Sigma^-1
(ML) against V_i = dSigma/dsigma_i.  R and G are diagonal, and the point
alone picks one of two backends:

* r-space, when every R_ii = d_i + sigma_0 is positive (Fay-Herriot always,
  a model with a residual whenever sigma_0 > 0).  Sigma is then positive
  definite for any G >= 0, and with H = G^1/2 and U = R^-1 Z Woodbury's
  identity, as in Henderson's mixed-model equations, gives

      Sigma^-1 = R^-1 - U M U',  M = H C^-1 H,  C = I + H Z'R^-1 Z H,
      log|Sigma| = sum_i log R_ii + log|C|,

  so nothing n x n is formed.  Products with Z go through the model's
  integer codes (``MixedModel.z_mul``, ``zt_mul``), O(n) per coded block.
  When Z is one block whose rows hold at most one nonzero (Fay-Herriot,
  nested error) Z'R^-j Z and C are vectors, a vector solve is one
  ``bincount`` and one gather, and the traces of W = Z'BZ, a diagonal less
  a rank-p term, form no r x r array.  Otherwise Z'R^-j Z is one
  ``bincount`` over pairs of codes, C takes one r x r Cholesky
  factorization and the traces read the r x r W.  For V_0 = I they also
  need tr(B), tr(B^2) and the diagonal of Z'B^2Z.
* dense, when some R_ii is 0 (sigma_0 = 0 with d = 0).  Only the n x n
  Cholesky factorization of Sigma can then tell whether Sigma is positive
  definite; the traces read the dense B, built inside the call and dropped.

``trace3`` and ``b_matrix`` form the dense B under either backend, and
``trace3`` the dense V_i: they serve the third-order traces (third
derivatives, the MSE w vector) and the explicit projection, which no fit
iterate, EBLUP or MSE estimator reads.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations

import numpy as np
from scipy import linalg as sla

from .exceptions import NotPositiveDefinite, SingularGram
from .model import MixedModel, _dot, sigma_as_array, sigma_matrix


class SigmaPoint:
    """Factorized covariance state for one (model, sigma) pair.

    Lazily caches the factorization of Sigma (the r-space core or the dense
    Cholesky factor), Sigma^-1 X, the Gram matrix and the per-method traces;
    the n x n matrices Sigma^-1 and P = Sigma^-1 - Sigma^-1 X (X'Sigma^-1 X)^-1
    X'Sigma^-1 are never kept.  ``r_space`` says which backend serves the
    point.  Instances are cheap views over an immutable model.  Build one
    per parameter point and pass it to every computation at that point: a
    fit returns its point at sigma-hat as ``FitResult.workspace``, which the
    EBLUP and MSE code reuse.
    """

    def __init__(self, model: MixedModel, sigma):
        self.model = model
        self.sigma = sigma_as_array(model, sigma)
        self.rho = model.family.r_diag(self.sigma)
        self.r_space = bool(np.all(self.rho > 0.0))
        self._rinv = 1.0 / self.rho if self.r_space else None
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

    def _zrz(self, w: np.ndarray) -> np.ndarray:
        """Z' diag(w) Z, as the vector of its diagonal when that is all of it."""
        model = self.model
        codes, vals, dense = model.z_codes
        r = model.r
        if len(codes) == 1 and not dense:  # one block, one nonzero per row
            return np.bincount(codes[0], vals[0] ** 2 * w, r)
        if dense:
            return model.zt_mul(_dot(w, model.z_mul(np.eye(r))))
        # entry (a, b) sums w_i Z_ia Z_ib over the rows, block pair by block pair
        pairs = codes[:, None] * r + codes
        return np.bincount(pairs.ravel(), (vals[:, None] * vals * w).ravel(), r * r).reshape(r, r)

    @cached_property
    def _one_hot(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, u) with U = R^-1 Z = u[i] in column codes[i] of row i."""
        codes, vals, _ = self.model.z_codes
        return codes[0], vals[0] * self._rinv

    @cached_property
    def _core(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(K1, M, log|C|) of the r-space backend, with K1 = Z'R^-1 Z."""
        g = self.g_diag
        k1 = self._zrz(self._rinv)
        if k1.ndim == 1:
            c = 1.0 + g * k1
            return k1, g / c, float(np.sum(np.log(c)))
        h = np.sqrt(g)
        cho = sla.cho_factor(np.eye(len(h)) + h[:, None] * k1 * h, lower=True)
        m = h[:, None] * sla.cho_solve(cho, np.diag(h))
        return k1, 0.5 * (m + m.T), 2.0 * float(np.sum(np.log(np.diag(cho[0]))))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Sigma^-1 b, for a vector or a matrix b.

        Only b is checked for non-finite entries: the factorization came
        from a finite Sigma, and checking it on every solve would cost as
        much as the solve.
        """
        b = np.asarray_chkfinite(b)
        if not self.r_space:
            return sla.cho_solve(self._cho, b, check_finite=False)
        model, rinv, m = self.model, self._rinv, self._core[1]
        if b.ndim == 1 and m.ndim == 1:
            codes, u = self._one_hot
            return rinv * b - u * (m * np.bincount(codes, u * b, len(m)))[codes]
        return _dot(rinv, b - model.z_mul(_dot(m, model.zt_mul(_dot(rinv, b)))))

    @cached_property
    def logdet_sigma(self) -> float:
        if self.r_space:
            return float(np.sum(np.log(self.rho))) + self._core[2]
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
        """(X'Sigma^-1 X)^-1 b for a finite b, which is not checked: every
        caller passes a product of finite solves, X and a target."""
        return sla.cho_solve(self._gram_cho, b, check_finite=False)

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

        Both methods are computed at once and cached, so the score, the
        information and the effective dimensions at one point share one set
        of traces, and the ML information and score bias, which read both
        methods, take no second pass.  Threads sharing a point may fill the
        cache twice, with equal values.
        """
        if not self._traces:
            self._traces = {m: self._trace_pair(*parts) for m, parts in self._trace_parts().items()}
        return self._traces[method]

    def _trace_parts(self) -> dict:
        """Per method, the block traces (tr W_kk, ||W_kl||^2) of W = Z'BZ and,
        with a residual, (tr B, tr B^2, diag Z'B^2Z)."""
        model = self.model
        residual, slices = model.family.residual, model.family.block_slices
        if not self.r_space:
            Z, inv = model.Z, self.b_matrix("ML")
            parts = {}
            for method, B in (("ML", inv), ("REML", self._project(inv))):
                bz = B @ Z
                sq = (np.trace(B), np.sum(B * B), np.sum(bz * bz, axis=0)) if residual else None
                parts[method] = (_block_traces(Z.T @ bz, slices), sq)
            return parts
        # P = Sigma^-1 - F Gi F' with F = Sigma^-1 X and Gi the inverse Gram matrix
        rinv = self._rinv
        k1, m, _ = self._core
        f, gi = self.six, self.gram_inv
        a = model.zt_mul(f)
        ag = a @ gi
        w = k1 - _dot(k1, _dot(m, k1))
        if w.ndim == 1:  # one block on a diagonal core: W = diag(w) - [REML] a Gi a'
            ml, reml = _rank_p_traces(w, a[:, :0], a[:, :0]), _rank_p_traces(w, ag, a)
        else:
            ml, reml = _block_traces(w, slices), _block_traces(w - ag @ a.T, slices)
        if not residual:
            return {"ML": (ml, None), "REML": (reml, None)}
        # Sigma^-1 Z = U N with N = I - M K1, so Z'Sigma^-2 Z = N'K2N
        k2 = self._zrz(rinv**2)
        mk2 = _dot(m, k2)
        nmat = (1.0 if m.ndim == 1 else np.eye(model.r)) - _dot(m, k1)
        nk2n = nmat * _dot(k2, nmat)
        diag = nk2n if nk2n.ndim == 1 else np.sum(nk2n, axis=0)
        tr_inv = np.sum(rinv) - np.sum(m * k2)
        tr_inv2 = np.sum(rinv**2) - 2.0 * np.sum(m * self._zrz(rinv**3)) + np.sum(mk2 * mk2.T)
        e = self.solve(f)
        ff = f.T @ f
        gff = gi @ ff
        p_sq = (
            tr_inv - np.trace(gff),
            tr_inv2 - 2.0 * np.sum(gi * (f.T @ e)) + np.sum(gff * gff.T),
            diag - 2.0 * np.sum(model.zt_mul(e) * ag, axis=1) + np.sum((ag @ ff) * ag, axis=1),
        )
        return {"ML": (ml, (tr_inv, tr_inv2, diag)), "REML": (reml, p_sq)}

    def _trace_pair(self, wt, sq) -> tuple[np.ndarray, np.ndarray]:
        # V_k = Z_kZ_k': tr(BV_k) = tr(W_kk), tr(BV_kBV_l) = ||W_kl||^2 and
        # tr(BV_0BV_k) = tr(Z_k'B^2Z_k)
        slices = self.model.family.block_slices
        t1, t2 = wt
        if sq is not None:
            tr_b, tr_b2, zb2z = sq
            col = [np.sum(zb2z[i]) for i in slices]
            t1 = [tr_b] + t1
            t2 = [[tr_b2] + col] + [[c] + row for c, row in zip(col, t2)]
        return np.array(t1), np.array(t2)

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


def _block_traces(w: np.ndarray, slices) -> tuple[list, list]:
    """(tr W_kk, ||W_kl||^2) of the symmetrized r x r W, block by block;
    forming W_kl keeps a zero trace exact."""
    w = 0.5 * (w + w.T)
    return [np.trace(w[i, i]) for i in slices], [[np.sum(w[i, j] ** 2) for j in slices] for i in slices]


def _rank_p_traces(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[list, list]:
    """(tr W, ||W||^2) of one block's W = diag(w) - ab', without forming W."""
    c = np.sum(a * b, axis=1)
    d = w - c
    # the off-diagonal part of ab': a sum of squares, empty for one effect
    off = max(float(np.sum((a.T @ a) * (b.T @ b)) - c @ c), 0.0) if len(w) > 1 else 0.0
    return [np.sum(d)], [[d @ d + off]]


def symmetrize3(a: np.ndarray) -> np.ndarray:
    """Average a 3-index array over the six orders of its indices."""
    return sum(np.transpose(a, perm) for perm in permutations(range(3))) / 6.0
