"""Reference values for the benchmark's checks, in plain numpy.

Nothing here imports or calls the eblup package: the checks compare the
package's outputs with closed forms (Fay-Herriot after Prasad & Rao 1990,
the nested-error model after Battese, Harter & Fuller 1988, balanced ANOVA
mean squares) and with dense matrix formulas written out independently.

Conventions follow the package's documented definitions: sigma is ordered
(residual, random effects...); the MSE estimator for a target l'b + m'v is
naive = g1 + g2, Prasad-Rao = naive + 2 g3, and under ML the second-order
form subtracts g10.  The "fisher" matrix F is minus the expected Hessian of
the fitted criterion:

    REML:  F_ij = (1/2) tr(P V_i P V_j)
    ML:    F_ij = tr(P V_i P V_j) - (1/2) tr(S^-1 V_i S^-1 V_j)

the second being E[-Hessian] of the profile loglikelihood, where
E[y'P V_i P V_j P y] = tr(P V_i P V_j) because P Sigma P = P.
"""

from __future__ import annotations

import numpy as np


def close(got, want, rtol: float = 1e-7, atol: float = 1e-12) -> bool:
    """True when got is a finite number within rtol of want (plus atol)."""
    if got is None:
        return False
    got = float(got)
    return bool(np.isfinite(got) and abs(got - want) <= atol + rtol * abs(want))


def projection(X: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
    """P = S^-1 - S^-1 X (X' S^-1 X)^-1 X' S^-1 from an explicit S^-1."""
    six = s_inv @ X
    return s_inv - six @ np.linalg.solve(X.T @ six, six.T)


def fisher(P: np.ndarray, s_inv: np.ndarray, v_mats, method: str) -> np.ndarray:
    """Minus the expected Hessian of the REML or profile (ML) criterion."""
    pv = [P @ v for v in v_mats]
    siv = [s_inv @ v for v in v_mats]
    k = len(v_mats)
    F = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            reml = 0.5 * np.sum(pv[i] * pv[j].T)
            F[i, j] = reml if method == "REML" else 2.0 * reml - 0.5 * np.sum(siv[i] * siv[j].T)
    return F


def score(P, s_inv, v_mats, y, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Score (1/2)[y'P V_i P y - tr(B V_i)], B = P (REML) or S^-1 (ML), with its scale.

    Returns (score, scale) where scale = (1/2)[y'P V_i P y + |tr(B V_i)|] is
    the size of the two terms that cancel at a root.
    """
    py = P @ y
    B = P if method == "REML" else s_inv
    quad = np.array([py @ v @ py for v in v_mats])
    tr = np.array([np.sum(B * v) for v in v_mats])
    return 0.5 * (quad - tr), 0.5 * (np.abs(quad) + np.abs(tr))


def score_ok(sc: np.ndarray, scale: np.ndarray, at_zero: np.ndarray, rtol: float = 1e-6) -> np.ndarray:
    """Per component, the KKT condition of the fitted criterion at sigma-hat.

    A free component's score is zero to rtol of the terms that cancel in
    it; a component at zero has a score that points outward (<= 0, to the
    same tolerance).
    """
    tol = rtol * (1.0 + scale)
    return np.where(at_zero, sc <= tol, np.abs(sc) <= tol)


def ml_score_bias(P: np.ndarray, s_inv: np.ndarray, v_mats) -> np.ndarray:
    """g_M0 with components (1/2) tr[(S^-1 - P) V_i]."""
    return np.array([0.5 * np.sum((s_inv - P) * v) for v in v_mats])


class FayHerriot:
    """Area-level closed forms at sampling variances phi and model variance A.

    With d_i = A + phi_i and gamma_i = A/d_i: the EBLUP of x_i'b + v_i is
    gamma_i y_i + (1 - gamma_i) x_i'beta, g1 = gamma_i phi_i,
    g2 = (1 - gamma_i)^2 x_i'(sum_j x_j x_j'/d_j)^-1 x_i,
    g3 = phi_i^2 / d_i^3 / F, g3_data = [phi_i/d_i^2 (y_i - x_i'beta)]^2 / F.
    """

    def __init__(self, X, phi, A: float, method: str, y=None):
        X = np.asarray(X, dtype=float)
        phi = np.asarray(phi, dtype=float)
        d = A + phi
        w = 1.0 / d
        gram_inv = np.linalg.inv(X.T @ (X * w[:, None]))
        xw = X * w[:, None]
        self.P = np.diag(w) - xw @ gram_inv @ xw.T
        self.gamma = A * w
        self.g1 = self.gamma * phi
        self.g2 = (1.0 - self.gamma) ** 2 * np.einsum("ij,jk,ik->i", X, gram_inv, X)
        tr_pp = float(np.sum(self.P * self.P))
        self.F = 0.5 * tr_pp if method == "REML" else tr_pp - 0.5 * float(np.sum(w * w))
        self.g3 = phi**2 * w**3 / self.F
        if y is not None:
            y = np.asarray(y, dtype=float)
            beta = gram_inv @ (xw.T @ y)
            resid = y - X @ beta
            self.eblup = self.gamma * y + (1.0 - self.gamma) * (X @ beta)
            self.g3_data = (phi * w**2 * resid) ** 2 / self.F
            py = self.P @ y
            tr = float(np.trace(self.P)) if method == "REML" else float(np.sum(w))
            quad = float(py @ py)
            self.score = np.array([0.5 * (quad - tr)])
            self.score_scale = np.array([0.5 * (quad + tr)])


class NestedError:
    """Battese-Harter-Fuller closed forms for group means x_bar_i'b + v_i.

    sigma = (s0, s1): residual and group variance.  With
    lam_i = s0 + n_i s1 and gamma_i = n_i s1 / lam_i: the EBLUP is
    x_bar_i'beta + gamma_i (y_bar_i - x_bar_i'beta), g1 = gamma_i s0 / n_i,
    g2 = (1 - gamma_i)^2 x_bar_i' (X'S^-1X)^-1 x_bar_i, and
    g3 = n_i / lam_i^3 d'F^-1 d with d = (-s1, s0).  beta is GLS through
    the per-group inverse (I - (s1/lam_i) J)/s0, never an n x n solve.
    """

    def __init__(self, X, groups, sigma, y, method: str):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        groups = np.asarray(groups)
        s0, s1 = (float(v) for v in sigma)
        n_i = np.bincount(groups).astype(float)
        lam = s0 + n_i * s1
        self.gamma = n_i * s1 / lam
        xbar = np.stack([np.bincount(groups, weights=X[:, j]) for j in range(X.shape[1])], 1)
        xbar /= n_i[:, None]
        ybar = np.bincount(groups, weights=y) / n_i
        gn = self.gamma * n_i
        gram = (X.T @ X - (xbar * gn[:, None]).T @ xbar) / s0
        rhs = (X.T @ y - (xbar * gn[:, None]).T @ ybar) / s0
        gram_inv = np.linalg.inv(gram)
        beta = gram_inv @ rhs
        fitted = xbar @ beta
        self.eblup = fitted + self.gamma * (ybar - fitted)
        self.g1 = self.gamma * s0 / n_i
        self.g2 = (1.0 - self.gamma) ** 2 * np.einsum("ij,jk,ik->i", xbar, gram_inv, xbar)

        # dense S^-1 from the same per-group closed form, for P and traces
        same = groups[:, None] == groups[None, :]
        s_inv = (np.eye(len(y)) - same * (s1 / lam[groups])[:, None]) / s0
        v_mats = [np.eye(len(y)), same.astype(float)]
        P = projection(X, s_inv)
        F_inv = np.linalg.inv(fisher(P, s_inv, v_mats, method))
        d = np.stack([-s1 * np.ones_like(lam), s0 * np.ones_like(lam)], 1)
        self.g3 = n_i / lam**3 * np.einsum("ij,jk,ik->i", d, F_inv, d)
        b = np.stack([n_i * s1**2, np.full_like(lam, s0**2)], 1) / lam[:, None] ** 2
        self.g10 = -(b @ (F_inv @ ml_score_bias(P, s_inv, v_mats)))
        self.score, self.score_scale = score(P, s_inv, v_mats, y, method)


def anova_two_way(y3: np.ndarray) -> np.ndarray:
    """ANOVA estimators (s0, sA, sB, sAB) for a balanced a x b x r layout.

    Expected mean squares: E[MSE] = s0, E[MSAB] = s0 + r sAB,
    E[MSA] = s0 + r sAB + b r sA, E[MSB] = s0 + r sAB + a r sB.
    """
    a, b, r = y3.shape
    cell = y3.mean(axis=2)
    ai = cell.mean(axis=1)
    bj = cell.mean(axis=0)
    grand = cell.mean()
    mse = float(np.sum((y3 - cell[:, :, None]) ** 2)) / (a * b * (r - 1))
    inter = cell - ai[:, None] - bj[None, :] + grand
    msab = r * float(np.sum(inter**2)) / ((a - 1) * (b - 1))
    msa = b * r * float(np.sum((ai - grand) ** 2)) / (a - 1)
    msb = a * r * float(np.sum((bj - grand) ** 2)) / (b - 1)
    return np.array([mse, (msa - msab) / (b * r), (msb - msab) / (a * r), (msab - mse) / r])


class Dense:
    """Dense reference for Sigma = s0 I + sum_k s_k Z_k Z_k' with G diagonal.

    Every inverse is explicit (numpy.linalg.inv).  g3 differentiates the BLUP
    weights s(sigma) = S^-1 Z G m by central differences instead of the
    analytic gradient the package uses.
    """

    def __init__(self, X, z_blocks, sigma, method: str):
        self.X = np.asarray(X, dtype=float)
        self.z_blocks = [np.asarray(z, dtype=float) for z in z_blocks]
        self.Z = np.hstack(self.z_blocks)
        self.sigma = np.asarray(sigma, dtype=float)
        n = self.X.shape[0]
        self.v_mats = [np.eye(n)] + [z @ z.T for z in self.z_blocks]
        self.s_inv = np.linalg.inv(self._sigma_mat(self.sigma))
        self.P = projection(self.X, self.s_inv)
        self.gram_inv = np.linalg.inv(self.X.T @ self.s_inv @ self.X)
        self.F_inv = np.linalg.inv(fisher(self.P, self.s_inv, self.v_mats, method))
        self.method = method

    def _g_diag(self, sigma) -> np.ndarray:
        return np.concatenate([np.full(z.shape[1], s) for z, s in zip(self.z_blocks, sigma[1:])])

    def _sigma_mat(self, sigma) -> np.ndarray:
        return sum(s * v for s, v in zip(sigma, self.v_mats))

    def blup(self, y) -> tuple[np.ndarray, np.ndarray]:
        """GLS beta and the random-effect predictor G Z' S^-1 (y - X beta)."""
        beta = self.gram_inv @ (self.X.T @ (self.s_inv @ y))
        return beta, self._g_diag(self.sigma) * (self.Z.T @ (self.s_inv @ (y - self.X @ beta)))

    def g1_g2(self, L: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g1 and g2 for the targets in the columns of L (p x k) and M (r x k)."""
        gm = self._g_diag(self.sigma)[:, None] * M
        c = self.Z @ gm
        g1 = np.sum(M * gm, axis=0) - np.sum(c * (self.s_inv @ c), axis=0)
        u = L - self.X.T @ (self.s_inv @ c)
        return g1, np.sum(u * (self.gram_inv @ u), axis=0)

    def g3(self, M: np.ndarray, h_rel: float = 1e-5) -> np.ndarray:
        """tr{[grad s]' S [grad s] F^-1} with grad s by central differences."""
        def weights(sig):
            return np.linalg.solve(self._sigma_mat(sig), self.Z @ (self._g_diag(sig)[:, None] * M))

        grads = []
        for i in range(len(self.sigma)):
            h = h_rel * (1.0 + abs(self.sigma[i]))
            hi = self.sigma.copy()
            lo = self.sigma.copy()
            hi[i] += h
            lo[i] -= h
            grads.append((weights(hi) - weights(lo)) / (2.0 * h))
        S = self._sigma_mat(self.sigma)
        out = np.zeros(M.shape[1])
        for i in range(len(grads)):
            for j in range(len(grads)):
                out += np.sum(grads[i] * (S @ grads[j]), axis=0) * self.F_inv[i, j]
        return out

    def score(self, y) -> tuple[np.ndarray, np.ndarray]:
        return score(self.P, self.s_inv, self.v_mats, np.asarray(y, dtype=float), self.method)
