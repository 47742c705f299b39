"""Shared test fixtures: random model instances with independently built
dense ingredients, plus finite-difference helpers.

Each maker returns (model, y, aux) where aux reconstructs Sigma and its
derivative matrices straight from the raw design quantities, bypassing the
library's covariance assembly, so tests compare two genuinely different
routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from eblup import build_anova, build_fay_herriot, build_nested_error


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class DenseAux:
    sigma_of: callable
    v_mats: list
    X: np.ndarray
    # raw ingredients of R = diag(d) + sigma_0 I (when residual) and of
    # G = blockdiag(sigma_k I), one Z block per random-effect component
    z_blocks: list
    d: np.ndarray
    residual: bool


def dense_r(aux, sigma):
    """R(sigma) from the raw known diagonal and the residual flag."""
    R = np.diag(aux.d)
    return R + sigma[0] * np.eye(len(aux.d)) if aux.residual else R


def dense_g(aux, sigma):
    """G(sigma) = blockdiag(sigma_k I_{r_k}) from the raw Z blocks."""
    own = sigma[1:] if aux.residual else sigma
    return block_diag(*[v * np.eye(zb.shape[1]) for v, zb in zip(own, aux.z_blocks)])


def dense_sigma(aux, sigma):
    """The textbook Sigma = R + Z G Z' with Z = [Z_1 ... Z_q]."""
    Z = np.hstack(aux.z_blocks)
    return dense_r(aux, sigma) + Z @ dense_g(aux, sigma) @ Z.T


def dense_v_mats(aux):
    """V_i = dSigma/dsigma_i: I for the residual, then Z_k Z_k' per block."""
    n = len(aux.d)
    return ([np.eye(n)] if aux.residual else []) + [zb @ zb.T for zb in aux.z_blocks]


def dense_traces(aux, sigma, method):
    """t1[i] = tr(BV_i), t2[i,j] = tr(BV_iBV_j), t3[i,j,k] = tr(BV_iBV_jBV_k),
    with B = P for REML and B = Sigma^-1 for ML, from explicit inverses."""
    S = dense_sigma(aux, sigma)
    B = dense_proj(aux.X, S) if method == "REML" else np.linalg.inv(S)
    bv = [B @ v for v in dense_v_mats(aux)]
    t1 = np.array([np.trace(a) for a in bv])
    t2 = np.array([[np.trace(a @ b) for b in bv] for a in bv])
    t3 = np.array([[[np.trace(a @ b @ c) for c in bv] for b in bv] for a in bv])
    return t1, t2, t3


def dense_effective_dims(aux, P):
    """||P|| for the residual, then ||Z_k' P Z_k|| for each block."""
    out = [np.linalg.norm(P)] if aux.residual else []
    return np.array(out + [np.linalg.norm(zb.T @ P @ zb) for zb in aux.z_blocks])


def make_fay_herriot(gen, t=10, p=2):
    phi = gen.uniform(0.5, 2.0, size=t)
    cols = [np.ones(t)] + [gen.normal(size=t) for _ in range(p - 1)]
    X = np.column_stack(cols)
    y = gen.normal(size=t)
    model = build_fay_herriot(y, phi, X)
    aux = DenseAux(
        sigma_of=lambda s: s[0] * np.eye(t) + np.diag(phi),
        v_mats=[np.eye(t)],
        X=X,
        z_blocks=[np.eye(t)],
        d=phi,
        residual=False,
    )
    return model, y, aux


def make_nested_error(gen, t=7, p=2, max_size=4):
    sizes = gen.integers(1, max_size + 1, size=t)
    groups = np.repeat(np.arange(t), sizes)
    n = int(sizes.sum())
    X = np.column_stack([np.ones(n)] + [gen.normal(size=n) for _ in range(p - 1)])
    y = gen.normal(size=n)
    model = build_nested_error(y, groups, X)
    blocks = [np.ones((k, k)) for k in sizes]
    V1 = block_diag(*blocks)
    aux = DenseAux(
        sigma_of=lambda s: s[0] * np.eye(n) + s[1] * V1,
        v_mats=[np.eye(n), V1],
        X=X,
        z_blocks=[block_diag(*[np.ones((k, 1)) for k in sizes])],
        d=np.zeros(n),
        residual=True,
    )
    return model, y, aux


def make_anova(gen, n=12, r1=3, r2=4):
    # two crossed one-hot blocks over random level assignments
    Z1 = np.zeros((n, r1))
    Z1[np.arange(n), gen.integers(0, r1, size=n)] = 1.0
    Z2 = np.zeros((n, r2))
    Z2[np.arange(n), gen.integers(0, r2, size=n)] = 1.0
    X = np.column_stack([np.ones(n), gen.normal(size=n)])
    y = gen.normal(size=n)
    model = build_anova(X, [Z1, Z2])
    V1 = Z1 @ Z1.T
    V2 = Z2 @ Z2.T
    aux = DenseAux(
        sigma_of=lambda s: s[0] * np.eye(n) + s[1] * V1 + s[2] * V2,
        v_mats=[np.eye(n), V1, V2],
        X=X,
        z_blocks=[Z1, Z2],
        d=np.zeros(n),
        residual=True,
    )
    return model, y, aux


MAKERS = {
    "fay-herriot": make_fay_herriot,
    "nested-error": make_nested_error,
    "anova": make_anova,
}


def dense_proj(X, Sigma):
    Si = np.linalg.inv(Sigma)
    G = X.T @ Si @ X
    return Si - Si @ X @ np.linalg.inv(G) @ X.T @ Si


def loglik_dense(X, Sigma, y, method):
    """Direct-formula loglikelihood, all inverses explicit."""
    Si = np.linalg.inv(Sigma)
    G = X.T @ Si @ X
    P = dense_proj(X, Sigma)
    _, ld_s = np.linalg.slogdet(Sigma)
    q = float(y @ P @ y)
    if method == "REML":
        _, ld_g = np.linalg.slogdet(G)
        return -0.5 * (ld_s + ld_g + q)
    return -0.5 * (ld_s + q)


def fd_grad(f, x, h_rel=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        h = h_rel * (1.0 + abs(x[i]))
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        out[i] = (f(hi) - f(lo)) / (2.0 * h)
    return out


def fd_jacobian(f, x, h_rel=1e-5):
    """Columns are central differences of the vector-valued f."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = h_rel * (1.0 + abs(x[j]))
        hi = x.copy()
        lo = x.copy()
        hi[j] += h
        lo[j] -= h
        cols.append((np.asarray(f(hi)) - np.asarray(f(lo))) / (2.0 * h))
    return np.column_stack(cols)
