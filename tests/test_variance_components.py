"""The one covariance description against the textbook dense formulas.

Random small designs are drawn with hypothesis: Fay-Herriot with random phi,
nested error, and one to three ANOVA blocks of one-hot columns that may carry
real-valued entries, at a sigma that may have a random-effect component at
zero.  Sigma, V_i, G, the effective dimensions and the trace polynomials
tr(BV_i), tr(BV_iBV_j), tr(BV_iBV_jBV_k) are rebuilt from the raw blocks
(support.dense_*), never through the library's own assembly.  The solves,
log-determinants, GLS and traces of SigmaPoint are checked on both of its
backends: r-space whenever R = diag(d) + sigma_0 I is positive, and dense at
sigma_0 = 0 without d.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eblup import (
    assemble_sigma,
    build_anova,
    build_fay_herriot,
    build_nested_error,
    effective_dims,
)
from eblup._linalg import SigmaPoint
from eblup.exceptions import NotPositiveDefinite

from support import (
    MAKERS,
    DenseAux,
    dense_effective_dims,
    dense_g,
    dense_proj,
    dense_sigma,
    dense_traces,
    dense_v_mats,
    rng,
)


def _aux(X, blocks, d, residual):
    return DenseAux(sigma_of=None, v_mats=None, X=X, z_blocks=blocks, d=d, residual=residual)


@st.composite
def designs(draw, kind):
    n = draw(st.integers(4, 12))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([np.ones(n), gen.normal(size=n)])
    if kind == "fay-herriot":
        phi = gen.uniform(0.2, 3.0, size=n)
        model = build_fay_herriot(np.zeros(n), phi, X)
        aux = _aux(X, [np.eye(n)], phi, residual=False)
    elif kind == "nested-error":
        t = draw(st.integers(1, n - 1))
        labels = gen.permutation(np.arange(n) % t)
        Z = np.zeros((n, t))
        Z[np.arange(n), labels] = 1.0
        model = build_nested_error(np.zeros(n), labels, X)
        aux = _aux(X, [Z], np.zeros(n), residual=True)
    else:
        blocks = []
        specs = draw(st.lists(st.tuples(st.integers(1, 5), st.booleans()), min_size=1, max_size=3))
        for levels, real_valued in specs:
            zb = np.zeros((n, levels))
            zb[np.arange(n), gen.integers(0, levels, size=n)] = 1.0
            if real_valued:
                zb *= gen.uniform(0.3, 2.0, size=(n, 1))
            blocks.append(zb)
        model = build_anova(X, blocks)
        aux = _aux(X, blocks, np.zeros(n), residual=True)
    sigma = gen.uniform(0.2, 2.0, size=model.s)
    zero = draw(st.none() | st.integers(int(aux.residual), model.s - 1))
    if zero is not None:
        sigma[zero] = 0.0
    return model, aux, sigma


@pytest.mark.parametrize("kind", ["fay-herriot", "nested-error", "anova"])
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_description_matches_the_dense_formulas(kind, data):
    model, aux, sigma = data.draw(designs(kind))
    want = dense_sigma(aux, sigma)
    np.testing.assert_allclose(assemble_sigma(model, sigma), want, rtol=0, atol=1e-12)
    sp = SigmaPoint(model, sigma)
    np.testing.assert_allclose(sp.sigma_mat, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(sp.g_diag, np.diag(dense_g(aux, sigma)))
    v_want = dense_v_mats(aux)
    assert len(model.v_mats) == len(v_want) == model.s
    for got, v in zip(model.v_mats, v_want):
        np.testing.assert_allclose(got, v, rtol=0, atol=1e-12)
    P = dense_proj(aux.X, want)
    np.testing.assert_allclose(
        effective_dims(model, sigma), dense_effective_dims(aux, P), rtol=1e-12, atol=1e-12
    )
    for method in ("REML", "ML"):
        t1, t2, t3 = dense_traces(aux, sigma, method)
        got1, got2 = sp.traces(method)
        np.testing.assert_allclose(got1, t1, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(got2, t2, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(sp.trace3(method), t3, rtol=1e-10, atol=1e-10)


@st.composite
def points(draw, kind):
    """A draw of ``designs(kind)``, or for "dense" an ANOVA design at
    sigma_0 = 0 whose first block has one level per observation, so that
    Sigma stays positive definite, sometimes with the second block at zero."""
    if kind != "dense":
        return draw(designs(kind))
    n = draw(st.integers(4, 12))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([np.ones(n), gen.normal(size=n)])
    levels = draw(st.integers(1, 5))
    blocks = [np.eye(n)[gen.permutation(n)], np.zeros((n, levels))]
    blocks[1][np.arange(n), gen.integers(0, levels, size=n)] = 1.0
    sigma = np.array([0.0, gen.uniform(0.2, 2.0), gen.uniform(0.2, 2.0) * draw(st.booleans())])
    return build_anova(X, blocks), _aux(X, blocks, np.zeros(n), residual=True), sigma


@pytest.mark.parametrize("kind", ["fay-herriot", "nested-error", "anova", "dense"])
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_both_backends_match_the_dense_formulas(kind, data):
    model, aux, sigma = data.draw(points(kind))
    sp = SigmaPoint(model, sigma)
    # R = diag(d) + sigma_0 I > 0 picks the r-space backend
    assert sp.r_space == (kind != "dense")
    S = dense_sigma(aux, sigma)
    S_inv = np.linalg.inv(S)
    gram = aux.X.T @ S_inv @ aux.X
    b = rng(model.n).normal(size=(model.n, 3))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    close(sp.solve(b[:, 0]), S_inv @ b[:, 0])
    close(sp.solve(b), S_inv @ b)
    close(sp.logdet_sigma, np.linalg.slogdet(S)[1])
    close(sp.logdet_gram, np.linalg.slogdet(gram)[1])
    close(sp.gls(b[:, 1]), np.linalg.solve(gram, aux.X.T @ S_inv @ b[:, 1]))
    for method in ("REML", "ML"):
        t1, t2, _ = dense_traces(aux, sigma, method)
        got1, got2 = sp.traces(method)
        close(got1, t1)
        close(got2, t2)


@pytest.mark.parametrize("sigma0", [0.0, 0.5])
def test_backend_follows_the_residual_diagonal(sigma0):
    gen = rng(11)
    model, _, _ = MAKERS["nested-error"](gen)
    sp = SigmaPoint(model, [sigma0, 1.0])
    assert sp.r_space == (sigma0 > 0)
    if sigma0 == 0.0:
        # sigma_1 ZZ' has rank t < n: only the dense factorization can tell
        with pytest.raises(NotPositiveDefinite):
            sp.solve(np.ones(model.n))
    fh, _, _ = MAKERS["fay-herriot"](gen)
    assert SigmaPoint(fh, [0.0]).r_space  # phi > 0 keeps R > 0 at sigma = 0
