"""Model containers, builders, and covariance assembly."""

import numpy as np
import pytest

from eblup import (
    EmptyGroup,
    IndexOutOfRange,
    MixedModel,
    NonPositivePhi,
    OutsideParameterSpace,
    PredictionTarget,
    RankDeficientX,
    TooFewObservations,
    BalancedDesign,
    VarianceComponents,
    ZeroBlock,
    area_target,
    assemble_sigma,
    build_anova,
    build_fay_herriot,
    build_nested_error,
    to_model,
    validate_sigma,
)
from eblup._linalg import SigmaPoint
from eblup.kron import design_matrices

from support import MAKERS, DenseAux, dense_g, dense_sigma, rng


# --- builders -------------------------------------------------------------


def test_fay_herriot_builder_shapes():
    gen = rng(11)
    model, y, aux = MAKERS["fay-herriot"](gen, t=6, p=2)
    assert model.n == 6
    assert model.p == 2
    assert model.r == 6
    assert model.s == 1
    # Z is the identity: one random effect per area
    assert np.array_equal(model.Z, np.eye(6))


def test_fay_herriot_rejects_bad_phi():
    X = np.ones((3, 1))
    y = np.zeros(3)
    with pytest.raises(NonPositivePhi):
        build_fay_herriot(y, [1.0, 0.0, 1.0], X)
    with pytest.raises(NonPositivePhi):
        build_fay_herriot(y, [1.0, -2.0, 1.0], X)


def test_rank_deficient_x_rejected():
    X = np.column_stack([np.ones(5), np.ones(5)])
    with pytest.raises(RankDeficientX):
        build_fay_herriot(np.zeros(5), np.ones(5), X)


def test_too_few_observations():
    # need n > p for any spare degrees of freedom
    X = np.eye(3)
    with pytest.raises(TooFewObservations):
        build_fay_herriot(np.zeros(3), np.ones(3), X)


def test_nested_error_builder_and_empty_group():
    groups = [0, 0, 1, 2, 2, 2]
    X = np.ones((6, 1))
    model = build_nested_error(np.zeros(6), groups, X)
    assert model.r == 3
    assert model.s == 2
    counts = model.Z.sum(axis=0)
    assert np.array_equal(counts, [2.0, 1.0, 3.0])
    with pytest.raises(EmptyGroup):
        build_nested_error(np.zeros(6), groups, X, n_groups=4)


def test_anova_builder_rejects_zero_block():
    X = np.ones((4, 1))
    Z1 = np.zeros((4, 2))
    with pytest.raises(ZeroBlock):
        build_anova(X, [Z1])


def test_model_arrays_are_frozen():
    gen = rng(3)
    model, _, _ = MAKERS["anova"](gen)
    with pytest.raises(ValueError):
        model.X[0, 0] = 99.0
    with pytest.raises(ValueError):
        model.Z[0, 0] = 99.0


def test_builder_copies_input_arrays():
    # mutating the caller's arrays afterwards must not change the model
    X = np.ones((5, 1))
    phi = np.ones(5)
    y = np.zeros(5)
    model = build_fay_herriot(y, phi, X)
    X[0, 0] = 7.0
    phi[0] = 7.0
    assert model.X[0, 0] == 1.0
    assert model.family.d[0] == 1.0


@pytest.mark.parametrize(
    "rows, d_len, block_dims, what",
    [
        (6, 4, (3,), "family.d"),  # d shorter than n
        (6, 6, (2,), "block_dims"),  # blocks leave column 3 of Z uncovered
        (6, 6, (3, 0), "block_dims"),  # an empty block
        (5, 6, (3,), "equal rows"),  # Z has a row fewer than X
    ],
)
def test_model_checks_its_covariance_against_x_and_z(rows, d_len, block_dims, what):
    family = VarianceComponents(d=np.zeros(d_len), residual=True, block_dims=block_dims)
    with pytest.raises(ValueError, match=what):
        MixedModel(X=np.ones((6, 1)), Z=np.eye(6)[:rows, :3], family=family)


# --- sigma validation -----------------------------------------------------


def test_validate_sigma_snaps_tiny_negatives():
    gen = rng(5)
    model, _, _ = MAKERS["nested-error"](gen)
    sv = validate_sigma(model, [1.0, -1e-13])
    assert sv.values[1] == 0.0
    assert sv.boundary_flags[1]
    assert not sv.boundary_flags[0]


def test_validate_sigma_rejects_negative():
    gen = rng(5)
    model, _, _ = MAKERS["nested-error"](gen)
    with pytest.raises(OutsideParameterSpace) as exc:
        validate_sigma(model, [1.0, -0.5])
    assert exc.value.component == 1


def test_validate_sigma_rejects_bad_shape():
    gen = rng(5)
    model, _, _ = MAKERS["fay-herriot"](gen)
    with pytest.raises(ValueError):
        validate_sigma(model, [1.0, 2.0])


# --- covariance assembly --------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_assemble_sigma_matches_dense_route(name):
    gen = rng(17)
    model, _, aux = MAKERS[name](gen)
    sigma = gen.uniform(0.3, 2.0, size=model.s)
    got = assemble_sigma(model, sigma)
    want = aux.sigma_of(sigma)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, got.T)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_sigma_derivative_matches_dense_route(name):
    # the model's V_i = d Sigma / d sigma_i against the raw-design route
    gen = rng(19)
    model, _, aux = MAKERS[name](gen)
    assert len(model.v_mats) == len(aux.v_mats) == model.s
    for got, want in zip(model.v_mats, aux.v_mats):
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def _crossed_model():
    design = BalancedDesign(
        levels=(3, 4, 2), effects=((0, 1, 1), (1, 0, 1), (0, 0, 1)), s_index=(1, 1, 1)
    )
    X, blocks = design_matrices(design)
    aux = DenseAux(
        sigma_of=None, v_mats=None, X=X, z_blocks=blocks, d=np.zeros(design.n), residual=True
    )
    return to_model(design), aux


@pytest.mark.parametrize("name", sorted(MAKERS) + ["kron"])
def test_sigma_and_g_match_the_dense_formulas(name):
    # D + sum_i sigma_i V_i against R(sigma) + Z G(sigma) Z' from the raw blocks
    gen = rng(31)
    if name == "kron":
        model, aux = _crossed_model()
    else:
        model, _, aux = MAKERS[name](gen)
    interior = gen.uniform(0.3, 2.0, size=model.s)
    with_zero = interior.copy()
    with_zero[-1] = 0.0  # a random-effect component, so Sigma stays pd
    for sigma in (interior, with_zero):
        want = dense_sigma(aux, sigma)
        sp = SigmaPoint(model, sigma)
        np.testing.assert_allclose(sp.sigma_mat, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(assemble_sigma(model, sigma), want, rtol=0, atol=1e-12)
        # G is diagonal, so the workspace keeps only its diagonal
        np.testing.assert_array_equal(np.diag(sp.g_diag), dense_g(aux, sigma))
        np.testing.assert_array_equal(model.family.g_matrix(sigma), dense_g(aux, sigma))


def test_v_mats_sum_reconstructs_sigma():
    gen = rng(23)
    model, _, _ = MAKERS["anova"](gen)
    sigma = np.array([0.7, 1.1, 0.4])
    total = sum(s * v for s, v in zip(sigma, model.v_mats))
    assert np.allclose(total, assemble_sigma(model, sigma), atol=1e-12)


# --- prediction targets ---------------------------------------------------


def test_area_target_picks_unit_rows():
    gen = rng(29)
    model, _, _ = MAKERS["fay-herriot"](gen, t=5)
    tgt = area_target(model, 2)
    assert tgt.l.shape == (model.p,)
    assert tgt.m.shape == (model.r,)
    assert tgt.m[2] == 1.0
    assert tgt.m.sum() == 1.0
    assert np.allclose(tgt.l, model.X[2])
    with pytest.raises(IndexOutOfRange):
        area_target(model, 5)
    # nested error: l is the mean of the X rows in the group
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    model = build_nested_error(np.zeros(6), [0, 0, 1, 2, 2, 2], X)
    np.testing.assert_array_equal(area_target(model, 0).l, [1.0, 0.5])
    np.testing.assert_array_equal(area_target(model, 2).l, [1.0, 4.0])
    # build_anova with more effects than observations: the second block's
    # column 5 loads on rows 1 and 3, the first block's column 1 on row 1
    Z1 = np.eye(4)
    Z2 = np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0]])
    X4 = np.column_stack([np.ones(4), [0.0, 2.0, 4.0, 6.0]])
    model = build_anova(X4, [Z1, Z2])
    assert model.r == 7 > model.n
    np.testing.assert_array_equal(area_target(model, 1).l, [1.0, 2.0])
    tgt = area_target(model, 5)
    np.testing.assert_array_equal(tgt.l, [1.0, 4.0])
    assert tgt.m[5] == 1.0 and tgt.m.sum() == 1.0
    # column 6 lies inside a nonzero block but no observation loads on it
    with pytest.raises(EmptyGroup):
        area_target(model, 6)
    with pytest.raises(IndexOutOfRange):
        area_target(model, 7)


def test_prediction_target_is_frozen():
    tgt = PredictionTarget(l=[1.0], m=[0.5, 0.5], name="avg")
    assert tgt.name == "avg"
    with pytest.raises(ValueError):
        tgt.l[0] = 2.0
    with pytest.raises(ValueError):
        tgt.m[0] = 2.0
