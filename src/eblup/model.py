"""Model containers for the linear mixed model y = X b + Z v + e.

The observation covariance is Sigma(sigma) = R(sigma) + Z G(sigma) Z' where
v ~ N(0, G) and e ~ N(0, R) are independent.  Three covariance families are
supported, each linear in its variance parameters sigma:

* ``AnovaVC``: q random blocks, R = sigma_0 I_n, G = blockdiag(sigma_i I_{r_i}),
  so Sigma = sum_i sigma_i V_i with V_0 = I_n and V_i = Z_i Z_i'.
* ``FayHerriot``: area-level model with Z = I_t, G = sigma I_t and known
  sampling variances R = diag(phi_1, ..., phi_t).
* ``NestedError``: random intercept per group, R = sigma_0 I_n, G = sigma_1 I_t,
  Z the group indicator matrix; Sigma is block diagonal with blocks
  sigma_0 I_{n_i} + sigma_1 J_{n_i}.

Models are immutable; all numeric work happens in pure functions that take the
model plus a parameter point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (
    EmptyGroup,
    IndexOutOfRange,
    NonPositivePhi,
    NotPositiveDefinite,
    OutsideParameterSpace,
    RankDeficientX,
    TooFewObservations,
    ZeroBlock,
)

# Absolute tolerance for "sigma component sits on the boundary of the
# parameter space".  Values below -BOUNDARY_TOL are rejected, values within
# the tolerance are snapped to the boundary and flagged.
BOUNDARY_TOL = 1e-12


# --------------------------------------------------------------------------
# covariance families
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AnovaVC:
    """Variance-component family with q random blocks plus residual noise.

    sigma = (sigma_0, sigma_1, ..., sigma_q); sigma_0 scales I_n and sigma_i
    scales block i of G.  All components live on [0, inf); Sigma is positive
    definite only when sigma_0 > 0.
    """

    n_obs: int
    block_dims: tuple[int, ...]

    @property
    def kind(self) -> str:
        return "anova-vc"

    @property
    def s(self) -> int:
        return len(self.block_dims) + 1

    @property
    def n_effects(self) -> int:
        return sum(self.block_dims)

    def g_matrix(self, sigma: np.ndarray) -> np.ndarray:
        return np.diag(np.repeat(sigma[1:], self.block_dims))

    def r_matrix(self, sigma: np.ndarray) -> np.ndarray:
        return sigma[0] * np.eye(self.n_obs)

    def dg_matrix(self, i: int) -> np.ndarray:
        d = np.zeros(self.n_effects)
        if i > 0:
            off = sum(self.block_dims[: i - 1])
            d[off : off + self.block_dims[i - 1]] = 1.0
        return np.diag(d)

    def dr_matrix(self, i: int) -> np.ndarray:
        if i == 0:
            return np.eye(self.n_obs)
        return np.zeros((self.n_obs, self.n_obs))


@dataclass(frozen=True, eq=False)
class FayHerriot:
    """Area-level family: one observation per area, known sampling variances.

    Sigma = sigma I_t + diag(phi) with a single free parameter sigma >= 0.
    """

    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def kind(self) -> str:
        return "fay-herriot"

    @property
    def s(self) -> int:
        return 1

    @property
    def n_effects(self) -> int:
        return self.phi.shape[0]

    def g_matrix(self, sigma: np.ndarray) -> np.ndarray:
        return sigma[0] * np.eye(self.n_effects)

    def r_matrix(self, sigma: np.ndarray) -> np.ndarray:
        return np.diag(self.phi)

    def dg_matrix(self, i: int) -> np.ndarray:
        return np.eye(self.n_effects)

    def dr_matrix(self, i: int) -> np.ndarray:
        t = self.n_effects
        return np.zeros((t, t))


@dataclass(frozen=True, eq=False)
class NestedError:
    """Random-intercept family: sigma = (sigma_0, sigma_1).

    sigma_0 is the residual variance, sigma_1 the between-group variance.
    Sigma is block diagonal with blocks sigma_0 I_{n_i} + sigma_1 J_{n_i}.
    """

    group_sizes: tuple[int, ...]

    @property
    def kind(self) -> str:
        return "nested-error"

    @property
    def s(self) -> int:
        return 2

    @property
    def n_effects(self) -> int:
        return len(self.group_sizes)

    @property
    def n_obs(self) -> int:
        return sum(self.group_sizes)

    def g_matrix(self, sigma: np.ndarray) -> np.ndarray:
        return sigma[1] * np.eye(self.n_effects)

    def r_matrix(self, sigma: np.ndarray) -> np.ndarray:
        return sigma[0] * np.eye(self.n_obs)

    def dg_matrix(self, i: int) -> np.ndarray:
        if i == 1:
            return np.eye(self.n_effects)
        return np.zeros((self.n_effects, self.n_effects))

    def dr_matrix(self, i: int) -> np.ndarray:
        if i == 0:
            return np.eye(self.n_obs)
        return np.zeros((self.n_obs, self.n_obs))


CovarianceFamily = AnovaVC | FayHerriot | NestedError


# --------------------------------------------------------------------------
# parameter vector
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaVector:
    """A validated variance-parameter point.

    ``boundary_flags[i]`` is true when values[i] sits on the lower boundary
    (zero) of the parameter space within ``BOUNDARY_TOL``.  Whether Sigma is
    positive definite at a boundary point is checked separately wherever a
    factorization is taken.
    """

    values: np.ndarray
    boundary_flags: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        flags = np.array(self.boundary_flags, dtype=bool)
        values.setflags(write=False)
        flags.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "boundary_flags", flags)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SigmaVector):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.boundary_flags, other.boundary_flags
        )


# --------------------------------------------------------------------------
# model container
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MixedModel:
    """Immutable design container: X (n x p), Z (n x r) and the family."""

    X: np.ndarray
    Z: np.ndarray
    family: CovarianceFamily
    obs_labels: tuple[str, ...] | None = None
    effect_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.array(self.X, dtype=float, order="C")
        Z = np.array(self.Z, dtype=float, order="C")
        X.setflags(write=False)
        Z.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def r(self) -> int:
        return self.Z.shape[1]

    @property
    def s(self) -> int:
        return self.family.s

    @cached_property
    def v_mats(self) -> tuple[np.ndarray, ...]:
        """The constant derivative matrices V_i = d Sigma / d sigma_i."""
        mats = []
        for i in range(self.family.s):
            v = self.family.dr_matrix(i) + self.Z @ self.family.dg_matrix(i) @ self.Z.T
            # exactly symmetric, so every sum of the V_i is too
            v = 0.5 * (v + v.T)
            v.setflags(write=False)
            mats.append(v)
        return tuple(mats)

    @cached_property
    def dg_diags(self) -> tuple[np.ndarray, ...]:
        """Diagonals of the constant dG / d sigma_i.

        Every family's G is diagonal and linear in sigma, so G(sigma) m is
        an elementwise product and needs no r x r matrix.
        """
        diags = []
        for i in range(self.family.s):
            d = np.diagonal(self.family.dg_matrix(i)).copy()
            d.setflags(write=False)
            diags.append(d)
        return tuple(diags)


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def _check_design(y: np.ndarray | None, X: np.ndarray) -> np.ndarray:
    """Shared X checks: finite entries, n > p, full column rank."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    n, p = X.shape
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape != (n,):
            raise ValueError(f"y has length {y.shape}, expected ({n},)")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
    if n <= p:
        raise TooFewObservations(f"n={n} observations for p={p} fixed effects")
    if np.linalg.matrix_rank(X) < p:
        raise RankDeficientX("X does not have full column rank")
    return X


def build_fay_herriot(y, phi, X, area_labels=None) -> MixedModel:
    """Build an area-level model with known sampling variances.

    Args:
        y: length-t vector of direct estimates (validated, not stored).
        phi: length-t vector of known sampling variances, all > 0.
        X: t x p design matrix of area covariates.
        area_labels: optional area names attached to both observations
            and effects.

    Returns:
        A MixedModel with Z = I_t and one variance parameter.
    """
    phi = np.asarray(phi, dtype=float)
    X = _check_design(np.asarray(y, dtype=float), X)
    t = X.shape[0]
    if phi.shape != (t,):
        raise ValueError(f"phi has shape {phi.shape}, expected ({t},)")
    if not np.all(np.isfinite(phi)) or np.any(phi <= 0.0):
        bad = int(np.argmin(np.where(np.isfinite(phi), phi, -np.inf)))
        raise NonPositivePhi(f"phi[{bad}] = {phi[bad]} must be > 0")
    labels = tuple(str(a) for a in area_labels) if area_labels is not None else None
    return MixedModel(
        X=X,
        Z=np.eye(t),
        family=FayHerriot(phi=phi),
        obs_labels=labels,
        effect_labels=labels,
    )


def build_nested_error(y, groups, X, n_groups: int | None = None) -> MixedModel:
    """Build a random-intercept model from per-row group labels.

    Groups are ordered by sorted unique label.  When ``n_groups`` is given,
    labels must be integers 0..n_groups-1 and every index must occur;
    a missing index raises EmptyGroup.
    """
    X = _check_design(np.asarray(y, dtype=float), X)
    n = X.shape[0]
    groups = np.asarray(groups)
    if groups.shape != (n,):
        raise ValueError(f"groups has shape {groups.shape}, expected ({n},)")
    if n_groups is not None:
        idx = groups.astype(int)
        if idx.min() < 0 or idx.max() >= n_groups:
            raise IndexOutOfRange(f"group index outside 0..{n_groups - 1}")
        counts = np.bincount(idx, minlength=n_groups)
        if np.any(counts == 0):
            raise EmptyGroup(f"group {int(np.argmin(counts))} has no observations")
        labels = np.arange(n_groups)
    else:
        labels, idx = np.unique(groups, return_inverse=True)
    t = len(labels)
    Z = np.zeros((n, t))
    Z[np.arange(n), idx] = 1.0
    sizes = tuple(int(c) for c in Z.sum(axis=0))
    return MixedModel(
        X=X,
        Z=Z,
        family=NestedError(group_sizes=sizes),
        effect_labels=tuple(str(g) for g in labels),
    )


def build_anova(X, Z_blocks) -> MixedModel:
    """Build a general variance-component model from explicit design blocks.

    Args:
        X: n x p fixed-effect design.
        Z_blocks: list of n x r_i random-effect designs, one per component
            after the residual.  Each block must be nonzero.
    """
    X = _check_design(None, X)
    n = X.shape[0]
    blocks = []
    dims = []
    for i, zb in enumerate(Z_blocks):
        zb = np.atleast_2d(np.asarray(zb, dtype=float))
        if zb.shape[0] != n:
            raise ValueError(f"Z block {i} has {zb.shape[0]} rows, expected {n}")
        if not np.all(np.isfinite(zb)):
            raise ValueError(f"Z block {i} contains non-finite entries")
        if not np.any(zb):
            raise ZeroBlock(f"Z block {i} is identically zero")
        blocks.append(zb)
        dims.append(zb.shape[1])
    if not blocks:
        raise ValueError("at least one random-effect block is required")
    Z = np.hstack(blocks)
    return MixedModel(X=X, Z=Z, family=AnovaVC(n_obs=n, block_dims=tuple(dims)))


# --------------------------------------------------------------------------
# parameter handling and assembly
# --------------------------------------------------------------------------


def validate_sigma(model: MixedModel, sigma) -> SigmaVector:
    """Validate a variance-parameter point against the model's space.

    Components below -BOUNDARY_TOL raise OutsideParameterSpace; components
    within the tolerance of zero are snapped to zero and flagged as boundary
    values.  Positive definiteness of Sigma is not checked here.
    """
    if isinstance(sigma, SigmaVector):
        return sigma
    values = np.asarray(sigma, dtype=float).copy()
    if values.shape != (model.s,):
        raise ValueError(f"sigma has shape {values.shape}, expected ({model.s},)")
    flags = np.zeros(model.s, dtype=bool)
    for i, v in enumerate(values):
        if not np.isfinite(v):
            raise OutsideParameterSpace(i, f"sigma[{i}] = {v} is not finite")
        if v < -BOUNDARY_TOL:
            raise OutsideParameterSpace(i, f"sigma[{i}] = {v} < 0")
        if abs(v) <= BOUNDARY_TOL:
            values[i] = 0.0
            flags[i] = True
    return SigmaVector(values=values, boundary_flags=flags)


def sigma_as_array(model: MixedModel, sigma) -> np.ndarray:
    """Validated plain array view of a sigma argument."""
    return validate_sigma(model, sigma).values


def sigma_matrix(model: MixedModel, values: np.ndarray) -> np.ndarray:
    """Sigma(sigma) = D + sum_i sigma_i V_i for a validated sigma array.

    D = R(0) is the part of R that no component scales (diag(phi) for
    Fay-Herriot, zero otherwise).  The sum costs O(s n^2), against O(n^3)
    for the dense product Z G Z'.  Positive definiteness is not checked.
    """
    S = model.family.r_matrix(np.zeros(model.s))
    for value, v in zip(values, model.v_mats):
        S += value * v
    return S


def assemble_sigma(model: MixedModel, sigma) -> np.ndarray:
    """Assemble the n x n covariance Sigma(sigma) = R + Z G Z'.

    Raises NotPositiveDefinite when the assembled matrix has no Cholesky
    factor, which happens e.g. at sigma_0 = 0.
    """
    values = sigma_as_array(model, sigma)
    S = sigma_matrix(model, values)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(f"Sigma(sigma={values.tolist()}) is not positive definite") from err
    return S


def sigma_derivative(model: MixedModel, i: int) -> np.ndarray:
    """The constant matrix V_i = d Sigma / d sigma_i."""
    if not 0 <= i < model.s:
        raise IndexOutOfRange(f"component {i} outside 0..{model.s - 1}")
    return model.v_mats[i]


# --------------------------------------------------------------------------
# prediction targets
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PredictionTarget:
    """A mixed effect mu = l' b + m' v to be predicted."""

    l: np.ndarray
    m: np.ndarray
    name: str = ""

    def __post_init__(self):
        l = np.array(self.l, dtype=float)
        m = np.array(self.m, dtype=float)
        l.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)


def check_target(model: MixedModel, target: PredictionTarget) -> None:
    """Raise ValueError unless the target's l and m fit the model's X and Z."""
    if target.l.shape != (model.p,):
        raise ValueError(f"target l has shape {target.l.shape}, expected ({model.p},)")
    if target.m.shape != (model.r,):
        raise ValueError(f"target m has shape {target.m.shape}, expected ({model.r},)")


def area_target(model: MixedModel, i: int) -> PredictionTarget:
    """Target for the mean of area/group i: l from X, m = e_i.

    FayHerriot: l is row i of X.  NestedError: l is the mean of the X rows
    in group i.
    """
    fam = model.family
    if not 0 <= i < model.r:
        raise IndexOutOfRange(f"area {i} outside 0..{model.r - 1}")
    m = np.zeros(model.r)
    m[i] = 1.0
    if isinstance(fam, NestedError):
        rows = model.Z[:, i] > 0
        l = model.X[rows].mean(axis=0)
    else:
        l = model.X[i].copy()
    name = model.effect_labels[i] if model.effect_labels else str(i)
    return PredictionTarget(l=l, m=m, name=name)
