"""Model containers for the linear mixed model y = X b + Z v + e.

The observation covariance is Sigma(sigma) = R(sigma) + Z G(sigma) Z' where
v ~ N(0, G) and e ~ N(0, R) are independent.  G and R are diagonal and linear
in sigma, so one description, ``VarianceComponents``, covers every model:

    Sigma(sigma) = diag(d) + sum_i sigma_i V_i,

with a known diagonal d, V_0 = I_n when sigma_0 is a residual variance, and
V_k = Z_k Z_k' for the k-th block of columns of Z.  The builders fill it in:

* ``build_anova``: q random blocks plus a residual, d = 0.
* ``build_fay_herriot``: one block Z = I_t and no residual; d = phi holds the
  known sampling variances, so Sigma = sigma I_t + diag(phi).
* ``build_nested_error``: the one-block ANOVA model with Z the group
  indicator matrix; Sigma is block diagonal with blocks
  sigma_0 I_{n_i} + sigma_1 J_{n_i}.

Z is stored dense and also described once per model by integer codes
(``MixedModel.z_codes``): a block whose rows hold at most one nonzero
(Fay-Herriot's I_t, nested error, one-hot ANOVA blocks) keeps each row's
column and value, any other block its dense slice.  Products go through
``z_mul`` (Z g = vals g[codes]), ``zt_mul`` (Z'x = bincount(codes, vals x))
and ``v_mul`` (V_i x = Z dG_i Z'x, x itself for the residual), O(n) per
coded block; ``v_mats`` and ``sigma_matrix`` serve only the dense
factorization and the checks.

Models are immutable; all numeric work happens in pure functions that take the
model plus a parameter point.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, where a 1-d ``a`` stands for the diagonal matrix diag(a)."""
    return (a * b.T).T if a.ndim == 1 else a @ b


# --------------------------------------------------------------------------
# covariance description
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VarianceComponents:
    """Sigma(sigma) = diag(d) + sum_i sigma_i V_i, with G and R diagonal.

    ``d`` is the known diagonal of R (phi for Fay-Herriot, zeros otherwise).
    When ``residual`` is true, sigma_0 scales I_n.  Each following component
    owns the next ``block_dims[k]`` columns Z_k of Z, scales them in G, and
    has V = Z_k Z_k'.  All components live on [0, inf).
    """

    d: np.ndarray
    residual: bool
    block_dims: tuple[int, ...]

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "block_dims", tuple(int(k) for k in self.block_dims))

    @property
    def s(self) -> int:
        return int(self.residual) + len(self.block_dims)

    @property
    def block_slices(self) -> tuple[slice, ...]:
        """The columns of Z that each random-effect block owns."""
        ends = np.cumsum((0,) + self.block_dims)
        return tuple(slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:]))

    def g_diag(self, sigma: np.ndarray) -> np.ndarray:
        """Diagonal of G(sigma): each block's variance repeated over its columns."""
        return np.repeat(sigma[int(self.residual) :], self.block_dims)

    def r_diag(self, sigma: np.ndarray) -> np.ndarray:
        """Diagonal of R(sigma) = diag(d) + sigma_0 I_n when there is a residual."""
        return self.d + sigma[0] if self.residual else self.d

    def g_matrix(self, sigma: np.ndarray) -> np.ndarray:
        """The dense G(sigma), for checks against the textbook formulas."""
        return np.diag(self.g_diag(sigma))


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
    """Immutable design container: X (n x p), Z (n x r) and the covariance."""

    X: np.ndarray
    Z: np.ndarray
    family: VarianceComponents
    obs_labels: tuple[str, ...] | None = None
    effect_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.array(self.X, dtype=float, order="C")
        Z = np.array(self.Z, dtype=float, order="C")
        X.setflags(write=False)
        Z.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        fam = self.family
        if X.ndim != 2 or Z.ndim != 2 or X.shape[0] != Z.shape[0]:
            raise ValueError(f"X {X.shape} and Z {Z.shape} must be matrices with equal rows")
        if fam.d.shape != (X.shape[0],):
            raise ValueError(f"family.d has shape {fam.d.shape}, expected ({X.shape[0]},)")
        if min(fam.block_dims, default=1) < 1 or sum(fam.block_dims) != Z.shape[1]:
            raise ValueError(
                f"block_dims {fam.block_dims} must be positive and sum to Z's {Z.shape[1]} columns"
            )

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
        mats = [np.eye(self.n)] if self.family.residual else []
        for dg in self.dg_diags[int(self.family.residual) :]:
            # Z_k Z_k' as Z diag(dG_k) Z', which rounds like the dense Z G Z'
            v = (self.Z * dg) @ self.Z.T
            # exactly symmetric, so every sum of the V_i is too
            mats.append(0.5 * (v + v.T))
        for v in mats:
            v.setflags(write=False)
        return tuple(mats)

    @cached_property
    def z_codes(self) -> tuple[np.ndarray, np.ndarray, tuple[tuple[slice, np.ndarray], ...]]:
        """Z by blocks, as (codes, vals, dense).

        Row i of the k-th block whose rows hold at most one nonzero has
        vals[k, i] in column codes[k, i] of Z (0 in the block's first
        column for an empty row); codes and vals are q x n.  Every other
        block keeps its dense (columns, Z_k) slice in ``dense``.
        """
        codes, vals, dense = [], [], []
        for cols in self.family.block_slices:
            zk = self.Z[:, cols]
            nz = zk != 0
            if nz.sum(axis=1).max(initial=0) > 1:
                dense.append((cols, zk))
                continue
            c = nz.argmax(axis=1)
            codes.append(c + cols.start)
            vals.append(zk[np.arange(self.n), c])
        shape = (len(codes), self.n)
        return np.array(codes, dtype=np.intp).reshape(shape), np.array(vals).reshape(shape), tuple(dense)

    def z_mul(self, g: np.ndarray) -> np.ndarray:
        """Z g for a length-r vector or an r x k matrix g."""
        codes, vals, dense = self.z_codes
        terms = [_dot(v, g[c]) for c, v in zip(codes, vals)] + [zk @ g[cols] for cols, zk in dense]
        return sum(terms[1:], terms[0]) if terms else np.zeros((self.n,) + g.shape[1:])

    @cached_property
    def _col_codes(self) -> dict[int, np.ndarray]:
        """Per column count k, the codes of an n x k matrix's entries in Z'x."""
        return {}

    def zt_mul(self, x: np.ndarray) -> np.ndarray:
        """Z'x for a length-n vector or an n x k matrix x, through one bincount."""
        codes, vals, dense = self.z_codes
        if x.ndim == 1:
            out = np.bincount(codes.ravel(), (vals * x).ravel(), self.r)
        else:
            k = x.shape[1]
            idx = self._col_codes.get(k)
            if idx is None:
                idx = self._col_codes[k] = (codes[..., None] * k + np.arange(k)).ravel()
            out = np.bincount(idx, (vals[..., None] * x).ravel(), self.r * k).reshape(self.r, k)
        for cols, zk in dense:
            out[cols] = zk.T @ x
        return out

    def v_mul(self, i: int, x: np.ndarray) -> np.ndarray:
        """V_i x for a length-n vector or an n x k matrix x: x itself for the
        residual, Z (dG_i Z'x) for a random-effect block."""
        if i == 0 and self.family.residual:
            return x
        return self.z_mul(_dot(self.dg_diags[i], self.zt_mul(x)))

    @cached_property
    def dg_diags(self) -> tuple[np.ndarray, ...]:
        """Diagonals of the constant dG / d sigma_i.

        G is diagonal and linear in sigma, so G(sigma) m is an elementwise
        product and needs no r x r matrix.
        """
        diags = [np.zeros(self.r)] if self.family.residual else []
        for cols in self.family.block_slices:
            d = np.zeros(self.r)
            d[cols] = 1.0
            diags.append(d)
        for d in diags:
            d.setflags(write=False)
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
        family=VarianceComponents(d=phi, residual=False, block_dims=(t,)),
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
    return MixedModel(
        X=X,
        Z=Z,
        family=VarianceComponents(d=np.zeros(n), residual=True, block_dims=(t,)),
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
    family = VarianceComponents(d=np.zeros(n), residual=True, block_dims=tuple(dims))
    return MixedModel(X=X, Z=Z, family=family)


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
    """Sigma(sigma) = diag(d) + sum_i sigma_i V_i for a validated sigma array.

    d is the part of R that no component scales (phi for Fay-Herriot, zero
    otherwise).  The sum costs O(s n^2), against O(n^3) for the dense
    product Z G Z'.  Positive definiteness is not checked.
    """
    S = np.diag(model.family.d)
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
        if not (np.all(np.isfinite(l)) and np.all(np.isfinite(m))):
            raise ValueError("target l and m must be finite")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)


def check_target(model: MixedModel, target: PredictionTarget) -> None:
    """Raise ValueError unless the target's l and m fit the model's X and Z."""
    if target.l.shape != (model.p,):
        raise ValueError(f"target l has shape {target.l.shape}, expected ({model.p},)")
    if target.m.shape != (model.r,):
        raise ValueError(f"target m has shape {target.m.shape}, expected ({model.r},)")


def area_target(model: MixedModel, i: int) -> PredictionTarget:
    """Target for the mean of area/group i: m = e_i, l the mean of the X rows
    that load on effect i (column i of Z nonzero).

    For Fay-Herriot that is row i of X; for nested error, the mean of the X
    rows in group i.  Raises EmptyGroup when no observation loads on effect i.
    """
    if not 0 <= i < model.r:
        raise IndexOutOfRange(f"area {i} outside 0..{model.r - 1}")
    m = np.zeros(model.r)
    m[i] = 1.0
    rows = model.z_mul(m) != 0
    if not np.any(rows):
        raise EmptyGroup(f"no observation loads on effect {i}")
    l = model.X[rows].mean(axis=0)
    name = model.effect_labels[i] if model.effect_labels else str(i)
    return PredictionTarget(l=l, m=m, name=name)
