"""Variable-bandwidth diffusion Laplacian on a point cloud.

The operator is assembled from a Gaussian-type kernel with per-point
bandwidths driven by an empirical density estimate:

  1. estimate a local scale rho0 from the k0 nearest neighbors,
  2. estimate the sampling density q0 with a rho0-bandwidth kernel,
  3. form the bandwidth function rho from q0**beta,
  4. evaluate K(x, y) = h(|x - y|^2 / (eps * rho(x) rho(y))), h(u) = exp(-u/4),
  5. optionally truncate K to a union-symmetrized kNN graph,
  6. remove a density factor of order alpha (divide by q_eps**alpha twice),
  7. row-normalize to a Markov matrix K_hat,
  8. L = (I - K_hat) / (eps * rho^2).

L is oriented like a graph Laplacian: the associated quadratic form
sum_j K_hat_ij (f_j - f_i)^2 is nonnegative, so the carre du champ built
from L estimates a positive semidefinite metric.

With ``bandwidth_scale="auto"`` (the default) the dimensionful part of the
bandwidth is set from the data: rho = sqrt(eps_star) * (q / gmean q)**beta
where eps_star interpolates between the k0-neighbor scale eps0 and the
global cloud scale R^2 at the classical smoothing rate n**(-2/(d+4)),

  eps_star = 0.5 * R^2 * (eps0 / R^2) ** (d / (d + 4)),

and q is a kernel density at scale eps_star itself, which is far less
noisy than the k0-neighbor pilot density.

``bandwidth_scale="raw"`` uses rho = q0**beta and the caller's eps verbatim.
All arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConfigurationError,
    DegenerateDensityError,
    DimensionEstimateError,
    InsufficientPointsError,
    IsolatedPointError,
    NumericFailureError,
)
from .graph import NeighborGraph, knn

_AUTO_SCALE = 0.5  # prefactor of the auto bandwidth rule
_PCA_NEIGHBORS = 16  # neighbors per local PCA in the dimension estimate
_PCA_VARIANCE_TARGET = 0.95

BANDWIDTH_SCALES = ("auto", "raw")
KNN_WORDS = ("default", "full")  # min(64, m - 1) neighbors, or the untruncated kernel


@dataclass(frozen=True)
class LaplacianParams:
    epsilon: float = 1.0
    alpha: float = 0.0
    beta: float = -0.5
    k0: int = 8
    knn: int | str = "default"  # a neighbor count or one of KNN_WORDS
    d: int | str = "estimate"
    bandwidth_scale: str = "auto"  # one of BANDWIDTH_SCALES

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.k0 < 2:
            raise ConfigurationError(f"k0 must be >= 2, got {self.k0}")
        if self.bandwidth_scale not in BANDWIDTH_SCALES:
            raise ConfigurationError(
                f"bandwidth_scale must be one of {BANDWIDTH_SCALES}, got {self.bandwidth_scale!r}"
            )
        if isinstance(self.knn, str) and self.knn not in KNN_WORDS:
            raise ConfigurationError(f"knn must be a count or one of {KNN_WORDS}, got {self.knn!r}")
        if isinstance(self.d, str) and self.d != "estimate":
            raise ConfigurationError(f"d must be an integer or 'estimate', got {self.d!r}")
        if any(not isinstance(v, str) and v < 1 for v in (self.knn, self.d)):
            raise ConfigurationError(f"knn and d must be >= 1, got knn={self.knn!r}, d={self.d!r}")

    def validate(self, m: int) -> None:
        """Check the parts that depend on the cloud size m."""
        if not isinstance(self.knn, str) and self.knn > m - 1:
            raise InsufficientPointsError(f"knn={self.knn} invalid for m={m}")


@dataclass(eq=False)
class DensityEstimate:
    rho0: np.ndarray  # (m,) local kNN scale
    eps0: float  # (mean rho0)^2, global scale
    q0: np.ndarray  # (m,) empirical sampling density


@dataclass(eq=False)
class DiffusionOperator:
    L: sp.csr_matrix  # (m, m)
    rho: np.ndarray  # (m,) bandwidth function as used in the kernel
    q_eps: np.ndarray  # (m,) kernel density at bandwidth eps
    density: DensityEstimate
    params: LaplacianParams
    eps_star: float  # squared-scale factor applied in auto mode (1.0 in raw mode)

    @property
    def m(self) -> int:
        return self.L.shape[0]


def estimate_dimension(points: np.ndarray, graph: NeighborGraph) -> int:
    """Median local PCA dimension at 95% explained variance over each point and its first graph neighbors."""
    pts = np.asarray(points, dtype=np.float64)
    nbhd = np.concatenate([pts[:, None, :], pts[graph.indices[:, :_PCA_NEIGHBORS]]], axis=1)
    centered = nbhd - nbhd.mean(axis=1, keepdims=True)
    # eigenvalues of each neighborhood covariance via singular values
    var = np.linalg.svd(centered, compute_uv=False) ** 2
    total = var.sum(axis=1)
    if (total <= 0).any():
        raise DimensionEstimateError(f"zero-variance neighborhood at point {int(np.argmax(total <= 0))}")
    frac = np.cumsum(var, axis=1) / total[:, None]
    # components needed to reach the target: those short of it, plus one
    dims = (frac < _PCA_VARIANCE_TARGET - 1e-12).sum(axis=1) + 1
    return int(round(float(np.median(dims))))


def estimate_density(graph: NeighborGraph, k0: int = 8, d: int = 1) -> DensityEstimate:
    """kNN local scales and the kernel density built from them."""
    if k0 < 2:
        raise ConfigurationError(f"k0 must be >= 2, got {k0}")
    m = graph.sq.shape[0]
    if graph.indices.shape[1] < k0 - 1:
        raise InsufficientPointsError(f"need k0-1={k0 - 1} neighbors per point, got {graph.indices.shape[1]} (m={m})")
    if d < 1:
        raise ConfigurationError(f"intrinsic dimension must be >= 1, got {d}")
    # mean squared distance to the k0-1 nearest others, then square root
    rho0 = np.sqrt(graph.sq_dists[:, : k0 - 1].mean(axis=1))
    if (rho0 <= 0).any():
        raise DegenerateDensityError("coincident points give a zero local scale")
    eps0 = float(rho0.mean()) ** 2
    # Gaussian kernel density with per-pair bandwidth 2 rho0_i rho0_j,
    # self term included
    band = 2.0 * rho0[:, None] * rho0[None, :]
    weights = np.exp(-graph.sq / band)
    q0 = (2.0 * np.pi) ** (-0.5 * d) * weights.sum(axis=1) / (rho0**d * m)
    if not np.isfinite(q0).all() or (q0 <= 0).any():
        raise DegenerateDensityError("density estimate is not positive and finite")
    return DensityEstimate(rho0=rho0, eps0=eps0, q0=q0)


def auto_bandwidth_scale(points: np.ndarray, eps0: float, d: int) -> float:
    """Squared kernel scale interpolating local and global cloud scales."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    r2 = float(np.einsum("id,id->", centered, centered) / pts.shape[0])
    if r2 <= 0:
        raise DegenerateDensityError("cloud has zero spread")
    return _AUTO_SCALE * r2 * (eps0 / r2) ** (d / (d + 4.0))


def build_laplacian(points: np.ndarray, params: LaplacianParams | None = None) -> DiffusionOperator:
    """Assemble the variable-bandwidth diffusion Laplacian."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ConfigurationError(f"points must be (m, D), got {pts.shape}")
    m = pts.shape[0]
    params = params or LaplacianParams()
    params.validate(m)

    # kNN truncation count, None for the full kernel
    n_neighbors = None if params.knn == "full" else min(64, m - 1) if params.knn == "default" else int(params.knn)
    # one graph per cloud, as long as its longest consumer needs; each reads a column prefix
    k_max = max(params.k0 - 1, n_neighbors or 0, _PCA_NEIGHBORS if params.d == "estimate" else 0)
    graph = knn(pts, min(k_max, m - 1))

    d = estimate_dimension(pts, graph) if params.d == "estimate" else int(params.d)
    density = estimate_density(graph, k0=params.k0, d=d)
    if params.d == "estimate":
        params = replace(params, d=d)

    sq = graph.sq
    if params.bandwidth_scale == "raw":
        eps_star = 1.0
        rho = density.q0**params.beta
    else:
        eps_star = auto_bandwidth_scale(pts, density.eps0, d)
        # Drive the bandwidth shape from a kernel density at the working
        # scale: its effective sample size grows with n, unlike the
        # k0-neighbor pilot whose relative noise is constant and would leak
        # into the operator through rho**beta.
        log_q = np.log(np.exp(-0.25 * sq / eps_star).sum(axis=1))
        rho_hat = np.exp(params.beta * (log_q - log_q.mean()))
        rho = np.sqrt(eps_star) * rho_hat
    if not np.isfinite(rho).all() or (rho <= 0).any():
        raise DegenerateDensityError("bandwidth function is not positive and finite")

    K = np.exp(-0.25 * (sq / (params.epsilon * rho[:, None] * rho[None, :])))

    if n_neighbors is not None:
        mask = np.zeros((m, m), dtype=bool)
        mask[np.arange(m)[:, None], graph.indices[:, :n_neighbors]] = True
        mask |= mask.T  # union symmetrization
        np.fill_diagonal(mask, True)
        K = np.where(mask, K, 0.0)

    off_diag = K.sum(axis=1) - np.diag(K)
    if (off_diag <= 0).any():
        bad = int(np.argmax(off_diag <= 0))
        raise IsolatedPointError(f"point {bad} has no usable neighbors at this bandwidth")

    q_eps = K.sum(axis=1) / rho**d
    K_alpha = K / (q_eps[:, None] ** params.alpha * q_eps[None, :] ** params.alpha)
    row_sums = K_alpha.sum(axis=1)
    K_hat = K_alpha / row_sums[:, None]

    scale = params.epsilon * rho**2
    L = (np.eye(m) - K_hat) / scale[:, None]
    if not np.isfinite(L).all():
        raise NumericFailureError("Laplacian contains non-finite entries")
    return DiffusionOperator(
        L=sp.csr_matrix(L),
        rho=rho,
        q_eps=q_eps,
        density=density,
        params=params,
        eps_star=eps_star,
    )


def apply_laplacian(op: DiffusionOperator, f: np.ndarray) -> np.ndarray:
    """Apply L to per-point values; accepts (m,) or (m, c) arrays."""
    vals = np.asarray(f, dtype=np.float64)
    if vals.shape[0] != op.m:
        raise ConfigurationError(f"function has {vals.shape[0]} values for {op.m} points")
    out = op.L @ vals
    if not np.isfinite(out).all():
        raise NumericFailureError("non-finite values from Laplacian application")
    return out
