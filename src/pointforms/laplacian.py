"""Variable-bandwidth diffusion Laplacian on a point cloud.

One kernel h(u) = exp(-u/4), taken at three bandwidths, builds the
operator, as in Coifman & Lafon and Berry & Harlim:

  1. estimate a local scale rho0 from the k0 nearest neighbors,
  2. the pilot density q0 (where read): row sums of h(|x - y|^2 / (rho0(x) rho0(y) / 2)),
  3. the bandwidth rho from a density at the working scale (or from q0**beta),
  4. K(x, y) = h(|x - y|^2 / (eps * rho(x) rho(y))),
  5. optionally truncate K to a union-symmetrized kNN graph, by setting the
     distance outside it to inf, where K = exp(-inf) = 0,
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

and q is the row sums of h(|x - y|^2 / eps_star), a kernel density at
scale eps_star itself, which is far less noisy than the k0-neighbor pilot.

``bandwidth_scale="raw"`` uses rho = q0**beta and the caller's eps verbatim.
All arithmetic is float64.

Steps 2-8 walk the rows of the graph's distance matrix in blocks, in place.
``_kernel_sums``, the one loop that evaluates h, reads it for both densities
and, after the truncation, overwrites it as K. One more pass divides by
q_eps**alpha on both sides (when alpha != 0), row-normalizes and forms L in
that same buffer, which the operator keeps as ``dense``. Each step is the
elementwise one of whole-matrix assembly, so L is bitwise the same, and peak
memory is about the distance matrix: 8 bytes per entry. L is stored dense
because the operators built here are not sparse (at m = 128 the kNN-truncated
ones are about 60% full); let it go once its Gram field is built.
``apply_laplacian`` applies it one row block and one GEMM at a time.
``DiffusionOperator.L`` is a CSR copy, made on each read, for callers that
count its nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDensityError,
    DimensionEstimateError,
    InsufficientPointsError,
    IsolatedPointError,
    NumericFailureError,
)
from .graph import NeighborGraph, knn, row_blocks

if TYPE_CHECKING:
    import scipy.sparse as sp

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
        if not (0 < self.epsilon < np.inf and np.isfinite([self.alpha, self.beta]).all()):
            raise ConfigurationError(f"epsilon must be positive and finite, alpha and beta finite; got {self}")
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
    q0: np.ndarray | None = None  # (m,) pilot sampling density, computed only on request


@dataclass(eq=False)
class DiffusionOperator:
    dense: np.ndarray  # (m, m) C-contiguous float64 L, the buffer it was assembled in
    rho: np.ndarray  # (m,) bandwidth function as used in the kernel
    q_eps: np.ndarray  # (m,) kernel density at bandwidth eps
    density: DensityEstimate
    eps_star: float  # squared-scale factor applied in auto mode (1.0 in raw mode)

    @property
    def m(self) -> int:
        return self.dense.shape[0]

    @property
    def L(self) -> sp.csr_matrix:
        """L as a new CSR matrix, explicit zeros dropped (truncated entries are -0.0 in ``dense``)."""
        import scipy.sparse as sp  # here, not at module level, so `import pointforms` loads no scipy

        return sp.csr_matrix(self.dense)


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


def _kernel_sums(sq: np.ndarray, eps: float, s: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of h(sq_ij / (eps s_i s_j)), h(u) = exp(-u/4), or of h(sq_ij / eps) with no ``s``, each row
    block formed in the scratch block or in ``out`` (which may be ``sq``). Scaling by a power of two is exact
    away from the ends of the float range: (a / b) * -0.25 is the float -(a / 4b), and (a * -0.25) / b."""
    m = sq.shape[0]
    sums = np.empty(m)
    for rows, w in row_blocks(m):
        u = w if out is None else out[rows]
        if s is None:
            np.divide(sq[rows], eps, out=u)
        else:
            np.multiply(eps * s[rows, None], s, out=w)
            np.divide(sq[rows], w, out=u)
        np.multiply(u, -0.25, out=u)
        sums[rows] = np.exp(u, out=u).sum(axis=1)
    return sums


def estimate_density(graph: NeighborGraph, k0: int = 8, d: int = 1, pilot: bool = False) -> DensityEstimate:
    """kNN local scales and, with ``pilot``, the kernel density built from them."""
    if k0 < 2:
        raise ConfigurationError(f"k0 must be >= 2, got {k0}")
    m = graph.sq.shape[0]
    if graph.indices.shape[1] < k0 - 1:
        raise InsufficientPointsError(f"need k0-1={k0 - 1} neighbors per point, got {graph.indices.shape[1]} (m={m})")
    if d < 1:
        raise ConfigurationError(f"intrinsic dimension must be >= 1, got {d}")
    # mean squared distance to the k0-1 nearest others, then square root
    rho0 = np.sqrt(np.take_along_axis(graph.sq, graph.indices[:, : k0 - 1], axis=1).mean(axis=1))
    if (rho0 <= 0).any():
        raise DegenerateDensityError("coincident points give a zero local scale")
    eps0 = float(rho0.mean()) ** 2
    if not pilot:
        return DensityEstimate(rho0=rho0, eps0=eps0)
    # Gaussian kernel density exp(-sq / (2 rho0_i rho0_j)), self term included
    q0 = (2.0 * np.pi) ** (-0.5 * d) * _kernel_sums(graph.sq, 0.5, rho0) / (rho0**d * m)
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


def build_laplacian(points: np.ndarray, params: LaplacianParams | None = None, pilot: bool = False) -> DiffusionOperator:
    """Assemble the variable-bandwidth diffusion Laplacian; ``pilot`` asks for ``density.q0``, which raw mode reads.

    ``dense`` is the (m, m) distance buffer, overwritten as L."""
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
    density = estimate_density(graph, k0=params.k0, d=d, pilot=pilot or params.bandwidth_scale == "raw")

    # the graph is local to this build: sq is overwritten in place as K, then as L
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
        log_q = np.log(_kernel_sums(sq, eps_star))
        rho_hat = np.exp(params.beta * (log_q - log_q.mean()))
        rho = np.sqrt(eps_star) * rho_hat
    if not np.isfinite(rho).all() or (rho <= 0).any():
        raise DegenerateDensityError("bandwidth function is not positive and finite")

    if n_neighbors is not None:
        far = np.ones((m, m), dtype=bool)
        far[np.arange(m)[:, None], graph.indices[:, :n_neighbors]] = False
        far &= far.T  # neither point lists the other: outside the union-symmetrized graph
        np.fill_diagonal(far, False)
        np.copyto(sq, np.inf, where=far)

    # K, written over sq, and its row sums; for a positive finite eps rho_i rho_j,
    # K is +0.0 where sq is inf, and its diagonal is exp(-0.0) = 1 exactly
    k_sums = _kernel_sums(sq, params.epsilon, rho, out=sq)
    off_diag = k_sums - 1.0
    if (off_diag <= 0).any():
        bad = int(np.argmax(off_diag <= 0))
        raise IsolatedPointError(f"point {bad} has no usable neighbors at this bandwidth")

    q_eps = k_sums / rho**d
    # K_hat = K / (q_alpha_i q_alpha_j), row-normalized; at alpha = 0 that divides by 1, so K's row sums serve
    q_alpha = q_eps**params.alpha
    # L = (I - K_hat) / scale; off the diagonal (0 - k) / s is k / -s bit for bit, zeros aside
    scale = params.epsilon * rho**2
    for rows, w in row_blocks(m):
        L = sq[rows]
        row_sums = k_sums[rows]
        if params.alpha != 0:
            np.multiply(q_alpha[rows, None], q_alpha, out=w)
            row_sums = np.divide(L, w, out=L).sum(axis=1)
        diag = L.ravel()[rows.start :: m + 1]
        np.divide(L, row_sums[:, None], out=L)
        one_minus = 1.0 - diag
        np.divide(L, -scale[rows, None], out=L)
        diag[:] = one_minus / scale[rows]
        if not np.isfinite(L).all():
            raise NumericFailureError("Laplacian contains non-finite entries")
    return DiffusionOperator(dense=sq, rho=rho, q_eps=q_eps, density=density, eps_star=eps_star)


def apply_laplacian(op: DiffusionOperator, f: np.ndarray) -> np.ndarray:
    """Apply L to per-point values, (m,) or (m, c), one dense row block and one GEMM at a time."""
    vals = np.asarray(f, dtype=np.float64)
    if vals.shape[0] != op.m:
        raise ConfigurationError(f"function has {vals.shape[0]} values for {op.m} points")
    out = np.empty(vals.shape)
    # by row blocks, not one whole-matrix GEMM: that sums in another order, and moved the
    # fields of 1000- and 2000-point circles by up to 5.7e-14
    for rows, _ in row_blocks(op.m):
        np.matmul(op.dense[rows], vals, out=out[rows])
    if not np.isfinite(out).all():
        raise NumericFailureError("non-finite values from Laplacian application")
    return out
