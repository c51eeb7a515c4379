"""Analytic ground truth for validating the discrete estimators.

Each built-in manifold carries a chart, an embedding, an orthonormal
tangent frame, and a sampling density, so Gram fields and comparison
matrices of constant forms have closed-form or quadrature-grade values.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, ConfigurationWarning, OraclePrecisionError
from .data import GramField, fork_map
from .gram import check_computable_degree, comparison_matrix, compound_gram_field, coordinate_form, gram_field_1, minors
from .laplacian import LaplacianParams, build_laplacian


@dataclass(frozen=True)
class AnalyticManifold:
    name: str
    ambient_dim: int
    domain: tuple[tuple[float, float], ...]  # chart ranges, one per intrinsic coord
    has_boundary: bool
    embed: Callable[[np.ndarray], np.ndarray]  # (n, d) -> (n, D)
    tangent_frame: Callable[[np.ndarray], np.ndarray]  # (n, d) -> (n, d, D), orthonormal rows
    volume_element: Callable[[np.ndarray], np.ndarray]  # (n, d) -> (n,)
    density: Callable[[np.ndarray], np.ndarray]  # (n, d) -> (n,), w.r.t. volume
    sample: Callable[[int, np.random.Generator], tuple[np.ndarray, np.ndarray]]

    @property
    def intrinsic_dim(self) -> int:
        return len(self.domain)


def _flat_chart(name, ambient_dim, domain, embed, tangent_frame, has_boundary=False) -> AnalyticManifold:
    """A manifold whose chart is an isometry onto the box ``domain``: unit
    volume element, uniform density 1 / box volume, chart-uniform samples."""
    lo, hi = np.array(domain).T
    q = 1.0 / float(np.prod(hi - lo))

    def sample(n, rng):
        u = rng.uniform(lo, hi, size=(n, len(domain)))
        return embed(u), u

    return AnalyticManifold(
        name=name,
        ambient_dim=ambient_dim,
        domain=domain,
        has_boundary=has_boundary,
        embed=embed,
        tangent_frame=tangent_frame,
        volume_element=lambda u: np.ones(u.shape[0]),
        density=lambda u: np.full(u.shape[0], q),
        sample=sample,
    )


def unit_circle() -> AnalyticManifold:
    def embed(u):
        t = u[:, 0]
        return np.column_stack([np.cos(t), np.sin(t)])

    def frame(u):
        t = u[:, 0]
        return np.stack([np.column_stack([-np.sin(t), np.cos(t)])], axis=1)

    return _flat_chart("circle", 2, ((0.0, 2.0 * np.pi),), embed, frame)


def line_segment() -> AnalyticManifold:
    """The segment t (1, 1) / sqrt(2), t in [-1, 1], in the plane."""
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    D = v.shape[0]

    def embed(u):
        return u[:, 0:1] * v[None, :]

    def frame(u):
        return np.broadcast_to(v, (u.shape[0], 1, D)).copy()

    return _flat_chart("line", D, ((-1.0, 1.0),), embed, frame, has_boundary=True)


def unit_sphere() -> AnalyticManifold:
    def embed(u):
        th, ph = u[:, 0], u[:, 1]
        st = np.sin(th)
        return np.column_stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)])

    def frame(u):
        th, ph = u[:, 0], u[:, 1]
        e_th = np.column_stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])
        e_ph = np.column_stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)])
        return np.stack([e_th, e_ph], axis=1)

    def sample(n, rng):
        pts = rng.normal(size=(n, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        th = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
        ph = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        return pts, np.column_stack([th, ph])

    return AnalyticManifold(
        name="sphere",
        ambient_dim=3,
        domain=((0.0, np.pi), (0.0, 2.0 * np.pi)),
        has_boundary=False,
        embed=embed,
        tangent_frame=frame,
        volume_element=lambda u: np.sin(u[:, 0]),
        density=lambda u: np.full(u.shape[0], 1.0 / (4.0 * np.pi)),
        sample=sample,
    )


def flat_torus() -> AnalyticManifold:
    def embed(u):
        a, b = u[:, 0], u[:, 1]
        return np.column_stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)])

    def frame(u):
        a, b = u[:, 0], u[:, 1]
        z = np.zeros_like(a)
        e_a = np.column_stack([-np.sin(a), np.cos(a), z, z])
        e_b = np.column_stack([z, z, -np.sin(b), np.cos(b)])
        return np.stack([e_a, e_b], axis=1)

    return _flat_chart("torus", 4, ((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)), embed, frame)


MANIFOLDS: dict[str, Callable[[], AnalyticManifold]] = {
    "circle": unit_circle,
    "line": line_segment,
    "sphere": unit_sphere,
    "torus": flat_torus,
}


def oracle_gram_1(manifold: AnalyticManifold, u: np.ndarray) -> np.ndarray:
    """Tangent projector sum_a t_a t_a^T at each chart point; (n, D, D)."""
    frames = manifold.tangent_frame(np.atleast_2d(u))
    return np.einsum("nad,nae->nde", frames, frames)


def oracle_gram_k(manifold: AnalyticManifold, u: np.ndarray, k: int) -> np.ndarray:
    """Degree-k oracle Gram: k x k minors of the tangent projector; (n, B, B)."""
    return minors(oracle_gram_1(manifold, u), k)


# ---------------------------------------------------------------------------
# quadrature


def _panel_nodes(lo: float, hi: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# Gauss-Legendre nodes per panel, the relative agreement of successive panel
# doublings at which chart quadrature stops, and the most nodes of one grid in
# any dimension: 16,384 panels in 1-d, 32 per axis in 2-d, where every oracle
# converges at 8
_QUAD_ORDER = 12
_QUAD_REL_TOL = 1e-8
_QUAD_MAX_NODES = 1 << 18


def chart_quadrature(
    integral: Callable[[np.ndarray, np.ndarray], float | np.ndarray],
    domain: tuple[tuple[float, float], ...],
) -> float | np.ndarray:
    """Composite Gauss-Legendre over a 1-d or 2-d chart. ``integral(u, w)`` sums
    the integrand at the (n, d) nodes u against the (n,) weights w (a scalar or
    an array); panels per axis double from 4 while the grid stays within
    _QUAD_MAX_NODES nodes, until no entry moves by more than _QUAD_REL_TOL of
    max(1, largest entry)."""
    if len(domain) not in (1, 2):
        raise ConfigurationError(f"quadrature supports 1-d or 2-d charts, got {len(domain)}")

    def evaluate(panels: int) -> float | np.ndarray:
        nodes, weights = zip(*(_panel_nodes(lo, hi, panels, _QUAD_ORDER) for lo, hi in domain))
        u = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=1)
        return integral(u, functools.reduce(np.multiply.outer, weights).ravel())

    panels = 4
    prev = evaluate(panels)
    while (2 * panels * _QUAD_ORDER) ** len(domain) <= _QUAD_MAX_NODES:
        panels *= 2
        cur = evaluate(panels)
        if np.max(np.abs(cur - prev)) <= _QUAD_REL_TOL * max(1.0, np.max(np.abs(cur))):
            return cur
        prev = cur
    nodes = (panels * _QUAD_ORDER) ** len(domain)
    raise OraclePrecisionError(
        f"quadrature did not reach rel_tol={_QUAD_REL_TOL} at {panels} panels per axis ({nodes} nodes)"
    )


def oracle_global_inner_product(
    manifold: AnalyticManifold,
    forms: np.ndarray,
    k: int,
    weighting: str = "volume",
    density: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """(l, l) comparison matrix of the constant degree-k forms in the rows of
    ``forms`` (l, B): ``comparison_matrix`` of the oracle Gram field at the
    quadrature nodes, the node weights times the volume element as measure.

    ``weighting="volume"`` integrates against the volume measure;
    ``"density"`` multiplies by the manifold's sampling density (or the
    supplied chart density function).
    """
    if weighting not in ("volume", "density"):
        raise ConfigurationError(f"weighting must be volume or density, got {weighting!r}")
    forms = np.asarray(forms, dtype=np.float64)
    q = density or manifold.density

    def integral(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        mu = w * manifold.volume_element(u)
        if weighting == "density":
            mu = mu * q(u)
        gram = GramField(D=manifold.ambient_dim, k=k, values=oracle_gram_k(manifold, u, k))
        return comparison_matrix(gram, forms, mu)

    return chart_quadrature(integral, manifold.domain)


# ---------------------------------------------------------------------------
# nonuniform sampling on the circle


def _check_kappa(kappa: float) -> None:
    """A von Mises concentration must be finite and >= 0 (NaN is neither)."""
    if not 0 <= kappa < np.inf:
        raise ConfigurationError(f"kappa must be finite and >= 0, got {kappa}")


def von_mises_sampler(
    n: int,
    kappa: float,
    mode: float = 0.0,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n unit-circle points with angle density
    q(t) = exp(kappa cos(t - mode)) / (2 pi I0(kappa)), the angles drawn by
    ``Generator.vonmises`` (Best & Fisher, 1979). Returns (points (n, 2), q at
    the samples).

    I0 enters only through i0e(kappa) = I0(kappa) exp(-kappa), which stays
    finite where I0 and exp overflow (kappa above about 710)."""
    from scipy.special import i0e  # here, not at module level, so `import pointforms` loads no scipy

    _check_kappa(kappa)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    angles = rng.vonmises(mode, kappa, size=n)
    q = np.exp(kappa * (np.cos(angles - mode) - 1.0)) / (2.0 * np.pi * float(i0e(kappa)))
    return np.column_stack([np.cos(angles), np.sin(angles)]), q


# ---------------------------------------------------------------------------
# convergence and bias studies


_THETA_CAP = 2.0  # exponent bound is 2 / (d + 8)
_BOUNDARY_TRIM = 0.2  # chart quantile trimmed at each end of a manifold with boundary


def _interior_mask(manifold: AnalyticManifold, u: np.ndarray) -> np.ndarray:
    mask = np.ones(u.shape[0], dtype=bool)
    if not manifold.has_boundary:
        return mask
    for j in range(u.shape[1]):
        lo, hi = np.quantile(u[:, j], [_BOUNDARY_TRIM, 1.0 - _BOUNDARY_TRIM])
        mask &= (u[:, j] >= lo) & (u[:, j] <= hi)
    return mask


def convergence_study(
    manifold: AnalyticManifold,
    sizes: list[int],
    params: LaplacianParams | None = None,
    n_seeds: int = 5,
    k: int = 1,
    theta: float | None = None,
    base_seed: int = 0,
) -> list[dict]:
    """Empirical Gram fields against the analytic oracle across sample sizes.

    With ``theta`` set, the bandwidth multiplier is coupled to n as
    eps_n = n**(-theta). Rows report per-point max-norm error quantiles on
    interior points plus global inner-product errors and an eigenvalue
    diagnostic. The graph is kept fully connected so truncation never
    interacts with the kernel window.
    """
    params = params or LaplacianParams()
    if not sizes or min(sizes) < params.k0 or n_seeds < 1:
        raise ConfigurationError(
            f"a convergence study needs sizes >= k0={params.k0} and n_seeds >= 1, got {sizes} and {n_seeds}"
        )
    check_computable_degree(manifold.ambient_dim, k)
    d = manifold.intrinsic_dim
    if theta is not None and not np.isfinite(theta):
        raise ConfigurationError(f"coupling exponent must be finite, got {theta}")
    if theta is not None and not 0.0 < theta < _THETA_CAP / (d + 8):
        warnings.warn(
            f"coupling exponent {theta} outside (0, {_THETA_CAP / (d + 8):.4f}) for d={d}",
            ConfigurationWarning,
            stacklevel=2,
        )
    dx = coordinate_form(manifold.ambient_dim, 1)[None, :]  # one constant form, (1, B)
    oracle_density_weighted = float(oracle_global_inner_product(manifold, dx, 1, "density")[0, 0])
    oracle_volume = float(oracle_global_inner_product(manifold, dx, 1, "volume")[0, 0])

    def sample_rows(item: tuple[int, int]) -> list[dict]:
        n, seed = item
        eps_n = params.epsilon if theta is None else params.epsilon * n ** (-theta)
        run_params = replace(params, epsilon=eps_n, knn="full", d=d)
        rng = np.random.default_rng([base_seed, n, seed])
        points, u = manifold.sample(n, rng)
        # no operator outlives its Gram field, so none is alive during the next build
        g1 = gram_field_1(build_laplacian(points, run_params), points)
        gk = compound_gram_field(g1, k)
        oracle = oracle_gram_k(manifold, u, k)
        mask = _interior_mask(manifold, u)
        err = np.abs(gk.values - oracle).max(axis=(1, 2))[mask]
        eigs = np.linalg.eigvalsh(gk.values)
        base = {
            "manifold": manifold.name,
            "n": n,
            "epsilon": eps_n,
            "alpha": run_params.alpha,
            "beta": run_params.beta,
            "seed": seed,
        }
        rows = [
            base | {"metric": f"g{k}_err_median", "value": float(np.median(err))},
            base | {"metric": f"g{k}_err_max", "value": float(err.max())},
            base | {"metric": f"g{k}_min_eigenvalue", "value": float(eigs.min())},
        ]
        if k == 1:
            est_uniform = float(comparison_matrix(g1, dx, np.full(n, 1.0 / n))[0, 0])
            q_true = manifold.density(u)
            est_corrected = float(comparison_matrix(g1, dx, 1.0 / (n * q_true))[0, 0])
            rows.append(base | {"metric": "gip_dxdx_uniform_err", "value": abs(est_uniform - oracle_density_weighted)})
            rows.append(base | {"metric": "gip_dxdx_corrected_err", "value": abs(est_corrected - oracle_volume)})
        return rows

    # each (n, seed) sample is independent: a dense build costs about n^2
    items = [(n, seed) for n in sizes for seed in range(n_seeds)]
    return [row for rows in fork_map(sample_rows, items, lambda item: item[0] ** 2) for row in rows]


def aggregate_metric(rows: list[dict], metric: str) -> dict[int, float]:
    """Median over seeds of one metric, keyed by sample size."""
    by_n: dict[int, list[float]] = {}
    for row in rows:
        if row["metric"] == metric:
            by_n.setdefault(row["n"], []).append(row["value"])
    return {n: float(np.median(vals)) for n, vals in sorted(by_n.items())}


def density_check(
    kappas: list[float],
    n: int = 512,
    n_seeds: int = 10,
    base_seed: int = 0,
) -> tuple[list[dict], list[dict]]:
    """Density-corrected vs uncorrected global inner products under
    von Mises sampling on the circle.

    For the coordinate forms dx, dy the volume-weighted targets are known;
    each seed reports the mean absolute error over the three distinct
    entries of the 2x2 inner-product matrix. Both estimators are compared
    against the same volume-weighted targets, so the uncorrected one is
    scaled by the circle volume; at kappa=0 the true density is exactly
    1/(2 pi) and the two weight vectors coincide. Returns (rows, summary).
    """
    run_params = LaplacianParams(knn="full", d=1)
    if not kappas or n < run_params.k0 or n_seeds < 1:
        raise ConfigurationError(
            f"a density check needs kappas, n >= k0={run_params.k0} and n_seeds >= 1, "
            f"got {kappas}, {n} and {n_seeds}"
        )
    for kappa in kappas:
        _check_kappa(kappa)
    if n_seeds < 2:
        warnings.warn(
            "a density check with a single seed cannot separate bias from sampling noise",
            ConfigurationWarning,
            stacklevel=2,
        )
    dxdy = np.eye(2)  # the coordinate forms dx, dy as rows
    target = oracle_global_inner_product(unit_circle(), dxdy, 1, "volume")
    iu, ju = np.triu_indices(2)

    def errors(item: tuple[int, int]) -> tuple[float, float]:
        ki, seed = item
        rng = np.random.default_rng([base_seed, ki, seed])
        points, q = von_mises_sampler(n, kappas[ki], mode=0.0, rng=rng)
        g1 = gram_field_1(build_laplacian(points, run_params), points)
        est_unc = comparison_matrix(g1, dxdy, np.full(n, 2.0 * np.pi / n))
        est_corr = comparison_matrix(g1, dxdy, 1.0 / (n * q))
        return float(np.abs(est_unc - target)[iu, ju].mean()), float(np.abs(est_corr - target)[iu, ju].mean())

    # every (kappa, seed) sample has n points, so each costs the same
    errs = fork_map(errors, [(ki, seed) for ki in range(len(kappas)) for seed in range(n_seeds)], lambda item: 1)
    rows: list[dict] = []
    summary: list[dict] = []
    for ki, kappa in enumerate(kappas):
        mae_unc, mae_corr = zip(*errs[ki * n_seeds : (ki + 1) * n_seeds])
        for seed, (err_unc, err_corr) in enumerate(zip(mae_unc, mae_corr)):
            base = {"kappa": kappa, "n": n, "seed": seed}
            rows.append(base | {"metric": "mae_uncorrected", "value": err_unc})
            rows.append(base | {"metric": "mae_corrected", "value": err_corr})
        summary.append(
            {
                "kappa": kappa,
                "n": n,
                "seeds": n_seeds,
                "mae_uncorrected": float(np.mean(mae_unc)),
                "mae_corrected": float(np.mean(mae_corr)),
            }
        )
    return rows, summary
