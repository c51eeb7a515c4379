"""Synthetic benchmark generators.

Three families of labeled point-cloud datasets, all built from fixed-step
integration of planar or gene-kinetics vector fields plus observation
noise, and one unlabeled family of non-uniformly sampled circles with
known density sidecars. Every cloud draws from its own seed sequence, so
datasets are reproducible element by element. ``TASKS`` lists the
generators by the task name the CLI takes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import PointCloud
from .errors import ConfigurationError, IntegrationBlowupError
from .oracle import von_mises_sampler

_BLOWUP_LIMIT = 1e8


def integrate_ode(field, y0: np.ndarray, t_max: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Classic fourth-order Runge-Kutta with a fixed step.

    ``field(t, y)`` must broadcast over leading axes of ``y``. Returns the
    time grid (n_steps+1,) and the states (n_steps+1, *y0.shape), both
    endpoints included.
    """
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    y0 = np.asarray(y0, dtype=np.float64)
    times = np.linspace(0.0, t_max, n_steps + 1)
    states = np.empty((n_steps + 1, *y0.shape))
    states[0] = y0
    h = t_max / n_steps
    y = y0
    for i in range(n_steps):
        t = times[i]
        k1 = field(t, y)
        k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = field(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = field(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all() or np.abs(y).max() > _BLOWUP_LIMIT:
            raise IntegrationBlowupError(f"trajectory blew up at step {i + 1} (t={times[i + 1]:.6g})")
        states[i + 1] = y
    return times, states


def circles_field(t: float, y: np.ndarray) -> np.ndarray:
    """Unit-speed rotation about the origin; trajectories are circles."""
    return np.stack([y[..., 1], -y[..., 0]], axis=-1)


def lines_field(t: float, y: np.ndarray) -> np.ndarray:
    """Radial outflow (x, y) -> (x, y); trajectories are rays from the origin."""
    return np.asarray(y, dtype=np.float64)


@dataclass(frozen=True)
class CirclesLinesConfig:
    n_per_class: int = 300
    n_points: int = 128
    t_max: float = 1.5
    n_steps: int = 256
    radius_range: tuple[float, float] = (0.5, 1.5)
    noise: float = 0.05
    seed: int = 0


def gen_circles_lines(config: CirclesLinesConfig | None = None) -> tuple[list[PointCloud], dict]:
    """Circle arcs (label 0) versus radial rays (label 1).

    Each cloud is one trajectory started at a random annulus position,
    subsampled to n_points states, plus isotropic Gaussian noise. With
    zero noise a circle-class cloud has exactly constant radius and a
    line-class cloud is exactly collinear with the origin.
    """
    cfg = config or CirclesLinesConfig()
    if cfg.n_steps + 1 < cfg.n_points:
        raise ConfigurationError(
            f"trajectory holds {cfg.n_steps + 1} states but {cfg.n_points} points were requested"
        )
    clouds: list[PointCloud] = []
    for label, (name, field) in enumerate([("circles", circles_field), ("lines", lines_field)]):
        for i in range(cfg.n_per_class):
            rng = np.random.default_rng([cfg.seed, label, i])
            radius = rng.uniform(*cfg.radius_range)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            y0 = np.array([radius * np.cos(angle), radius * np.sin(angle)])
            _, states = integrate_ode(field, y0, cfg.t_max, cfg.n_steps)
            pick = rng.choice(states.shape[0], size=cfg.n_points, replace=False)
            pts = states[pick] + cfg.noise * rng.standard_normal((cfg.n_points, 2))
            clouds.append(PointCloud(id=f"{name}-{i:04d}", points=pts, label=label))
    return clouds, {"task": "circles-lines", **asdict(cfg)}


# ---------------------------------------------------------------------------
# two-species gene kinetics


def rna_field(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray):
    """du/dt = alpha - beta*u, ds/dt = beta*u - gamma*s, genes stacked (u, s)."""
    n = alpha.shape[0]

    def field(t, y):
        u = y[..., :n]
        s = y[..., n:]
        return np.concatenate([alpha - beta * u, beta * u - gamma * s], axis=-1)

    return field


def rna_steady_state(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Fixed point (u*, s*) = (alpha/beta, alpha/gamma), stacked like the state."""
    return np.concatenate([alpha / beta, alpha / gamma])


@dataclass(frozen=True)
class RnaKineticsConfig:
    n_genes: int = 24
    n_per_class: int = 80
    n_perturbed: int = 5
    alpha_shift: float = 0.30
    beta_shift: float = -0.30
    gamma_shift: float = 0.30
    param_jitter: float = 0.10
    x0_jitter: float = 0.05
    noise: float = 0.05
    points_range: tuple[int, int] = (64, 192)
    t_max: float = 2.0
    seed: int = 0
    control: bool = False

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n_genes


def gen_rna_kinetics(config: RnaKineticsConfig | None = None) -> tuple[list[PointCloud], dict]:
    """Early-time kinetics fragments: base rates (label 0) versus a rate
    perturbation on a few genes (label 1).

    All trajectories start near the base steady state, so label-1 clouds
    drift toward the shifted fixed point along a class-consistent direction
    while label-0 clouds only wander by per-cloud rate jitter. With
    ``control=True`` both labels use base rates and the labels carry no
    signal, which calibrates the null behavior of any classifier.
    """
    cfg = config or RnaKineticsConfig()
    if not 0 < cfg.n_perturbed <= cfg.n_genes:
        raise ConfigurationError("n_perturbed must be in 1..n_genes")
    if min(1.0 + cfg.alpha_shift, 1.0 + cfg.beta_shift, 1.0 + cfg.gamma_shift) <= 0:
        raise ConfigurationError("class shift would make a kinetic rate nonpositive")
    root = np.random.default_rng([cfg.seed, 0])
    base_alpha = root.uniform(0.8, 1.6, cfg.n_genes)
    base_beta = root.uniform(0.8, 1.6, cfg.n_genes)
    base_gamma = root.uniform(0.8, 1.6, cfg.n_genes)
    perturbed = np.sort(root.choice(cfg.n_genes, size=cfg.n_perturbed, replace=False))
    base_x0 = rna_steady_state(base_alpha, base_beta, base_gamma)

    shift_alpha = np.ones(cfg.n_genes)
    shift_beta = np.ones(cfg.n_genes)
    shift_gamma = np.ones(cfg.n_genes)
    if not cfg.control:
        shift_alpha[perturbed] = 1.0 + cfg.alpha_shift
        shift_beta[perturbed] = 1.0 + cfg.beta_shift
        shift_gamma[perturbed] = 1.0 + cfg.gamma_shift

    clouds: list[PointCloud] = []
    for label in (0, 1):
        for i in range(cfg.n_per_class):
            rng = np.random.default_rng([cfg.seed, 1 + label, i])
            jit = lambda base: base * np.exp(cfg.param_jitter * rng.standard_normal(cfg.n_genes))
            alpha, beta, gamma = jit(base_alpha), jit(base_beta), jit(base_gamma)
            if label == 1:
                alpha, beta, gamma = alpha * shift_alpha, beta * shift_beta, gamma * shift_gamma
            n_pts = int(rng.integers(cfg.points_range[0], cfg.points_range[1] + 1))
            x0 = base_x0 * np.exp(cfg.x0_jitter * rng.standard_normal(base_x0.shape))
            _, states = integrate_ode(rna_field(alpha, beta, gamma), x0, cfg.t_max, n_pts - 1)
            pts = states + cfg.noise * rng.standard_normal(states.shape)
            clouds.append(PointCloud(id=f"rna{label}-{i:03d}", points=pts, label=label))
    meta = {"task": "rna-kinetics", "perturbed_genes": perturbed.tolist(), **asdict(cfg)}
    return clouds, meta


# ---------------------------------------------------------------------------
# circles sampled with a known non-uniform density


@dataclass(frozen=True)
class DensityShiftConfig:
    kappas: tuple[float, ...] = (2.0, 4.0, 8.0)
    n_per_kappa: int = 10
    n_points: int = 512
    mode: float = 0.0
    seed: int = 0


def gen_density_shift(config: DensityShiftConfig | None = None) -> tuple[list[PointCloud], dict, dict]:
    """Unit-circle clouds drawn from von Mises angle laws of varying
    concentration; each cloud carries its true per-point density."""
    cfg = config or DensityShiftConfig()
    clouds: list[PointCloud] = []
    extras: dict[str, dict] = {}
    for ki, kappa in enumerate(cfg.kappas):
        for i in range(cfg.n_per_kappa):
            rng = np.random.default_rng([cfg.seed, ki, i])
            pts, q = von_mises_sampler(cfg.n_points, kappa, cfg.mode, rng)
            cid = f"vm-k{kappa:g}-{i:03d}"
            clouds.append(PointCloud(id=cid, points=pts))
            extras[cid] = {"q": q, "kappa": float(kappa)}
    return clouds, {"task": "density-shift", **asdict(cfg)}, extras


# task name -> (config class, generator). Each generator is looked up in this
# module when called, so a wrapper installed on the module attribute sees it.
TASKS = {
    "circles-lines": (CirclesLinesConfig, lambda cfg: gen_circles_lines(cfg)),
    "rna-kinetics": (RnaKineticsConfig, lambda cfg: gen_rna_kinetics(cfg)),
    "density-shift": (DensityShiftConfig, lambda cfg: gen_density_shift(cfg)),
}
