"""Synthetic benchmark generators.

Three labeled binary tasks that return the same ``(clouds, meta)`` shape:
circle arcs against radial rays and two gene-kinetics regimes, both built
from fixed-step integration of a vector field plus observation noise, and
unit circles sampled at two von Mises concentrations, whose labels depend
on sampling density alone. Every cloud draws from its own seed sequence,
so datasets are reproducible element by element. The trajectories of one
class are integrated together, one row per cloud, in one ``integrate_ode``
call; each cloud's generator draws its start before that call and its
subsample and noise after it. ``TASKS`` lists the generators by the task
name the CLI takes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import PointCloud
from .errors import ConfigurationError, IntegrationBlowupError
from .oracle import von_mises_sampler

_BLOWUP_LIMIT = 1e8


def integrate_ode(
    field, y0: np.ndarray, t_max: float, n_steps: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Classic fourth-order Runge-Kutta with a fixed step.

    ``field(t, y)`` must broadcast over leading axes of ``y``. With an int
    ``n_steps`` it returns the time grid (n_steps+1,) and the states
    (n_steps+1, *y0.shape), both endpoints included.

    ``n_steps`` may also be an (N,) int array for an (N, S) ``y0``: row i
    then steps with its own h = t_max / n_steps[i] (``field`` sees t as an
    (N, 1) column), every row runs to max(n_steps), and a row past its own
    last step holds its final state, so only rows still inside their own
    step count can blow up. The times are then (max+1, N) and the states
    (max+1, N, S); row i matches a scalar call with n_steps[i] bitwise.
    """
    steps = np.asarray(n_steps)
    if (steps < 1).any():
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    y0 = np.asarray(y0, dtype=np.float64)
    n_max = int(steps.max())
    if steps.ndim == 0:
        times = np.linspace(0.0, t_max, n_max + 1)
        t_col, h = times, t_max / n_max
    else:
        if y0.ndim != 2 or steps.shape != y0.shape[:1]:
            raise ConfigurationError(f"n_steps of shape {steps.shape} needs y0 of shape (N, S), got {y0.shape}")
        times = np.full((n_max + 1, steps.size), float(t_max))
        for j, n in enumerate(steps):
            times[: n + 1, j] = np.linspace(0.0, t_max, n + 1)
        t_col, h = times[..., None], (t_max / steps)[:, None]
    states = np.empty((n_max + 1, *y0.shape))
    states[0] = y0
    y = y0
    for i in range(n_max):
        t = t_col[i]
        k1 = field(t, y)
        k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = field(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = field(t + h, y + h * k3)
        y_next = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if steps.ndim:
            y_next = np.where((i < steps)[:, None], y_next, y)
        # NaN fails the comparison too
        ok = np.abs(y_next) <= _BLOWUP_LIMIT
        if not ok.all():
            if steps.ndim:
                row = int(np.flatnonzero(~ok.all(axis=1))[0])
                raise IntegrationBlowupError(
                    f"trajectory {row} blew up at step {i + 1} (t={times[i + 1, row]:.6g})"
                )
            raise IntegrationBlowupError(f"trajectory blew up at step {i + 1} (t={times[i + 1]:.6g})")
        y = states[i + 1] = y_next
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
        rngs = [np.random.default_rng([cfg.seed, label, i]) for i in range(cfg.n_per_class)]
        y0 = np.empty((cfg.n_per_class, 2))
        for i, rng in enumerate(rngs):
            radius = rng.uniform(*cfg.radius_range)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            y0[i] = radius * np.cos(angle), radius * np.sin(angle)
        _, states = integrate_ode(field, y0, cfg.t_max, cfg.n_steps)
        for i, rng in enumerate(rngs):
            pick = rng.choice(states.shape[0], size=cfg.n_points, replace=False)
            pts = states[pick, i] + cfg.noise * rng.standard_normal((cfg.n_points, 2))
            clouds.append(PointCloud(id=f"{name}-{i:04d}", points=pts, label=label))
    return clouds, {"task": "circles-lines", **asdict(cfg)}


# ---------------------------------------------------------------------------
# two-species gene kinetics


def rna_field(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray):
    """du/dt = alpha - beta*u, ds/dt = beta*u - gamma*s, genes stacked (u, s).

    The rates may carry leading axes, such as one row per trajectory, that
    broadcast against the state's.
    """
    n = alpha.shape[-1]

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

    # rate multipliers, rows (alpha, beta, gamma) like ``rates`` below
    shift = np.ones((3, cfg.n_genes))
    if not cfg.control:
        shift[:, perturbed] = 1.0 + np.array([[cfg.alpha_shift], [cfg.beta_shift], [cfg.gamma_shift]])

    clouds: list[PointCloud] = []
    for label in (0, 1):
        rngs = [np.random.default_rng([cfg.seed, 1 + label, i]) for i in range(cfg.n_per_class)]
        rates = np.empty((3, cfg.n_per_class, cfg.n_genes))
        n_pts = np.empty(cfg.n_per_class, dtype=np.int64)
        x0 = np.empty((cfg.n_per_class, cfg.ambient_dim))
        for i, rng in enumerate(rngs):
            jit = lambda base: base * np.exp(cfg.param_jitter * rng.standard_normal(cfg.n_genes))
            rates[:, i] = jit(base_alpha), jit(base_beta), jit(base_gamma)
            if label == 1:
                rates[:, i] *= shift
            n_pts[i] = rng.integers(cfg.points_range[0], cfg.points_range[1] + 1)
            x0[i] = base_x0 * np.exp(cfg.x0_jitter * rng.standard_normal(base_x0.shape))
        _, states = integrate_ode(rna_field(*rates), x0, cfg.t_max, n_pts - 1)
        for i, rng in enumerate(rngs):
            traj = states[: n_pts[i], i]
            pts = traj + cfg.noise * rng.standard_normal(traj.shape)
            clouds.append(PointCloud(id=f"rna{label}-{i:03d}", points=pts, label=label))
    meta = {"task": "rna-kinetics", "perturbed_genes": perturbed.tolist(), **asdict(cfg)}
    return clouds, meta


# ---------------------------------------------------------------------------
# circles sampled with a known non-uniform density


@dataclass(frozen=True)
class DensityShiftConfig:
    kappas: tuple[float, float] = (0.0, 2.0)  # concentration of label 0, then label 1
    n_per_class: int = 100
    n_points: int = 128
    seed: int = 0


def gen_density_shift(config: DensityShiftConfig | None = None) -> tuple[list[PointCloud], dict]:
    """Unit-circle clouds with von Mises angles: concentration ``kappas[0]``
    (label 0) versus ``kappas[1]`` (label 1).

    Each cloud draws its mode uniformly on the circle, so only the
    concentration of the sampling density separates the classes.
    """
    cfg = config or DensityShiftConfig()
    if len(cfg.kappas) != 2:
        raise ConfigurationError(f"kappas must hold two values, one per label, got {cfg.kappas}")
    clouds: list[PointCloud] = []
    for label, kappa in enumerate(cfg.kappas):
        for i in range(cfg.n_per_class):
            rng = np.random.default_rng([cfg.seed, label, i])
            mode = rng.uniform(0.0, 2.0 * np.pi)
            pts, _ = von_mises_sampler(cfg.n_points, kappa, mode, rng)
            clouds.append(PointCloud(id=f"vm{label}-{i:03d}", points=pts, label=label))
    return clouds, {"task": "density-shift", **asdict(cfg)}


# task name -> (config class, generator). Each generator is looked up in this
# module when called, so a wrapper installed on the module attribute sees it.
TASKS = {
    "circles-lines": (CirclesLinesConfig, lambda cfg: gen_circles_lines(cfg)),
    "rna-kinetics": (RnaKineticsConfig, lambda cfg: gen_rna_kinetics(cfg)),
    "density-shift": (DensityShiftConfig, lambda cfg: gen_density_shift(cfg)),
}
