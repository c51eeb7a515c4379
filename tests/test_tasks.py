"""Synthetic dataset generators and the fixed-step integrator."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from pointforms import (
    CirclesLinesConfig,
    ConfigurationError,
    DensityShiftConfig,
    IntegrationBlowupError,
    RnaKineticsConfig,
    circles_field,
    gen_circles_lines,
    gen_density_shift,
    gen_rna_kinetics,
    integrate_ode,
    lines_field,
    rna_field,
    rna_steady_state,
    von_mises_sampler,
)


# ---------------------------------------------------------------------------
# integrator


def test_zero_field_is_a_fixed_point():
    y0 = np.array([2.0, -1.0])
    times, states = integrate_ode(lambda t, y: np.zeros_like(y), y0, 3.0, 30)
    assert times.shape == (31,) and states.shape == (31, 2)
    assert times[0] == 0.0 and times[-1] == 3.0
    npt.assert_array_equal(states, np.tile(y0, (31, 1)))


def test_lines_field_reaches_exponential_endpoint():
    _, states = integrate_ode(lines_field, np.array([1.0, 0.0]), 1.0, 100)
    npt.assert_allclose(states[-1], [np.e, 0.0], atol=1e-6)


def test_circles_field_closes_after_full_turn():
    y0 = np.array([1.0, 0.0])
    _, states = integrate_ode(circles_field, y0, 2.0 * np.pi, 1000)
    npt.assert_allclose(states[-1], y0, atol=1e-6)
    radii = np.linalg.norm(states, axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-6


def test_integrator_flags_blowup():
    with pytest.raises(IntegrationBlowupError):
        integrate_ode(lambda t, y: 50.0 * y, np.array([1.0]), 20.0, 200)


def test_integrator_rejects_zero_steps():
    with pytest.raises(ConfigurationError):
        integrate_ode(lines_field, np.array([1.0, 0.0]), 1.0, 0)
    with pytest.raises(ConfigurationError):
        integrate_ode(lines_field, np.ones((2, 2)), 1.0, np.array([3, 0]))


def test_integrator_rejects_steps_that_do_not_match_the_rows():
    with pytest.raises(ConfigurationError):
        integrate_ode(lines_field, np.ones((3, 2)), 1.0, np.array([3, 4]))
    with pytest.raises(ConfigurationError):
        integrate_ode(lines_field, np.ones(2), 1.0, np.array([3, 4]))


def test_per_row_steps_equal_one_scalar_call_per_row_bitwise():
    # A time-dependent field checks that each row also sees its own clock.
    rng = np.random.default_rng(7)
    alpha, beta, gamma = rng.uniform(0.8, 1.6, (3, 5, 4))
    kinetics = rna_field(alpha, beta, gamma)
    forced = lambda t, y: np.sin(3.0 * t) * y[..., ::-1] - 0.5 * y
    y0 = rng.uniform(0.5, 1.5, (5, 8))
    steps = np.array([7, 30, 1, 30, 12])
    for name, field in [("kinetics", kinetics), ("forced", forced)]:
        times, states = integrate_ode(field, y0, 2.0, steps)
        assert times.shape == (31, 5) and states.shape == (31, 5, 8), name
        for i, n in enumerate(steps):
            row_field = rna_field(alpha[i], beta[i], gamma[i]) if name == "kinetics" else forced
            t_ref, s_ref = integrate_ode(row_field, y0[i], 2.0, int(n))
            npt.assert_array_equal(times[: n + 1, i], t_ref, err_msg=name)
            npt.assert_array_equal(states[: n + 1, i], s_ref, err_msg=name)
            # past its last step a row holds its final state
            npt.assert_array_equal(states[n:, i], np.broadcast_to(s_ref[-1], (31 - n, 8)), err_msg=name)


def test_per_row_blowup_counts_only_steps_inside_each_row():
    grow = lambda t, y: y
    # Row 0 takes 2 steps of h = 0.5; run on for the 400 steps of row 1 it
    # would grow by 2.6**398, so it must stop at its own last step.
    times, states = integrate_ode(grow, np.ones((2, 1)), 1.0, np.array([2, 400]))
    assert np.isfinite(states).all()
    assert states[-1, 0, 0] == states[2, 0, 0]
    npt.assert_allclose(states[-1, 1, 0], np.e, rtol=1e-9)
    # a row that blows up within its own steps still raises
    with pytest.raises(IntegrationBlowupError, match="trajectory 1 blew up"):
        integrate_ode(lambda t, y: np.array([[0.0], [50.0]]) * y, np.ones((2, 1)), 20.0, np.array([300, 200]))


# ---------------------------------------------------------------------------
# circles versus lines


def test_circles_lines_counts_ids_labels():
    cfg = CirclesLinesConfig(n_per_class=4)
    clouds, meta = gen_circles_lines(cfg)
    assert len(clouds) == 8
    assert [c.id for c in clouds[:4]] == [f"circles-{i:04d}" for i in range(4)]
    assert [c.id for c in clouds[4:]] == [f"lines-{i:04d}" for i in range(4)]
    assert [c.label for c in clouds] == [0] * 4 + [1] * 4
    assert all(c.m == cfg.n_points and c.dim == 2 for c in clouds)
    assert meta["task"] == "circles-lines" and meta["n_per_class"] == 4


def test_noiseless_circle_clouds_have_constant_radius():
    cfg = CirclesLinesConfig(n_per_class=3, noise=0.0)
    clouds, _ = gen_circles_lines(cfg)
    for cloud in clouds[:3]:
        radii = np.linalg.norm(cloud.points, axis=1)
        assert radii.std() / radii.mean() <= 1e-6


def test_noiseless_line_clouds_are_rays_through_origin():
    cfg = CirclesLinesConfig(n_per_class=3, noise=0.0)
    clouds, _ = gen_circles_lines(cfg)
    for cloud in clouds[3:]:
        svals = np.linalg.svd(cloud.points, compute_uv=False)
        assert svals[1] / svals[0] <= 1e-6


def test_circles_lines_deterministic():
    cfg = CirclesLinesConfig(n_per_class=2)
    first, _ = gen_circles_lines(cfg)
    second, _ = gen_circles_lines(cfg)
    for a, b in zip(first, second):
        assert a.id == b.id
        npt.assert_array_equal(a.points, b.points)


def _circles_lines_per_cloud(cfg):
    # the per-cloud loop the generator replaced, kept as its reference
    clouds = []
    for label, (name, field) in enumerate([("circles", circles_field), ("lines", lines_field)]):
        for i in range(cfg.n_per_class):
            rng = np.random.default_rng([cfg.seed, label, i])
            radius = rng.uniform(*cfg.radius_range)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            y0 = np.array([radius * np.cos(angle), radius * np.sin(angle)])
            _, states = integrate_ode(field, y0, cfg.t_max, cfg.n_steps)
            pick = rng.choice(states.shape[0], size=cfg.n_points, replace=False)
            pts = states[pick] + cfg.noise * rng.standard_normal((cfg.n_points, 2))
            clouds.append((f"{name}-{i:04d}", label, pts))
    return clouds


def _rna_kinetics_per_cloud(cfg):
    # the per-cloud loop the generator replaced, kept as its reference
    root = np.random.default_rng([cfg.seed, 0])
    base_alpha, base_beta, base_gamma = (root.uniform(0.8, 1.6, cfg.n_genes) for _ in range(3))
    perturbed = np.sort(root.choice(cfg.n_genes, size=cfg.n_perturbed, replace=False))
    base_x0 = rna_steady_state(base_alpha, base_beta, base_gamma)
    shift = np.ones((3, cfg.n_genes))
    if not cfg.control:
        shift[:, perturbed] = 1.0 + np.array([[cfg.alpha_shift], [cfg.beta_shift], [cfg.gamma_shift]])
    clouds = []
    for label in (0, 1):
        for i in range(cfg.n_per_class):
            rng = np.random.default_rng([cfg.seed, 1 + label, i])
            jit = lambda base: base * np.exp(cfg.param_jitter * rng.standard_normal(cfg.n_genes))
            alpha, beta, gamma = jit(base_alpha), jit(base_beta), jit(base_gamma)
            if label == 1:
                alpha, beta, gamma = alpha * shift[0], beta * shift[1], gamma * shift[2]
            n_pts = int(rng.integers(cfg.points_range[0], cfg.points_range[1] + 1))
            x0 = base_x0 * np.exp(cfg.x0_jitter * rng.standard_normal(base_x0.shape))
            _, states = integrate_ode(rna_field(alpha, beta, gamma), x0, cfg.t_max, n_pts - 1)
            pts = states + cfg.noise * rng.standard_normal(states.shape)
            clouds.append((f"rna{label}-{i:03d}", label, pts))
    return clouds


@pytest.mark.parametrize(
    "generate, reference, cfg",
    [
        (gen_circles_lines, _circles_lines_per_cloud, CirclesLinesConfig(n_per_class=20)),
        (gen_circles_lines, _circles_lines_per_cloud, CirclesLinesConfig(n_per_class=5, n_steps=127, seed=1000)),
        (gen_rna_kinetics, _rna_kinetics_per_cloud, RnaKineticsConfig()),
        (gen_rna_kinetics, _rna_kinetics_per_cloud, RnaKineticsConfig(n_genes=6, n_per_class=40, n_perturbed=2)),
        (gen_rna_kinetics, _rna_kinetics_per_cloud, RnaKineticsConfig(n_per_class=20, control=True)),
    ],
    ids=["circles-lines", "circles-lines-1000", "rna-default", "rna-6-genes", "rna-control"],
)
def test_generators_equal_their_per_cloud_loop_bitwise(generate, reference, cfg):
    clouds, _ = generate(cfg)
    expected = reference(cfg)
    assert [(c.id, c.label) for c in clouds] == [(cid, label) for cid, label, _ in expected]
    for cloud, (_, _, pts) in zip(clouds, expected):
        assert cloud.points.shape == pts.shape
        assert cloud.points.tobytes() == pts.tobytes(), cloud.id


@pytest.mark.parametrize(
    "generate, cfg",
    [
        (gen_circles_lines, CirclesLinesConfig(n_per_class=4)),
        (gen_rna_kinetics, RnaKineticsConfig(n_genes=3, n_per_class=4, n_perturbed=1)),
    ],
    ids=["circles-lines", "rna-kinetics"],
)
def test_generators_integrate_once_per_class(generate, cfg, monkeypatch):
    from pointforms import tasks

    calls = []

    def counted(field, y0, t_max, n_steps, _fn=tasks.integrate_ode):
        calls.append(np.shape(y0))
        return _fn(field, y0, t_max, n_steps)

    monkeypatch.setattr(tasks, "integrate_ode", counted)
    generate(cfg)
    assert [shape[0] for shape in calls] == [cfg.n_per_class] * 2


def test_circles_lines_rejects_short_trajectories():
    with pytest.raises(ConfigurationError):
        gen_circles_lines(CirclesLinesConfig(n_points=300, n_steps=128))


# ---------------------------------------------------------------------------
# kinetics


def test_rna_field_vanishes_at_steady_state():
    rng = np.random.default_rng(0)
    alpha, beta, gamma = rng.uniform(0.8, 1.6, (3, 6))
    ss = rna_steady_state(alpha, beta, gamma)
    npt.assert_allclose(ss[:6], alpha / beta, atol=1e-15)
    npt.assert_allclose(ss[6:], alpha / gamma, atol=1e-15)
    npt.assert_allclose(rna_field(alpha, beta, gamma)(0.0, ss), np.zeros(12), atol=1e-14)


def test_rna_zero_jitter_class_zero_is_constant():
    cfg = RnaKineticsConfig(
        n_genes=5, n_per_class=2, n_perturbed=2, param_jitter=0.0, x0_jitter=0.0, noise=0.0
    )
    clouds, meta = gen_rna_kinetics(cfg)
    for cloud in clouds:
        if cloud.label == 0:
            drift = np.abs(cloud.points - cloud.points[0]).max()
            assert drift <= 1e-9
        else:
            assert np.abs(cloud.points - cloud.points[0]).max() > 1e-3
    assert len(meta["perturbed_genes"]) == 2


def test_rna_perturbation_moves_unspliced_not_spliced_targets():
    # The rate shift (+30% production, -30% splicing, +30% degradation)
    # moves the unspliced steady state by 1.3/0.7 and leaves the spliced
    # steady state unchanged; long integration must approach it.
    alpha = np.array([1.0])
    beta = np.array([1.0])
    gamma = np.array([1.0])
    base_ss = rna_steady_state(alpha, beta, gamma)
    shifted = (1.3 * alpha, 0.7 * beta, 1.3 * gamma)
    shifted_ss = rna_steady_state(*shifted)
    assert shifted_ss[0] == pytest.approx(base_ss[0] * 1.3 / 0.7)
    assert shifted_ss[1] == pytest.approx(base_ss[1])
    _, states = integrate_ode(rna_field(*shifted), base_ss, 30.0, 600)
    npt.assert_allclose(states[-1], shifted_ss, atol=1e-6)


def test_rna_control_mode_removes_class_signal():
    cfg = RnaKineticsConfig(
        n_genes=4, n_per_class=2, n_perturbed=2, param_jitter=0.0, x0_jitter=0.0, noise=0.0,
        control=True,
    )
    clouds, _ = gen_rna_kinetics(cfg)
    # with all randomness off, label 0 and label 1 differ only through the
    # per-cloud rng stream; both stay at the base steady state
    for cloud in clouds:
        assert np.abs(cloud.points - cloud.points[0]).max() <= 1e-9


def test_rna_variable_cloud_sizes_within_range():
    cfg = RnaKineticsConfig(n_genes=3, n_per_class=6, n_perturbed=1, points_range=(10, 20))
    clouds, _ = gen_rna_kinetics(cfg)
    sizes = {c.m for c in clouds}
    assert all(10 <= s <= 20 for s in sizes)
    assert len(sizes) > 1
    assert all(c.dim == 6 for c in clouds)
    assert cfg.ambient_dim == 6


def test_rna_rejects_impossible_configs():
    with pytest.raises(ConfigurationError):
        gen_rna_kinetics(RnaKineticsConfig(n_genes=4, n_perturbed=5))
    with pytest.raises(ConfigurationError):
        gen_rna_kinetics(RnaKineticsConfig(beta_shift=-1.0))


def test_rna_deterministic():
    cfg = RnaKineticsConfig(n_genes=3, n_per_class=2, n_perturbed=1)
    first, _ = gen_rna_kinetics(cfg)
    second, _ = gen_rna_kinetics(cfg)
    for a, b in zip(first, second):
        npt.assert_array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# density-shift clouds


def test_density_shift_q_matches_closed_form():
    cfg = DensityShiftConfig(kappas=(0.0, 4.0), n_per_class=2, n_points=64)
    clouds, meta = gen_density_shift(cfg)
    assert len(clouds) == 4
    for cloud in clouds:
        npt.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)
    assert meta["task"] == "density-shift"
    assert meta["kappas"] == (0.0, 4.0)
    assert [c.label for c in clouds] == [0, 0, 1, 1]


def test_density_shift_ids_and_determinism():
    cfg = DensityShiftConfig(n_per_class=3, n_points=32)
    clouds, _ = gen_density_shift(cfg)
    assert [c.id for c in clouds] == ["vm0-000", "vm0-001", "vm0-002", "vm1-000", "vm1-001", "vm1-002"]
    again, _ = gen_density_shift(cfg)
    for a, b in zip(clouds, again):
        npt.assert_array_equal(a.points, b.points)


def test_density_shift_clouds_are_von_mises_draws_about_their_own_mode():
    cfg = DensityShiftConfig(kappas=(0.0, 50.0), n_per_class=3, n_points=256, seed=2)
    clouds, _ = gen_density_shift(cfg)
    modes = []
    for cloud in clouds:
        label, i = cloud.label, int(cloud.id[-3:])
        rng = np.random.default_rng([cfg.seed, label, i])
        mode = rng.uniform(0.0, 2.0 * np.pi)
        pts, _ = von_mises_sampler(cfg.n_points, cfg.kappas[label], mode, rng)
        npt.assert_array_equal(cloud.points, pts)
        modes.append(mode)
    # the mode is drawn per cloud, so concentration alone tells the classes apart
    assert len(set(modes)) == len(clouds)
    # a concentrated cloud gathers about its mode: mean resultant length near 1
    resultant = [np.linalg.norm(c.points.mean(axis=0)) for c in clouds]
    assert max(resultant[:3]) < 0.3 < 0.9 < min(resultant[3:])


@pytest.mark.parametrize("kappas", [(2.0,), (0.0, 2.0, 4.0)], ids=["one", "three"])
def test_density_shift_needs_two_kappas(kappas):
    with pytest.raises(ConfigurationError):
        gen_density_shift(DensityShiftConfig(kappas=kappas, n_per_class=1, n_points=8))


def test_rna_config_is_immutable():
    cfg = RnaKineticsConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.noise = 0.2
