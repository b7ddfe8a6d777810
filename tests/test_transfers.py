import numpy as np
import pytest

from aulmpm import transfers
from aulmpm.constitutive import MaterialModel, energy_and_piola
from aulmpm.grid import HalfSpace, SparseGrid
from aulmpm.kinematics import (KERNEL, LEAST_SQUARES, ConfigurationMap, DeformationState,
                               apply_update)
from aulmpm.transfers import (
    Body,
    epoch_grid_terms,
    explicit_update,
    finalize_grid,
    g2p,
    grid_collisions,
    grid_internal_forces,
    hessian_apply,
    implicit_update,
    mass_epsilon,
    p2g,
    stress_pass,
)
from oracles import slot_of

SOLID = MaterialModel.from_youngs("fixed_corotated", density=1000.0, youngs=1e4, poisson=0.3)


def _grid(dx=0.1, n=10):
    # tracks positions and keeps pre-update velocities: the tests read both
    return SparseGrid(origin=(0.0, 0.0), dx=dx, n_cells=(n, n),
                      track_positions=True, keep_velocity0=True)


def _body(positions, grid, material=SOLID, velocity=None, F_plastic=False,
          transfer=LEAST_SQUARES):
    positions = np.asarray(positions, dtype=np.float64)
    n, d = positions.shape
    V0 = np.full(n, (grid.dx / 2.0) ** d)
    body = Body(
        material=material,
        x=positions.copy(),
        v=np.zeros((n, d)) if velocity is None else np.asarray(velocity, dtype=np.float64).copy(),
        m=material.density * V0,
        V0=V0,
        C=np.zeros((n, d, d)),
        state=DeformationState.identity(n),
        cmap=ConfigurationMap.build(positions, grid, transfer=transfer),
        F_plastic=np.tile(np.eye(d), (n, 1, 1)) if F_plastic else None,
    )
    return body


def _cloud(rng, n=40, lo=0.25, hi=0.75):
    return lo + (hi - lo) * rng.random((n, 2))


def test_single_particle_mass_pattern():
    grid = _grid()
    body = _body([[0.5, 0.5]], grid)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    p2g(body, grid)
    center = grid.mass[slot_of(grid, [[5, 5]])[0]]
    edge = grid.mass[slot_of(grid, [[6, 5]])[0]]
    corner = grid.mass[slot_of(grid, [[6, 6]])[0]]
    m = body.m[0]
    assert np.isclose(center, 0.5625 * m, rtol=1e-14)
    assert np.isclose(edge, 0.09375 * m, rtol=1e-14)
    assert np.isclose(corner, 0.015625 * m, rtol=1e-14)
    assert np.isclose(grid.mass.sum(), m, rtol=1e-14)


def test_p2g_conserves_mass_and_momentum():
    rng = np.random.default_rng(3)
    grid = _grid()
    body = _body(_cloud(rng), grid, velocity=rng.normal(size=(40, 2)))
    body.C = rng.normal(size=(40, 2, 2))
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    p2g(body, grid)
    assert np.isclose(grid.mass.sum(), body.m.sum(), rtol=1e-13)
    # the affine term has zero first moment, so it adds no net momentum
    np.testing.assert_allclose(
        grid.momentum.sum(axis=0), (body.m[:, None] * body.v).sum(axis=0),
        rtol=1e-12, atol=1e-14)


def test_p2g_g2p_roundtrip_conserves_momentum():
    rng = np.random.default_rng(4)
    grid = _grid()
    body = _body(_cloud(rng), grid, velocity=rng.normal(size=(40, 2)))
    before = (body.m[:, None] * body.v).sum(axis=0)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    p2g(body, grid)
    finalize_grid(grid)
    g2p(body, grid, dt=0.0)
    after = (body.m[:, None] * body.v).sum(axis=0)
    np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-15)


def test_rasterized_positions_single_particle():
    grid = _grid()
    body = _body([[0.52, 0.47]], grid)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    p2g(body, grid)
    finalize_grid(grid)
    assert grid.active.sum() == 9
    np.testing.assert_allclose(
        grid.current[grid.active], np.tile([0.52, 0.47], (9, 1)), atol=1e-14)


def test_node_positions_are_mass_averages():
    # a light and a heavy body share nodes: each active node sits at the
    # mass-weighted mean of the positions scattered to it
    rng = np.random.default_rng(21)
    grid = _grid()
    light = _body(0.42 + 0.12 * rng.random((6, 2)), grid)
    heavy = _body(0.42 + 0.12 * rng.random((5, 2)), grid)
    heavy.m *= 7.0
    bodies = [light, heavy]
    epoch_grid_terms(bodies, grid, mass_epsilon(bodies))
    for b in bodies:
        p2g(b, grid)
    finalize_grid(grid)
    mwx, mw = np.zeros((grid.n_slots, 2)), np.zeros(grid.n_slots)
    for b in bodies:
        slots, w = b.cmap.slots, b.cmap.w
        np.add.at(mw, slots, b.m[:, None] * w)
        np.add.at(mwx, slots, (b.m[:, None] * w)[..., None] * b.x[:, None, :])
    shared = np.intersect1d(light.cmap.slots, heavy.cmap.slots)
    assert shared.size > 0 and grid.active[shared].all()
    act = grid.active
    np.testing.assert_allclose(grid.current[act], mwx[act] / mw[act, None], rtol=0.0, atol=1e-14)


def test_g2p_recovers_affine_field():
    rng = np.random.default_rng(5)
    grid = _grid()
    body = _body(_cloud(rng), grid)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    p2g(body, grid)
    finalize_grid(grid)
    B = np.array([[0.3, -1.1], [0.7, 0.2]])
    c = np.array([0.4, -0.9])
    grid.velocity[:] = grid.position @ B.T + c
    x0 = body.x.copy()
    g2p(body, grid, dt=0.0)
    np.testing.assert_allclose(body.v, x0 @ B.T + c, atol=1e-12)
    np.testing.assert_allclose(body.C, np.tile(B, (body.n, 1, 1)), atol=1e-10)


def _total_energy(body, dF_sn):
    F_sn = body.state.F_sn + dF_sn
    F_total = np.einsum("nab,nbc->nac", F_sn, body.state.F_0s)
    if body.F_plastic is not None:
        Fp_inv = np.linalg.inv(body.F_plastic)
        Fe = np.einsum("nab,nbc->nac", F_total, Fp_inv)
        ss = energy_and_piola(Fe, body.material, np.linalg.det(body.F_plastic))
    else:
        ss = energy_and_piola(F_total, body.material)
    return float(np.sum(body.V0 * ss.energy))


def _forces(body, grid):
    stress_pass(body)
    return grid_internal_forces(body, grid)


_KINDS = ["solid", "solid_mid_epoch", "fluid", "snow"]
# one fixed seed per kind, so every run draws the same clouds and deformations
_SEEDS = {"solid": 101, "solid_mid_epoch": 102, "fluid": 103, "snow": 104}


@pytest.mark.parametrize(
    "kind, transfer",
    [(k, LEAST_SQUARES) for k in _KINDS] + [(k, KERNEL) for k in _KINDS],
    ids=_KINDS + [f"{k}-{KERNEL}" for k in _KINDS])
def test_forces_are_energy_gradient(kind, transfer):
    rng = np.random.default_rng(_SEEDS[kind])
    grid = _grid()
    if kind == "fluid":
        mat = MaterialModel.fluid(density=1000.0, bulk=100.0)
        body = _body(_cloud(rng), grid, material=mat, transfer=transfer)
        body.state.F_sn += 0.1 * rng.normal(size=body.state.F_sn.shape)
    elif kind == "snow":
        mat = MaterialModel.from_youngs("snow", density=400.0, youngs=1e4, poisson=0.2)
        body = _body(_cloud(rng), grid, material=mat, F_plastic=True, transfer=transfer)
        body.F_plastic += np.einsum(
            "ab,n->nab", np.eye(2), 0.02 * rng.standard_normal(body.n))
        body.state.F_sn += 0.05 * rng.normal(size=body.state.F_sn.shape)
    else:
        body = _body(_cloud(rng), grid, material=SOLID, transfer=transfer)
        body.state.F_sn += 0.1 * rng.normal(size=body.state.F_sn.shape)
        if kind == "solid_mid_epoch":
            body.state.F_0s += 0.2 * rng.normal(size=body.state.F_0s.shape)
            assert np.all(np.linalg.det(body.state.F_0s) > 0.1)
    f = _forces(body, grid)
    u = rng.normal(size=f.shape)
    dF_dir = np.einsum("nsa,nsb->nab", u[body.cmap.slots], body.cmap.G)
    h = 1e-6
    dU = (_total_energy(body, h * dF_dir) - _total_energy(body, -h * dF_dir)) / (2 * h)
    work = float(np.sum(f * u))
    assert np.isclose(work, -dU, rtol=1e-6, atol=1e-12)


_FUSED = ["solid", "fluid", "snow"]


@pytest.mark.parametrize(
    "kind, transfer",
    [(k, LEAST_SQUARES) for k in _FUSED] + [(k, KERNEL) for k in _FUSED],
    ids=_FUSED + [f"{k}-{KERNEL}" for k in _FUSED])
def test_fused_scatter_equals_momentum_plus_impulse(kind, transfer):
    # p2g(body, grid, dt) deposits in one scatter what p2g(body, grid) and
    # dt * grid_internal_forces deposit in two, at a non-identity F_0s left
    # by a rebind
    rng = np.random.default_rng(_SEEDS[kind])
    grid = _grid()
    mat = {"solid": SOLID, "fluid": MaterialModel.fluid(density=1000.0, bulk=100.0),
           "snow": MaterialModel.from_youngs("snow", density=400.0, youngs=1e4,
                                             poisson=0.2)}[kind]
    body = _body(_cloud(rng), grid, material=mat, velocity=rng.normal(size=(40, 2)),
                 F_plastic=kind == "snow", transfer=transfer)
    body.C = rng.normal(size=(body.n, 2, 2))
    body.state.F_sn += 0.1 * rng.normal(size=body.state.F_sn.shape)
    body.x += 0.01 * rng.normal(size=body.x.shape)
    body.cmap = apply_update(body.state, body.x, grid, body.cmap)
    body.state.F_sn += 0.1 * rng.normal(size=body.state.F_sn.shape)
    if kind == "snow":
        body.F_plastic += np.einsum("ab,n->nab", np.eye(2), 0.02 * rng.standard_normal(body.n))
    assert np.abs(body.state.F_0s - np.eye(2)).max() > 0.05
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    stress_pass(body)
    p2g(body, grid)
    f = grid_internal_forces(body, grid)
    # a step at which the impulse is as large as the momentum
    dt = np.abs(grid.momentum).max() / np.abs(f).max()
    two_pass = grid.momentum + dt * f
    scale = (np.abs(grid.momentum) + dt * np.abs(f)).max()
    grid.zero_fields()
    p2g(body, grid, dt)
    gap = np.abs(grid.momentum - two_pass).max()
    assert gap <= 1e-14 * scale, gap / scale


def test_finalize_grid_is_idempotent():
    # finalize_grid reads only the accumulators: a second call leaves every
    # grid field bitwise as the first left it
    rng = np.random.default_rng(29)
    grid = _grid()
    body = _body(_cloud(rng), grid, velocity=rng.normal(size=(40, 2)), transfer=KERNEL)
    body.state.F_sn += 0.1 * rng.normal(size=body.state.F_sn.shape)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    stress_pass(body)
    p2g(body, grid, 1e-3)
    finalize_grid(grid)
    once = {k: v.copy() for k, v in vars(grid).items() if isinstance(v, np.ndarray)}
    assert np.abs(grid.velocity0).max() > 0.0
    finalize_grid(grid)
    for name, want in once.items():
        assert getattr(grid, name).tobytes() == want.tobytes(), name


def test_kernel_grid_keeps_the_velocities_before_the_impulse():
    # FLIP's pre-update velocities come from the plain momentum, not from
    # the one that carries dt f: bitwise the velocities p2g gives without
    # dt, and below the updated ones by dt f / m on the active nodes
    rng = np.random.default_rng(17)
    grid = _grid()
    body = _body(_cloud(rng), grid, velocity=rng.normal(size=(40, 2)), transfer=KERNEL)
    body.state.F_sn += 0.1 * rng.normal(size=body.state.F_sn.shape)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    stress_pass(body)
    p2g(body, grid)
    finalize_grid(grid)
    plain = grid.velocity.copy()
    f = grid_internal_forces(body, grid)
    act = grid.active
    # a step at which the impulse is as large as the momentum
    dt = np.abs(grid.momentum).max() / np.abs(f).max()
    grid.zero_fields()
    p2g(body, grid, dt)
    finalize_grid(grid)
    assert grid.velocity0.tobytes() == plain.tobytes()
    impulse = dt * f[act] / grid.mass[act, None]
    assert np.abs(impulse).max() > 0.1 * np.abs(plain).max()
    gap = np.abs(grid.velocity[act] - grid.velocity0[act] - impulse).max()
    scale = np.abs(grid.velocity).max() + np.abs(plain).max()
    assert gap <= 1e-14 * scale, gap / scale


@pytest.mark.parametrize("transfer", [LEAST_SQUARES, KERNEL])
def test_internal_forces_sum_to_zero(transfer):
    rng = np.random.default_rng(11)
    grid = _grid()
    body = _body(_cloud(rng), grid, transfer=transfer)
    body.state.F_sn += 0.2 * rng.normal(size=body.state.F_sn.shape)
    f = _forces(body, grid)
    scale = np.abs(f).max()
    np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-12 * max(scale, 1.0))


def test_rotation_produces_no_force():
    grid = _grid()
    body = _body([[0.45, 0.5], [0.55, 0.5], [0.5, 0.58]], grid)
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    body.state.F_sn[:] = R
    f = _forces(body, grid)
    assert np.abs(f).max() < 1e-9


@pytest.mark.parametrize("transfer", [LEAST_SQUARES, KERNEL])
def test_hessian_matches_force_differences(transfer):
    rng = np.random.default_rng(12)
    grid = _grid()
    body = _body(_cloud(rng, n=15), grid, transfer=transfer)
    body.state.F_sn += 0.1 * rng.normal(size=body.state.F_sn.shape)
    body.state.F_0s += 0.1 * rng.normal(size=body.state.F_0s.shape)
    stress_pass(body)
    u = rng.normal(size=(grid.n_slots, 2))
    hu = hessian_apply([body], u)

    h = 1e-6
    dF_sn_dir = np.einsum("nsa,nsb->nab", u[body.cmap.slots], body.cmap.G)
    saved = body.state.F_sn.copy()
    body.state.F_sn = saved + h * dF_sn_dir
    f_plus = _forces(body, grid)
    body.state.F_sn = saved - h * dF_sn_dir
    f_minus = _forces(body, grid)
    body.state.F_sn = saved
    stress_pass(body)
    fd = -(f_plus - f_minus) / (2 * h)
    np.testing.assert_allclose(hu, fd, rtol=1e-5, atol=1e-7 * np.abs(fd).max())


def test_hessian_operator_is_symmetric():
    rng = np.random.default_rng(13)
    grid = _grid()
    body = _body(_cloud(rng, n=20), grid)
    body.state.F_sn += 0.15 * rng.normal(size=body.state.F_sn.shape)
    stress_pass(body)
    u = rng.normal(size=(grid.n_slots, 2))
    w = rng.normal(size=(grid.n_slots, 2))
    left = float(np.vdot(w, hessian_apply([body], u)))
    right = float(np.vdot(u, hessian_apply([body], w)))
    assert np.isclose(left, right, rtol=1e-10)


def _one_velocity_update(positions, velocities, dt, implicit):
    grid = _grid()
    body = _body(positions, grid, velocity=velocities)
    eps = mass_epsilon([body])
    epoch_grid_terms([body], grid, eps)
    stress_pass(body)
    p2g(body, grid, dt)
    finalize_grid(grid)
    g = np.zeros(2)
    if implicit:
        info = implicit_update([body], grid, dt, g)
        assert info["converged"]
    else:
        explicit_update(grid, dt, g)
    return grid.velocity.copy()


def test_implicit_matches_explicit_to_second_order(monkeypatch):
    monkeypatch.setattr(transfers, "CG_TOL", 1e-12)
    rng = np.random.default_rng(14)
    pos = _cloud(rng, n=30, lo=0.35, hi=0.65)
    vel = -0.8 * (pos - 0.5)
    errs = []
    for dt in (2e-3, 1e-3):
        ve = _one_velocity_update(pos, vel, dt, implicit=False)
        vi = _one_velocity_update(pos, vel, dt, implicit=True)
        errs.append(np.abs(vi - ve).max())
    order = np.log2(errs[0] / errs[1])
    assert errs[0] > 0
    assert order > 1.8


def test_implicit_zero_stiffness_is_free():
    rng = np.random.default_rng(15)
    grid = _grid()
    soft = MaterialModel.from_youngs("fixed_corotated", density=1000.0, youngs=0.0, poisson=0.3)
    body = _body(_cloud(rng), grid, material=soft, velocity=rng.normal(size=(40, 2)))
    eps = mass_epsilon([body])
    epoch_grid_terms([body], grid, eps)
    stress_pass(body)
    p2g(body, grid, 1e-3)
    finalize_grid(grid)
    before = grid.velocity.copy()
    info = implicit_update([body], grid, 1e-3, np.zeros(2))
    assert info["iterations"] <= 2
    np.testing.assert_allclose(grid.velocity, before, atol=1e-13)


def test_implicit_falls_back_when_indefinite():
    grid = _grid()
    stiff = MaterialModel.from_youngs("fixed_corotated", density=1.0, youngs=1e6, poisson=0.45)
    body = _body([[0.5, 0.5], [0.53, 0.5]], grid, material=stiff,
                 velocity=[[1.0, 0.0], [-1.0, 0.0]])
    body.state.F_sn[:] = 0.05 * np.eye(2)
    eps = mass_epsilon([body])
    epoch_grid_terms([body], grid, eps)
    stress_pass(body)
    p2g(body, grid, 10.0)
    finalize_grid(grid)
    info = implicit_update([body], grid, 10.0, np.zeros(2))
    assert info["fallback"]


def test_explicit_update_applies_gravity_only_to_massive_nodes():
    grid = _grid()
    body = _body([[0.5, 0.5]], grid)
    eps = mass_epsilon([body])
    epoch_grid_terms([body], grid, eps)
    p2g(body, grid)
    finalize_grid(grid)
    explicit_update(grid, 0.1, np.array([0.0, -10.0]))
    act = grid.mass > eps
    np.testing.assert_allclose(grid.velocity[act, 1], -1.0, atol=1e-13)
    np.testing.assert_allclose(grid.velocity[~act], 0.0, atol=0.0)


def test_slip_collision_removes_normal_component():
    grid = _grid()
    body = _body([[0.5, 0.12]], grid, velocity=[[0.4, -2.0]])
    eps = mass_epsilon([body])
    epoch_grid_terms([body], grid, eps)
    p2g(body, grid)
    finalize_grid(grid)
    floor = HalfSpace(point=[0.0, 0.15], normal=[0.0, 1.0], mode="slip")
    touched = grid_collisions(grid, [floor], dt=0.05)
    assert touched > 0
    act = grid.mass > eps
    assert grid.velocity[act, 1].min() >= -1e-14
    assert np.allclose(grid.velocity[act, 0], 0.4)


def test_sticky_collision_pins_to_collider_velocity():
    grid = _grid()
    body = _body([[0.5, 0.12]], grid, velocity=[[0.4, -2.0]])
    eps = mass_epsilon([body])
    epoch_grid_terms([body], grid, eps)
    p2g(body, grid)
    finalize_grid(grid)
    floor = HalfSpace(point=[0.0, 0.15], normal=[0.0, 1.0], mode="sticky")
    grid_collisions(grid, [floor], dt=0.05)
    act = grid.mass > eps
    inside = (grid.current[act, 1] + 0.05 * grid.velocity0[act, 1]) < 0.15
    assert inside.any()
    np.testing.assert_allclose(grid.velocity[act][inside], 0.0, atol=1e-14)


def test_separating_nodes_are_left_alone():
    grid = _grid()
    body = _body([[0.5, 0.12]], grid, velocity=[[0.0, 3.0]])
    eps = mass_epsilon([body])
    epoch_grid_terms([body], grid, eps)
    p2g(body, grid)
    finalize_grid(grid)
    before = grid.velocity.copy()
    floor = HalfSpace(point=[0.0, 0.5], normal=[0.0, 1.0], mode="slip")
    touched = grid_collisions(grid, [floor], dt=0.01)
    assert touched == 0
    np.testing.assert_allclose(grid.velocity, before, atol=0.0)


def test_kernel_path_translates_exactly():
    rng = np.random.default_rng(16)
    grid = _grid()
    body = _body(_cloud(rng), grid, velocity=np.tile([0.3, -0.2], (40, 1)), transfer=KERNEL)
    body.C = rng.normal(size=(40, 2, 2))  # a kernel binding scatters no affine momentum
    eps = mass_epsilon([body])
    x0 = body.x.copy()
    epoch_grid_terms([body], grid, eps)
    p2g(body, grid)
    finalize_grid(grid)
    g2p(body, grid, dt=0.01)
    np.testing.assert_allclose(body.v, np.tile([0.3, -0.2], (40, 1)), atol=1e-12)
    np.testing.assert_allclose(body.x, x0 + 0.01 * np.array([0.3, -0.2]), atol=1e-12)
    np.testing.assert_allclose(body.C, 0.0, atol=1e-10)
