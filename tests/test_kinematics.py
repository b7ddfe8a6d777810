"""Tests for deformation bookkeeping and the rebinding criterion.

The accumulation tests use an independent reference: the product of the
per-step increments is recomputed in the test with plain matmuls, so any
bookkeeping error in the split F_total = F_sn F_0s shows up as a mismatch.
Deformation factors are the library's (2, 2, n) batches: matrix p is
[..., p].
"""

import copy

import numpy as np
import pytest

from aulmpm import kinematics
from aulmpm.errors import OutOfDomainError
from aulmpm.grid import SparseGrid
from aulmpm.kinematics import (
    KERNEL,
    ConfigurationMap,
    DeformationState,
    UpdatePolicy,
    advance_F_sn,
    apply_update,
    compose_total,
    contract,
    deformation_delta,
    should_update,
)
from aulmpm.mls import gradient_weights, moment_matrix
from oracles import batch, lattice_index, slot_of, stencil, stencil_coords, stencil_offsets

EYE = np.eye(2)[:, :, None]
COMPOSE_RTOL = 1e-12
ACCUM_RTOL = 1e-12
AFFINE_ATOL = 1e-10


def _grid(n_cells=32, dx=1.0 / 32.0):
    return SparseGrid(origin=(0.0, 0.0), dx=dx, n_cells=(n_cells, n_cells))


# -------------------------------------------------------------- composition


def test_compose_total_multiplies_in_map_order():
    state = DeformationState.identity(1)
    state.F_0s[..., 0] = [[2.0, 0.0], [0.0, 1.0]]   # applied first
    state.F_sn[..., 0] = [[1.0, 0.5], [0.0, 1.0]]   # applied second
    expect = np.array([[1.0, 0.5], [0.0, 1.0]]) @ np.array([[2.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(compose_total(state)[..., 0], expect, rtol=COMPOSE_RTOL)


def test_deformation_delta_measures_volume_change_since_binding():
    state = DeformationState.identity(3)
    state.F_sn[..., 1] = [[1.2, 0.0], [0.0, 1.0]]
    state.F_sn[..., 2] = [[0.0, 1.0], [-1.0, 0.0]]  # rotation, det = 1
    np.testing.assert_allclose(deformation_delta(state), [0.0, 0.2, 0.0], atol=1e-14)


def test_update_policy_validation_and_trigger_edges():
    with pytest.raises(ValueError):
        UpdatePolicy(epsilon=-1.0, eta=0.1)
    with pytest.raises(ValueError):
        UpdatePolicy(epsilon=0.1, eta=1.5)

    delta = np.array([0.0, 0.05, 0.4])
    marked, fire = should_update(delta, UpdatePolicy(epsilon=0.0, eta=0.0))
    assert marked == 3 and fire  # epsilon 0 marks everything, eta 0 always fires
    marked, fire = should_update(delta, UpdatePolicy(epsilon=1e9, eta=0.0))
    assert marked == 0 and fire  # eta 0 fires regardless of markings
    marked, fire = should_update(delta, UpdatePolicy.solid())
    assert marked == 0 and not fire
    marked, fire = should_update(delta, UpdatePolicy(epsilon=0.04, eta=0.5))
    assert marked == 2 and fire


# -------------------------------------------------------------- accumulation


def test_accumulation_is_independent_of_rebinding_schedule():
    # drive with a fixed sequence of spatial velocity gradients; the run that
    # folds F_sn into F_0s every 7 steps must reproduce the plain product
    rng = np.random.default_rng(5)
    dt = 1e-3
    n_steps = 100
    Ls = rng.normal(scale=2.0, size=(n_steps, 2, 2))

    ref = np.eye(2)
    for L in Ls:
        ref = (np.eye(2) + dt * L) @ ref

    folding = DeformationState.identity(1)
    plain = DeformationState.identity(1)
    for k, L in enumerate(Ls):
        for state in (folding, plain):
            grad = np.einsum("ab,bcn->acn", L, state.F_sn)
            advance_F_sn(state, grad, dt)
        if (k + 1) % 7 == 0:
            folding.F_0s = compose_total(folding)
            folding.F_sn = np.broadcast_to(EYE, folding.F_sn.shape).copy()

    np.testing.assert_allclose(compose_total(plain)[..., 0], ref, rtol=ACCUM_RTOL)
    np.testing.assert_allclose(compose_total(folding)[..., 0], ref, rtol=ACCUM_RTOL)
    np.testing.assert_allclose(compose_total(folding), compose_total(plain),
                               rtol=ACCUM_RTOL)


def test_advance_reports_inverted_elements():
    state = DeformationState.identity(2)
    grad = np.zeros((2, 2, 2))
    grad[..., 0] = [[-3.0, 0.0], [0.0, 0.0]]  # drives det negative at dt = 1
    assert advance_F_sn(state, grad, 1.0) == 1


# ------------------------------------------------------------------ binding


def test_configuration_map_binds_reference_geometry():
    grid = _grid()
    rng = np.random.default_rng(2)
    pos = rng.uniform(0.2, 0.8, size=(40, 2))
    cmap = ConfigurationMap.build(pos, grid)
    assert cmap.epoch == 0
    np.testing.assert_allclose(cmap.ref_positions, pos)
    # bound slots agree with the grid's own lookup of the stencil's nodes
    stack, base, offsets = stencil(pos, grid.origin, grid.dx, grid.n_nodes, gradients=False)
    nodes = stencil_coords(base)
    np.testing.assert_array_equal(
        cmap.slots, slot_of(grid, nodes.reshape(-1, 2)).reshape(cmap.slots.shape))
    np.testing.assert_allclose(cmap.ref_positions[:, None] + stencil_offsets(offsets),
                               grid.position.T[cmap.slots], atol=1e-14)
    np.testing.assert_array_equal(cmap.w, stack[2].T)


def test_velocity_gradient_recovers_affine_grid_fields():
    grid = _grid()
    rng = np.random.default_rng(9)
    pos = rng.uniform(0.2, 0.8, size=(200, 2))
    cmap = ConfigurationMap.build(pos, grid)
    B = np.array([[0.4, -1.1], [0.9, 0.2]])
    c = np.array([0.3, -0.2])
    v_nodes = grid.position.T[cmap.slots] @ B.T + c
    grad = contract(v_nodes.T, cmap.G.T)
    np.testing.assert_allclose(grad, np.broadcast_to(B[:, :, None], grad.shape),
                               atol=AFFINE_ATOL)


def test_binding_carries_the_gradient_weights_of_its_transfer():
    grid = _grid()
    rng = np.random.default_rng(14)
    pos = rng.uniform(0.3, 0.7, size=(25, 2))
    stack, _, _ = stencil(pos, grid.origin, grid.dx, grid.n_nodes)
    kernel = ConfigurationMap.build(pos, grid, transfer=KERNEL)
    np.testing.assert_array_equal(kernel.G, stack[:2].T)
    mls = ConfigurationMap.build(pos, grid)
    stack, _, offsets = stencil(pos, grid.origin, grid.dx, grid.n_nodes, gradients=False)
    gradient_weights(offsets, stack, moment_matrix(grid.dx))
    np.testing.assert_array_equal(mls.G, stack[:2].T)
    # spline gradients reproduce affine velocity fields too
    B = np.array([[0.4, -1.1], [0.9, 0.2]])
    v_nodes = grid.position.T[kernel.slots] @ B.T + [0.3, -0.2]
    grad = contract(v_nodes.T, kernel.G.T)
    np.testing.assert_allclose(grad, np.broadcast_to(B[:, :, None], grad.shape),
                               atol=AFFINE_ATOL)
    rebound = apply_update(DeformationState.identity(25), pos + 0.05, grid, kernel)
    assert rebound.transfer == KERNEL
    moved, _, _ = stencil(pos + 0.05, grid.origin, grid.dx, grid.n_nodes)
    np.testing.assert_array_equal(rebound.G, moved[:2].T)
    with pytest.raises(ValueError, match="unknown transfer"):
        ConfigurationMap.build(pos, grid, transfer="pic")


@pytest.mark.parametrize("transfer", ["least_squares", KERNEL])
def test_binding_holds_weights_gradients_and_slots(transfer):
    # the binding keeps w, G and slots, not the stencil it was built from
    grid = _grid()
    pos = np.random.default_rng(17).uniform(0.3, 0.7, size=(40, 2))
    cmap = ConfigurationMap.build(pos, grid, transfer=transfer)
    stack, base, offsets = stencil(pos, grid.origin, grid.dx, grid.n_nodes,
                                   gradients=transfer == KERNEL)
    if transfer != KERNEL:
        gradient_weights(offsets, stack, moment_matrix(grid.dx))
    assert not hasattr(cmap, "stencil") and not hasattr(cmap, "r")
    assert cmap.w.shape == cmap.slots.shape == (40, 9) and cmap.G.shape == (40, 9, 2)
    # stored entry-major: w and G are views of one C-contiguous (3, S, n)
    # stack [G_x, G_y, w], and slots of an (S, n) buffer, so every per-entry
    # pass runs over the particle axis
    assert cmap.stack.shape == (3, 9, 40) and cmap.stack.flags.c_contiguous
    for public, row in ((cmap.G.T, cmap.stack[:2]), (cmap.w.T, cmap.stack[2])):
        assert (public.shape, public.strides) == (row.shape, row.strides)
        assert public.ctypes.data == row.ctypes.data
    assert cmap.slots.T.base is not None and cmap.slots.T.flags.c_contiguous
    np.testing.assert_array_equal(cmap.w, stack[2].T)
    np.testing.assert_array_equal(cmap.G, stack[:2].T)
    # each slot holds the node the stencil entry names
    np.testing.assert_array_equal(grid.position.T[cmap.slots],
                                  grid.origin + stencil_coords(base) * grid.dx)


def test_binding_calls_the_mls_names_once_per_least_squares_build(monkeypatch):
    # perfbench times ConfigurationMap.build's calls to these two names; a
    # least-squares build or rebind calls each once, a kernel build neither
    calls = {"moment_matrix": 0, "gradient_weights": 0}
    for name in calls:
        inner = getattr(kinematics, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(kinematics, name, counted)
    grid = _grid()
    pos = np.random.default_rng(15).uniform(0.3, 0.7, size=(25, 2))
    cmap = ConfigurationMap.build(pos, grid)
    assert calls == {"moment_matrix": 1, "gradient_weights": 1}
    apply_update(DeformationState.identity(25), pos + 0.05, grid, cmap)
    assert calls == {"moment_matrix": 2, "gradient_weights": 2}
    ConfigurationMap.build(pos, grid, transfer=KERNEL)
    assert calls == {"moment_matrix": 2, "gradient_weights": 2}


def test_apply_update_folds_and_rebinds():
    grid = _grid()
    rng = np.random.default_rng(13)
    pos = rng.uniform(0.3, 0.7, size=(25, 2))
    cmap = ConfigurationMap.build(pos, grid)
    state = DeformationState.identity(25)
    state.F_sn = np.broadcast_to(np.array([[1.1, 0.2], [0.0, 0.9]])[:, :, None],
                                 (2, 2, 25)).copy()
    total_before = compose_total(state)

    moved = pos + 0.05
    new_map = apply_update(state, moved, grid, cmap)

    assert new_map.epoch == cmap.epoch + 1
    np.testing.assert_allclose(new_map.ref_positions, moved)
    np.testing.assert_allclose(state.F_sn, np.broadcast_to(EYE, (2, 2, 25)))
    np.testing.assert_allclose(compose_total(state), total_before, rtol=1e-15)


@pytest.mark.parametrize("transfer", ["least_squares", KERNEL])
def test_rebind_refills_the_old_binding_as_a_fresh_build(transfer):
    # a rebind writes into the old map's stack, slots and workspace, and
    # gives bitwise what a fresh build gives at the same positions on a copy
    # of the grid; the first move (a contraction) binds no new node, the
    # second binds some, appended in lattice order
    grid = _grid()
    pos = np.random.default_rng(21).uniform(0.3, 0.5, size=(60, 2))
    cmap = ConfigurationMap.build(pos, grid, transfer=transfer)
    stack, slots, work = cmap.stack, cmap.slots.base, cmap.work
    # a fresh build allocates the workspace with the stack
    assert work.shape == (2, 9, 60) and work.dtype == np.float64 and work.flags.c_contiguous
    state = DeformationState.identity(60)
    for moved, grows in ((0.4 + 0.9 * (pos - 0.4), False), (pos + 0.25, True)):
        copied = copy.deepcopy(grid)
        fresh = ConfigurationMap.build(moved, copied, transfer=transfer)
        before = grid.n_slots
        old = cmap
        cmap = apply_update(state, moved, grid, old)
        assert (grid.n_slots > before) == grows
        for name in ("stack", "slots", "w", "G"):
            assert getattr(cmap, name).tobytes() == getattr(fresh, name).tobytes(), name
        np.testing.assert_array_equal(grid.position, copied.position)
        assert cmap.stack is stack and cmap.slots.base is slots and cmap.work is work
        assert old.epoch == cmap.epoch - 1
        assert old.stack is None and old.slots is None and old.work is None
    # the appended nodes, all bound by the last rebind, in lattice order
    coords = np.rint((grid.position.T[before:] - grid.origin) / grid.dx)
    assert (np.diff(lattice_index(grid, coords)) > 0).all()
    assert set(range(before, grid.n_slots)) <= set(cmap.slots.ravel().tolist())


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_apply_update_folds_in_place():
    # F_0s takes the product bit for bit, F_sn becomes exactly the identity,
    # and both stay in the buffers they were in
    grid = _grid()
    rng = np.random.default_rng(31)
    pos = rng.uniform(0.3, 0.7, size=(50, 2))
    cmap = ConfigurationMap.build(pos, grid)
    state = DeformationState.identity(50)
    for _ in range(3):
        advance_F_sn(state, batch(rng.normal(scale=2.0, size=(50, 2, 2))), 0.1)
    state.F_0s[:] = state.F_sn
    advance_F_sn(state, batch(rng.normal(scale=2.0, size=(50, 2, 2))), 0.1)
    F_0s, F_sn = state.F_0s, state.F_sn
    total = compose_total(state)
    apply_update(state, pos + 0.01, grid, cmap)
    assert state.F_0s is F_0s and state.F_sn is F_sn
    assert np.shares_memory(state.F_0s, F_0s) and np.shares_memory(state.F_sn, F_sn)
    np.testing.assert_array_equal(_bits(state.F_0s), _bits(total))
    np.testing.assert_array_equal(_bits(state.F_sn), _bits(np.broadcast_to(EYE, F_sn.shape)))


@pytest.mark.parametrize("transfer", ["least_squares", KERNEL])
def test_build_through_the_workspace_matches_a_fresh_build(transfer):
    # the per-axis pieces go through the old map's workspace, whatever it
    # holds; the stack (and a least-squares G) equals a build into fresh
    # buffers bit for bit, and a center outside the domain raises before
    # the stack is written, leaving the old map its arrays
    grid = _grid()
    pos = np.random.default_rng(33).uniform(0.3, 0.7, size=(40, 2))
    cmap = ConfigurationMap.build(pos, grid, transfer=transfer)
    moved = pos + 0.02
    stack, _, offsets = stencil(moved, grid.origin, grid.dx, grid.n_nodes,
                                gradients=transfer == KERNEL)
    if transfer != KERNEL:
        gradient_weights(offsets, stack, moment_matrix(grid.dx))
    cmap.work[...] = np.nan
    cmap.stack[...] = np.inf
    rebound = ConfigurationMap.build(moved, grid, 1, transfer, reuse=cmap)
    assert rebound.stack.tobytes() == stack.tobytes()
    assert rebound.G.tobytes() == stack[:2].T.tobytes()

    before = rebound.stack.tobytes()
    held = (rebound.stack, rebound.slots, rebound.work, rebound.ref_positions)
    outside = moved.copy()
    outside[7] = [0.5, 1.0]
    with pytest.raises(OutOfDomainError, match=r"first indices \[7\]"):
        ConfigurationMap.build(outside, grid, 2, transfer, reuse=rebound)
    assert rebound.stack.tobytes() == before
    assert all(a is b for a, b in zip(
        (rebound.stack, rebound.slots, rebound.work, rebound.ref_positions), held))


def test_reuse_of_another_particle_count_is_rejected_before_the_handover():
    grid = _grid()
    pos = np.random.default_rng(35).uniform(0.3, 0.7, size=(30, 2))
    cmap = ConfigurationMap.build(pos, grid)
    held = (cmap.stack, cmap.slots, cmap.work, cmap.ref_positions)
    before = [a.tobytes() for a in held]
    with pytest.raises(ValueError, match="cannot rebind 29 particles into a binding of 30"):
        ConfigurationMap.build(pos[:29], grid, reuse=cmap)
    now = (cmap.stack, cmap.slots, cmap.work, cmap.ref_positions)
    assert all(a is b for a, b in zip(now, held))
    assert [a.tobytes() for a in now] == before
