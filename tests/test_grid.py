"""Tests for the sparse grid (one slot per bound node) and collider geometry."""

import numpy as np
import pytest

from aulmpm.constitutive import MaterialModel
from aulmpm.errors import OutOfDomainError
from aulmpm.grid import HalfSpace, SparseGrid, SphereObstacle
from aulmpm.kinematics import ConfigurationMap, DeformationState
from aulmpm.transfers import (Body, epoch_grid_terms, finalize_grid, grid_internal_forces,
                              hessian_apply, mass_epsilon, p2g, stress_pass)
from oracles import activate_by_unique, batch, lattice_index, slot_of


def test_activation_is_idempotent_and_returns_stable_slots():
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    nodes = lattice_index(g, [[0, 0], [10, 10], [3, 7], [3, 7]])
    s1 = g.activate(nodes)
    slots_after = g.n_slots
    s2 = g.activate(nodes)
    np.testing.assert_array_equal(s1, s2)
    assert g.n_slots == slots_after
    assert s1[2] == s1[3]
    assert len({s1[0], s1[1], s1[2]}) == 3


def test_inactive_nodes_read_as_zero_mass():
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(12, 12))
    g.activate(lattice_index(g, [[1, 1]]))
    # only the bound node has storage, and it holds no mass until a scatter;
    # its unbound neighbours, like far nodes, have slot -1
    np.testing.assert_array_equal(g.mass, [0.0])
    np.testing.assert_array_equal(slot_of(g, [[1, 1], [2, 2], [1, 2], [9, 9]]), [0, -1, -1, -1])


def test_each_bound_node_gets_one_slot_in_lattice_order():
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    first = np.array([[3, 7], [0, 2], [3, 7], [0, 1]])
    np.testing.assert_array_equal(g.activate(lattice_index(g, first)), [2, 1, 2, 0])
    assert g.n_slots == 3
    g.mass[:] = [1.0, 2.0, 3.0]
    # a later call appends its new nodes in lattice order; earlier slots keep
    # their numbers and their stored values
    later = np.array([[10, 10], [0, 2], [5, 0], [0, 1], [5, 0]])
    np.testing.assert_array_equal(g.activate(lattice_index(g, later)), [4, 1, 3, 0, 3])
    assert g.n_slots == 5
    np.testing.assert_array_equal(slot_of(g, first), [2, 1, 2, 0])
    np.testing.assert_array_equal(g.mass, [1.0, 2.0, 3.0, 0.0, 0.0])
    np.testing.assert_allclose(g.position.T, 0.1 * np.array(
        [[0, 1], [0, 2], [3, 7], [5, 0], [10, 10]]))


def test_node_positions_follow_the_lattice():
    g = SparseGrid(origin=(-0.5, 0.25), dx=0.05, n_cells=(20, 20))
    coords = np.array([[4, 9], [17, 2]])
    slots = g.activate(lattice_index(g, coords))
    np.testing.assert_allclose(g.position.T[slots],
                               np.array([-0.5, 0.25]) + coords * 0.05)


def test_out_of_range_coordinates_are_rejected():
    # the coordinates whose lattice index falls outside the lattice; one
    # past the end along y alone ([0, 11]) names a valid index, and
    # `build_stencil` rejects such supports per axis before any index is
    # formed (tests/test_mls.py)
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    for coords in ([[11, 0]], [[0, -1]], [[-1, 0]]):
        with pytest.raises(OutOfDomainError, match="outside the grid"):
            g.activate(lattice_index(g, coords))
    assert g.n_slots == 0


def test_activate_empty_input_binds_nothing():
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    slots = g.activate(np.empty((0, 9), dtype=np.int64))
    assert slots.shape == (0, 9)
    assert g.n_slots == 0


def test_activate_slots_do_not_depend_on_dtype_or_layout():
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    nodes = lattice_index(g, np.random.default_rng(2).integers(0, 11, size=(200, 2)))
    slots = g.activate(nodes)
    for variant in (nodes.astype(np.int32), np.asfortranarray(nodes.reshape(20, 10))):
        g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
        np.testing.assert_array_equal(g.activate(variant), slots.reshape(variant.shape))


def test_activate_resolves_in_place_and_keeps_the_shape():
    # a binding passes its (S, n) slots buffer as both the indices and
    # `out`; the slots, new nodes included, are the ones a fresh call gives
    nodes = lattice_index(SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10)),
                          np.random.default_rng(5).integers(0, 11, size=(9, 30, 2)))
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    g.activate(nodes[:, :10])
    fresh = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    fresh.activate(nodes[:, :10])
    want = fresh.activate(nodes)
    buf = nodes.copy()
    assert g.activate(buf, out=buf) is buf
    np.testing.assert_array_equal(buf, want)
    np.testing.assert_array_equal(g.position, fresh.position)


def test_activate_matches_the_unique_oracle():
    # a library grid and an oracle grid take the same calls; after each the
    # returned slots, the slot count, the slot table, the node positions
    # and the length of every field agree exactly
    lib, ref = (SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10)) for _ in range(2))
    size, ny = lib._slot.size, lib.n_nodes[1]
    rng = np.random.default_rng(11)
    k = np.arange(3)
    support = (k[:, None] * ny + k).reshape(-1, 1)

    def stencils(lo, hi, m):
        """(S, m) full 3 x 3 supports with base coordinates in [lo, hi)."""
        return lattice_index(lib, rng.integers(lo, hi, size=(m, 2))) + support

    def check(nodes, in_place=False):
        a, b = nodes.copy(order="K"), nodes.copy(order="K")
        got = lib.activate(a, out=a if in_place else None)
        want = activate_by_unique(ref, b, out=b if in_place else None)
        assert got is a or not in_place
        np.testing.assert_array_equal(got, want)
        assert lib.n_slots == ref.n_slots
        np.testing.assert_array_equal(lib._slot, ref._slot)
        np.testing.assert_array_equal(lib.position, ref.position)
        for name, _, _ in lib._fields:
            assert getattr(lib, name).shape[-1] == lib.n_slots

    def bound(m):
        return rng.choice(np.flatnonzero(lib._slot >= 0), m)

    # a first bind of full supports that miss lattice nodes 0 and size - 1
    check(stencils(1, 8, 6))
    # duplicate indices, of bound and of unbound nodes
    some = rng.integers(1, size - 1, 30)
    check(np.concatenate([some, some[::-1], some[:7]]))
    # partly bound; nodes 0 and size - 1 are neither bound nor asked for, so
    # they stay unbound although slot 0 is bound
    assert lib._slot[0] < 0 and lib._slot[-1] < 0 and 0 in lib._slot
    check(np.stack([bound(20), rng.integers(1, size - 1, 20)]))
    assert lib._slot[0] < 0 and lib._slot[-1] < 0
    # the first and last lattice nodes, among bound ones
    check(np.array([size - 1, bound(1)[0], 0, 0, size - 1]))
    # all bound, which binds nothing
    check(bound(25).reshape(5, 5))
    # in place in an (S, m) int64 buffer, as a binding resolves its slots
    check(stencils(0, 9, 12), in_place=True)
    # int32 and Fortran-order input, partly bound
    check(stencils(0, 9, 8).astype(np.int32))
    check(np.asfortranarray(np.concatenate([stencils(0, 9, 8), bound(9)[:, None]], axis=1)))
    # an empty input
    check(np.empty((0, 9), dtype=np.int64))
    assert 0 < lib.n_slots < size


def test_activate_rejects_non_integer_indices():
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    with pytest.raises(TypeError, match="must be integers"):
        g.activate(np.array([3.0]))
    assert g.n_slots == 0


def test_neighbours_read_slots_and_never_wrap():
    # every bound node of a grid whose first and last rows and columns are
    # bound; an oracle by node coordinates: an offset off the lattice or at
    # an unbound node reads n_slots, even where x * ny + y of the offset
    # node is the index of a bound node on the next or previous column
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    edge = [[x, y] for x in range(11) for y in (0, 1, 9, 10)]
    g.activate(lattice_index(g, edge + [[y, x] for x, y in edge] + [[5, 5], [7, 3]]))
    table = g.neighbours()
    assert table.shape == (25, g.n_slots)
    coords = np.rint((g.position.T - g.origin) / g.dx).astype(np.int64)
    for slot, (x, y) in enumerate(coords):
        for column, (dx, dy) in enumerate((a, b) for a in range(-2, 3) for b in range(-2, 3)):
            want = slot_of(g, [[x + dx, y + dy]])[0] if 0 <= x + dx <= 10 and 0 <= y + dy <= 10 else -1
            assert table[column, slot] == (g.n_slots if want < 0 else want), (x, y, dx, dy)


def test_zero_fields_resets_accumulators():
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10),
                   track_positions=True, keep_velocity0=True)
    x = np.array([[0.52, 0.47], [0.31, 0.66]])
    body = Body(material=MaterialModel.fluid(density=1000.0, bulk=10.0), x=x,
                v=np.zeros((2, 2)), m=np.array([2.0, 3.0]), V0=np.ones(2),
                C=np.zeros((2, 2, 2)), state=DeformationState.identity(2),
                cmap=ConfigurationMap.build(x, g))
    epoch_grid_terms([body], g, mass_epsilon([body]))
    s = g.activate(lattice_index(g, [[5, 5]]))
    for acc in (g.momentum, g.momentum0, g.pos_accum):
        acc.T[s] = [1.0, 2.0]
    g.zero_fields()
    # the per-epoch mass survives and still equals a fresh scatter
    fresh = np.bincount(body.cmap.slots.ravel(),
                        (body.m[:, None] * body.cmap.w).ravel(), g.n_slots)
    np.testing.assert_array_equal(g.mass, fresh)
    for acc in (g.momentum, g.momentum0, g.pos_accum):
        np.testing.assert_array_equal(acc.T[s[0]], [0.0, 0.0])


def test_node_vectors_are_component_major():
    # after binds that grow the grid, on a grid that tracks positions and
    # keeps the pre-update velocities, every node vector field, the force
    # and the Hessian product is one C-contiguous (2, n_slots) array
    g = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10),
                   track_positions=True, keep_velocity0=True)
    rng = np.random.default_rng(9)
    mat = MaterialModel.from_youngs("fixed_corotated", density=1000.0, youngs=1e4, poisson=0.3)
    bodies, sizes = [], []
    for lo in (0.25, 0.5):
        x = lo + 0.2 * rng.random((12, 2))
        bodies.append(Body(material=mat, x=x, v=rng.normal(size=(12, 2)),
                           m=np.full(12, 2.5), V0=np.full(12, 2.5e-3),
                           C=np.zeros((2, 2, 12)), state=DeformationState.identity(12),
                           cmap=ConfigurationMap.build(x, g)))
        sizes.append(g.n_slots)
    assert 0 < sizes[0] < sizes[1]
    epoch_grid_terms(bodies, g, mass_epsilon(bodies))
    for body in bodies:
        body.state.F_sn += batch(0.1 * rng.normal(size=(12, 2, 2)))
        stress_pass(body)
        p2g(body, g, 1e-3)
    finalize_grid(g)

    def check(name, a):
        assert a.shape == (2, g.n_slots) and a.dtype == np.float64, name
        assert a.flags.c_contiguous, name

    for name in ("momentum", "velocity", "position", "pos_accum", "current", "momentum0",
                 "velocity0"):
        check(name, getattr(g, name))
    check("forces", grid_internal_forces(bodies[0], g))
    check("hessian", hessian_apply(bodies, rng.normal(size=(2, g.n_slots))))
    check("restricted hessian", hessian_apply(bodies, rng.normal(size=(2, g.n_slots)), g.active))


def test_half_space_distance_and_normal():
    floor = HalfSpace(point=[0.0, 0.2], normal=[0.0, 2.0], mode="sticky")
    x = np.array([[0.5, 0.1], [0.5, 0.5]])
    np.testing.assert_allclose(floor.signed_distance(x), [-0.1, 0.3])
    np.testing.assert_allclose(floor.normal_at(x), [[0.0, 1.0], [0.0, 1.0]])


def test_sphere_obstacle_distance_and_normal():
    ball = SphereObstacle(center=[0.0, 0.0], radius=0.5)
    x = np.array([[0.3, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(ball.signed_distance(x), [-0.2, 0.5])
    np.testing.assert_allclose(ball.normal_at(x), [[1.0, 0.0], [0.0, 1.0]])
