"""Tests for the sparse grid (one slot per bound node) and collider geometry."""

import numpy as np
import pytest

from aulmpm.constitutive import MaterialModel
from aulmpm.errors import OutOfDomainError
from aulmpm.grid import HalfSpace, SparseGrid, SphereObstacle
from aulmpm.kinematics import ConfigurationMap, DeformationState
from aulmpm.transfers import Body, epoch_grid_terms, mass_epsilon
from oracles import lattice_index, slot_of


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
    np.testing.assert_allclose(g.position, 0.1 * np.array(
        [[0, 1], [0, 2], [3, 7], [5, 0], [10, 10]]))


def test_node_positions_follow_the_lattice():
    g = SparseGrid(origin=(-0.5, 0.25), dx=0.05, n_cells=(20, 20))
    coords = np.array([[4, 9], [17, 2]])
    slots = g.activate(lattice_index(g, coords))
    np.testing.assert_allclose(g.position[slots],
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
    coords = np.rint((g.position - g.origin) / g.dx).astype(np.int64)
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
        acc[s] = [1.0, 2.0]
    g.zero_fields()
    # the per-epoch mass survives and still equals a fresh scatter
    fresh = np.bincount(body.cmap.slots.ravel(),
                        (body.m[:, None] * body.cmap.w).ravel(), g.n_slots)
    np.testing.assert_array_equal(g.mass, fresh)
    for acc in (g.momentum, g.momentum0, g.pos_accum):
        np.testing.assert_array_equal(acc[s[0]], [0.0, 0.0])


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
