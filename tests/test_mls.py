"""Tests for the MLS stencil and gradient operators.

The expected values are derived independently of the implementation:
piecewise window values are re-evaluated by hand, the stencils are checked
against the spline formula in `oracles.py` (itself checked against central
finite differences), the closed-form moment constant against a numeric
inverse of the second moment summed from grid node positions, and the
least-squares gradient against an explicit weighted lstsq solve of the same
normal equations.
"""

import re

import numpy as np
import pytest

from aulmpm.errors import OutOfDomainError
from aulmpm.grid import SparseGrid
from aulmpm.kinematics import ConfigurationMap, contract
from aulmpm.mls import gradient_weights, moment_matrix
from oracles import (_ref_moment_matrix, bspline_weight, stencil, stencil_coords,
                     stencil_offsets)

WEIGHT_ATOL = 1e-12
PARTITION_ATOL = 1e-12
FIRST_MOMENT_ATOL = 1e-10
MOMENT_TOL = 1e-12
AFFINE_ATOL = 1e-10
FD_RTOL = 1e-6


def _grid2d(n_cells=32, dx=1.0 / 32.0):
    origin = np.zeros(2)
    n_nodes = np.array([n_cells + 1, n_cells + 1])
    return origin, dx, n_nodes


# ------------------------------------------------------------------ windows


def test_quadratic_window_matches_piecewise_table():
    # hand-evaluated: 3/4 - x^2 inside |x| < 1/2, (3/2 - |x|)^2 / 2 outside
    pts = np.array([0.0, 0.25, -0.25, 0.5, 1.0, -1.0, 1.25, 1.5, 2.0])
    expect = np.array([0.75, 0.6875, 0.6875, 0.5, 0.125, 0.125, 0.03125, 0.0, 0.0])
    w, _ = bspline_weight(pts[:, None])
    np.testing.assert_allclose(w, expect, atol=WEIGHT_ATOL)


def test_window_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.4, 1.4, size=(200, 2))
    # keep probes away from the piecewise breakpoints
    for brk in (0.5, 1.5):
        x = x[np.all(np.abs(np.abs(x) - brk) > 1e-3, axis=1)]
    _, dw = bspline_weight(x)
    h = 1e-6
    for k in range(2):
        dxv = np.zeros(2)
        dxv[k] = h
        wp, _ = bspline_weight(x + dxv)
        wm, _ = bspline_weight(x - dxv)
        fd = (wp - wm) / (2 * h)
        np.testing.assert_allclose(dw[:, k], fd, rtol=FD_RTOL, atol=1e-9)


# ------------------------------------------------------------------ stencils


def test_stencil_at_node_reproduces_eighth_three_quarter_pattern():
    origin, dx, n_nodes = _grid2d()
    center = np.array([[10 * dx, 7 * dx]])
    stack, base, _ = stencil(center, origin, dx, n_nodes)
    w = stack[2].T
    assert w.shape[1] == 9
    w1 = np.array([0.125, 0.75, 0.125])
    np.testing.assert_allclose(np.sort(w[0]), np.sort(np.outer(w1, w1).ravel()),
                               atol=WEIGHT_ATOL)
    # the node itself carries 0.75^2
    at_node = np.all(stencil_coords(base)[0] == np.array([10, 7]), axis=1)
    assert at_node.sum() == 1
    np.testing.assert_allclose(w[0][at_node], 0.5625, atol=WEIGHT_ATOL)


def test_stencil_partition_of_unity_and_first_moment():
    rng = np.random.default_rng(11)
    origin, dx, n_nodes = _grid2d()
    centers = rng.uniform(3 * dx, 1.0 - 3 * dx, size=(1000, 2))
    # the least-squares build returns the offsets
    stack, base, offsets = stencil(centers, origin, dx, n_nodes, gradients=False)
    w = stack[2].T
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=PARTITION_ATOL)
    first = np.einsum("ns,nsa->na", w, stencil_offsets(offsets))
    np.testing.assert_allclose(first, 0.0, atol=FIRST_MOMENT_ATOL)
    # linear consistency: weighted node positions reproduce the center
    nodes = origin + stencil_coords(base) * dx
    np.testing.assert_allclose(np.einsum("ns,nsa->na", w, nodes),
                               centers, atol=FIRST_MOMENT_ATOL)


def test_stencil_rejects_centers_near_the_boundary():
    origin, dx, n_nodes = _grid2d()
    with pytest.raises(OutOfDomainError):
        stencil(np.array([[0.4 * dx, 0.5]]), origin, dx, n_nodes)
    with pytest.raises(OutOfDomainError):
        stencil(np.array([[0.5, 1.0 - 0.1 * dx]]), origin, dx, n_nodes)


def _domain(n_nodes, dx):
    """Valid center range [lo, hi) on each axis for origin 0."""
    return 0.5 * dx, (n_nodes[0] - 1.5) * dx


def _oracle_stencil(centers, dx):
    """Stencil assembled node by node from `bspline_weight` (origin 0)."""
    u = centers / dx
    base = np.floor(u - 0.5)
    i, j = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    coords = base.astype(np.int64)[:, None, :] + np.stack([i.ravel(), j.ravel()], axis=-1)
    w, dw = bspline_weight(u[:, None, :] - coords)
    return coords, (coords - u[:, None, :]) * dx, w, dw / dx


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _edge_centers(lo, hi, dx):
    """Centers on nodes, at cell midpoints, and at and one ulp inside each
    domain limit, on either axis with the other coordinate mid-domain."""
    nodes = np.arange(np.ceil(lo / dx), np.ceil(hi / dx)) * dx
    mids = np.arange(np.ceil(lo / dx - 0.5), np.ceil(hi / dx - 0.5)) * dx + 0.5 * dx
    limits = [lo, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)]
    vals = np.concatenate([nodes, mids, limits])
    vals = vals[(vals >= lo) & (vals < hi)]
    mid = np.full_like(vals, 0.5)
    return np.concatenate([np.stack([vals, mid], axis=1), np.stack([mid, vals], axis=1)])


def test_stencil_matches_spline_oracle():
    origin, dx, n_nodes = _grid2d()
    lo, hi = _domain(n_nodes, dx)
    rng = np.random.default_rng(5)
    centers = np.concatenate([rng.uniform(lo, hi, size=(20000, 2)),
                              _edge_centers(lo, hi, dx)])
    # the kernel build gives the window gradients, the least-squares one
    # the offsets; both give the windows and the base node
    stack, base, _ = stencil(centers, origin, dx, n_nodes)
    ls, ls_base, offsets = stencil(centers, origin, dx, n_nodes, gradients=False)
    coords, r, w, dw = _oracle_stencil(centers, dx)
    np.testing.assert_array_equal(stencil_coords(base), coords)
    np.testing.assert_array_equal(stencil_coords(ls_base), coords)
    for got, want in ((stencil_offsets(offsets), r), (stack[2].T, w), (ls[2].T, w),
                      (stack[:2].T, dw)):
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_one_ulp_outside_the_domain_is_rejected():
    origin, dx, n_nodes = _grid2d()
    lo, hi = _domain(n_nodes, dx)
    inside = np.array([[0.5, 0.5], [np.nextafter(hi, -np.inf), lo]])
    msg = "1 stencil center(s) outside the valid domain, first indices [2]"
    for outside in (np.nextafter(lo, -np.inf), hi):
        for axis in range(2):
            bad = np.array([0.5, 0.5])
            bad[axis] = outside
            with pytest.raises(OutOfDomainError, match=f"^{re.escape(msg)}$"):
                stencil(np.vstack([inside, bad]), origin, dx, n_nodes)


# ------------------------------------------------------------ moment matrix


def test_moment_constant_and_gradient_weights_are_closed_form():
    # K = (4 / dx^2) I as a scalar, and g_j = c W_j r_j entry by entry
    rng = np.random.default_rng(29)
    origin, dx, n_nodes = _grid2d()
    lo, hi = _domain(n_nodes, dx)
    c = moment_matrix(dx)
    assert np.ndim(c) == 0 and c == 4.0 / dx**2 == 4096.0
    stack, _, offsets = stencil(rng.uniform(lo, hi, size=(200, 2)), origin, dx, n_nodes,
                                gradients=False)
    r = stencil_offsets(offsets)   # before gradient_weights scales them in place
    gradient_weights(offsets, stack, c)
    G = stack[:2].T
    assert G.shape == r.shape
    np.testing.assert_allclose(G, c * stack[2].T[..., None] * r, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n_cells", [16, 32, 64])
def test_closed_form_moments_match_the_numeric_inverse(n_cells):
    # random centers plus centers at the support edges: fractional offset
    # exactly 0.5 (one edge weight exactly 0) and nextafter(1.5, 0)
    dx = 1.0 / n_cells
    grid = SparseGrid(origin=(0.0, 0.0), dx=dx, n_cells=(n_cells, n_cells))
    lo, hi = _domain(grid.n_nodes, dx)
    rng = np.random.default_rng(7)
    edge = np.nextafter(1.5, 0.0) * dx
    centers = np.concatenate([rng.uniform(lo, hi, size=(500, 2)), _edge_centers(lo, hi, dx),
                              [[edge, 0.5], [0.5, edge], [edge, lo]]])
    cmap = ConfigurationMap.build(centers, grid)
    w, G = cmap.w, cmap.G
    f = centers / dx - np.floor(centers / dx - 0.5)
    assert np.any(f == 0.5) and np.any(f == np.nextafter(1.5, 0.0))
    assert np.any(w == 0.0)

    r = grid.position.T[cmap.slots] - centers[:, None, :]
    c = moment_matrix(dx)
    eye = np.broadcast_to(np.eye(2), (centers.shape[0], 2, 2))
    second = np.einsum("ns,nsa,nsb->nab", w, r, r)
    np.testing.assert_allclose(second / (dx**2 / 4.0), eye, rtol=0.0, atol=MOMENT_TOL)
    np.testing.assert_allclose(_ref_moment_matrix(w, r) / c, eye, rtol=0.0, atol=MOMENT_TOL)
    np.testing.assert_allclose(np.einsum("ns,nsa->na", w, r) / dx, 0.0, atol=MOMENT_TOL)
    np.testing.assert_allclose(G.sum(axis=1) * dx, 0.0, atol=MOMENT_TOL)
    np.testing.assert_allclose(np.einsum("nsa,nsb->nab", G, r), eye, rtol=0.0, atol=MOMENT_TOL)


# ----------------------------------------------------------------- gradient


def _least_squares(centers, origin, dx, n_nodes):
    """Windows (n, S), least-squares gradient weights (n, S, 2), node
    positions and offsets (n, S, 2) of the centers' stencils."""
    stack, base, offsets = stencil(centers, origin, dx, n_nodes, gradients=False)
    r = stencil_offsets(offsets)   # before gradient_weights scales them in place
    gradient_weights(offsets, stack, moment_matrix(dx))
    return stack[2].T, stack[:2].T, origin + stencil_coords(base) * dx, r


def _lstsq_gradient(phi_c, phi_n, w, r):
    """Independent route: weighted least squares via lstsq per center."""
    n, S, d = r.shape
    out = np.empty((n, d))
    for i in range(n):
        sw = np.sqrt(w[i])
        A = r[i] * sw[:, None]
        b = (phi_n[i] - phi_c[i]) * sw
        out[i] = np.linalg.lstsq(A, b, rcond=None)[0]
    return out


def test_mls_gradient_matches_weighted_lstsq_solve():
    rng = np.random.default_rng(19)
    origin, dx, n_nodes = _grid2d()
    centers = rng.uniform(3 * dx, 1.0 - 3 * dx, size=(50, 2))
    w, G, nodes, r = _least_squares(centers, origin, dx, n_nodes)

    def field(x):
        return np.sin(3.0 * x[..., 0]) * np.cos(2.0 * x[..., 1])

    grad = np.einsum("ns,nsb->nb", field(nodes) - field(centers)[:, None], G)
    ref = _lstsq_gradient(field(centers), field(nodes), w, r)
    np.testing.assert_allclose(grad, ref, rtol=1e-9, atol=1e-9)


def test_mls_gradient_reproduces_affine_fields_exactly():
    rng = np.random.default_rng(23)
    origin, dx, n_nodes = _grid2d()
    centers = rng.uniform(3 * dx, 1.0 - 3 * dx, size=(1000, 2))
    _, G, nodes, _ = _least_squares(centers, origin, dx, n_nodes)
    B = np.array([[0.3, -1.2], [0.7, 2.1]])
    c = np.array([0.1, -0.4])
    dv = (nodes @ B.T + c) - (centers @ B.T + c)[:, None]
    grad = contract(dv.T, G.T)
    np.testing.assert_allclose(grad, np.broadcast_to(B[:, :, None], grad.shape),
                               atol=AFFINE_ATOL)


def test_gradient_weights_scale_like_inverse_cell_size():
    # halving dx doubles the gradient weights (units 1/length)
    origin = np.zeros(2)
    for dx in (1.0 / 16.0, 1.0 / 32.0):
        n = int(round(1.0 / dx))
        _, g, _, _ = _least_squares(np.array([[0.5 + 0.3 * dx, 0.5]]), origin, dx,
                                    np.array([n + 1, n + 1]))
        mag = np.abs(g).sum()
        if dx == 1.0 / 16.0:
            coarse = mag
    np.testing.assert_allclose(mag, 2.0 * coarse, rtol=1e-12)
