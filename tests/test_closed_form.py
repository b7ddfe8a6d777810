"""Oracle tests for the closed-form 2x2 arithmetic.

The references below, with the SVD, rotation and cofactor ones they share
with other test modules (`oracles.py`), are the batched `einsum` /
`np.linalg` formulas the library used before its hot loop was written
entry by entry.  They live only in the tests, as oracles.  Every comparison uses one relative tolerance,
fixed before measuring: the new code reorders float64 sums and products,
so it may differ from the references by a few units of roundoff and by
nothing more.
"""

import numpy as np
import pytest

from aulmpm.constitutive import (
    FIXED_COROTATED,
    SNOW,
    MaterialModel,
    energy_and_piola,
    hessian_action,
    plastic_project,
)
from aulmpm.errors import DegenerateNeighborhoodError
from aulmpm.grid import SparseGrid
from aulmpm.kinematics import (
    KERNEL,
    LEAST_SQUARES,
    ConfigurationMap,
    DeformationState,
    compose_total,
)
from aulmpm.mls import COND_LIMIT, Stencil, gradient_weights, moment_matrix
from aulmpm.transfers import (
    Body,
    epoch_grid_terms,
    finalize_grid,
    g2p,
    grid_internal_forces,
    hessian_apply,
    mass_epsilon,
    p2g,
    stress_pass,
)
from oracles import _ref_cofactor, _ref_rot, _ref_signed_svd

RTOL = 1e-12


def _assert_close(new, ref):
    """max |new - ref| <= RTOL max |ref|, entry by entry over the batch."""
    new = np.asarray(new)
    ref = np.asarray(ref)
    assert new.shape == ref.shape
    scale = np.abs(ref).max()
    err = np.abs(new - ref).max()
    assert err <= RTOL * scale, f"relative gap {err / scale:.3e} > {RTOL:.0e}"


# ------------------------------------------------------------ references


def _ref_moduli(model, jp):
    n = jp.shape[0]
    if model.kind == SNOW:
        h = np.exp(np.clip(model.hardening * (1.0 - jp), -30.0, 30.0))
        return model.mu * h, model.lam * h
    return np.full(n, model.mu), np.full(n, model.lam)


def _ref_energy_and_piola(F, model, jp):
    if model.kind != SNOW and model.kind != FIXED_COROTATED:
        J = np.maximum(np.linalg.det(F), 1e-6)
        k, g = model.bulk, model.gamma
        psi = k * (J + J ** (1.0 - g) / (g - 1.0) - g / (g - 1.0))
        return psi, (k * (1.0 - J ** (-g)))[:, None, None] * _ref_cofactor(F)
    mu, lam = _ref_moduli(model, jp)
    U, sig, Vt = _ref_signed_svd(F)
    R = U @ Vt
    J = np.prod(sig, axis=-1)
    psi = mu * np.sum((sig - 1.0) ** 2, axis=-1) + 0.5 * lam * (J - 1.0) ** 2
    P = (2.0 * mu)[:, None, None] * (F - R) \
        + (lam * (J - 1.0))[:, None, None] * _ref_cofactor(F)
    return psi, P


def _ref_hessian_action(F, dF, model, jp):
    cof = _ref_cofactor(F)
    dJ = np.einsum("nab,nab->n", cof, dF)
    if model.kind != SNOW and model.kind != FIXED_COROTATED:
        J = np.maximum(np.linalg.det(F), 1e-6)
        k, g = model.bulk, model.gamma
        return (k * g * J ** (-g - 1.0) * dJ)[:, None, None] * cof \
            + (k * (1.0 - J ** (-g)))[:, None, None] * _ref_cofactor(dF)
    mu, lam = _ref_moduli(model, jp)
    theta = np.arctan2(F[:, 1, 0] - F[:, 0, 1], F[:, 0, 0] + F[:, 1, 1])
    R = _ref_rot(theta)
    A = np.einsum("nba,nbc->nac", R, dF)
    S = np.einsum("nba,nbc->nac", R, F)
    tr = S[:, 0, 0] + S[:, 1, 1]
    tr = np.where(np.abs(tr) > 1e-10, tr, np.where(tr >= 0.0, 1e-10, -1e-10))
    w = (A[:, 1, 0] - A[:, 0, 1]) / tr
    dR = R @ np.stack([np.stack([0.0 * w, -w], -1), np.stack([w, 0.0 * w], -1)], -2)
    J = np.linalg.det(F)
    return (2.0 * mu)[:, None, None] * (dF - dR) \
        + (lam * dJ)[:, None, None] * cof \
        + (lam * (J - 1.0))[:, None, None] * _ref_cofactor(dF)


def _ref_plastic_project(Fe, Fp, model):
    U, sig, Vt = _ref_signed_svd(Fe)
    clamped = np.clip(sig, 1.0 - model.theta_c, 1.0 + model.theta_s)
    Fe2 = np.einsum("nab,nb,nbc->nac", U, clamped, Vt)
    V = np.swapaxes(Vt, -1, -2)
    Fp2 = np.einsum("nab,nb,nbc,ncd->nad", V, sig / clamped, Vt, Fp)
    return Fe2, Fp2


def _ref_moment_matrix(st):
    m = np.einsum("nsa,nsb,ns->nab", st.r, st.r, st.w)
    eig = np.linalg.eigvalsh(m)
    lo = np.min(np.abs(eig), axis=1)
    hi = np.max(np.abs(eig), axis=1)
    cond = np.where(lo > 0.0, hi / np.maximum(lo, 1e-300), np.inf)
    if np.any(cond > COND_LIMIT):
        raise DegenerateNeighborhoodError("degenerate")
    return np.linalg.inv(m)


def _ref_stress(body):
    """P0 and the factors of the pre-closed-form stress pass."""
    F_total = np.einsum("nab,nbc->nac", body.state.F_sn, body.state.F_0s)
    if body.material.kind == SNOW:
        Fp_inv = np.linalg.inv(body.F_plastic)
        Jp = np.linalg.det(body.F_plastic)
        Fe = np.einsum("nab,nbc->nac", F_total, Fp_inv)
        _, P = _ref_energy_and_piola(Fe, body.material, Jp)
        return np.einsum("nac,nbc->nab", P, Fp_inv), (Fe, Fp_inv, Jp)
    _, P = _ref_energy_and_piola(F_total, body.material, np.ones(body.n))
    return P, (F_total, None, None)


def _ref_scatter(slots, values, size):
    return np.stack([np.bincount(slots.ravel(), weights=values[..., k].ravel(),
                                 minlength=size) for k in range(values.shape[-1])], -1)


# ---------------------------------------------------------------- inputs


MATERIALS = {
    "solid": MaterialModel.from_youngs(FIXED_COROTATED, density=1000.0, youngs=1e4,
                                       poisson=0.3),
    "fluid": MaterialModel.fluid(density=1000.0, bulk=100.0),
    "snow": MaterialModel.from_youngs(SNOW, density=400.0, youngs=1e4, poisson=0.2),
}


def _gradients(rng, n, spread, inverted):
    F = np.eye(2) + rng.uniform(-spread, spread, (n, 2, 2))
    F[:inverted, 0] *= -1.0  # det < 0
    return F


def _body(kind, transfer, seed=0, n=60):
    rng = np.random.default_rng(seed)
    grid = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10),
                      track_positions=True, keep_velocity0=True)
    x = 0.25 + 0.5 * rng.random((n, 2))
    mat = MATERIALS[kind]
    body = Body(material=mat, x=x, v=rng.normal(size=(n, 2)),
                m=mat.density * np.full(n, 2.5e-3), V0=np.full(n, 2.5e-3),
                C=rng.normal(size=(n, 2, 2)),
                state=DeformationState(F_0s=_gradients(rng, n, 0.2, 0),
                                       F_sn=_gradients(rng, n, 0.3, 5)),
                cmap=ConfigurationMap.build(x, grid, transfer=transfer),
                F_plastic=_gradients(rng, n, 0.05, 0) if kind == "snow" else None)
    return body, grid, rng


CASES = [(k, t) for t in (LEAST_SQUARES, KERNEL) for k in MATERIALS]
IDS = [f"{k}-{t}" for k, t in CASES]


# ---------------------------------------------------------- transfers


@pytest.mark.parametrize("kind, transfer", CASES, ids=IDS)
def test_p2g_matches_reference(kind, transfer):
    body, grid, _ = _body(kind, transfer)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    p2g(body, grid)
    st, slots, size = body.cmap.stencil, body.cmap.slots, grid.n_slots
    mw = body.m[:, None] * st.w
    vel = body.v[:, None, :]
    if transfer == LEAST_SQUARES:
        vel = vel + np.einsum("nab,nsb->nsa", body.C, st.r)
    _assert_close(grid.mass, np.bincount(slots.ravel(), mw.ravel(), size))
    _assert_close(grid.momentum, _ref_scatter(slots, mw[:, :, None] * vel, size))
    _assert_close(grid.pos_accum, _ref_scatter(slots, mw[:, :, None] * body.x[:, None, :], size))


@pytest.mark.parametrize("kind, transfer", CASES, ids=IDS)
def test_internal_forces_match_reference(kind, transfer):
    body, grid, _ = _body(kind, transfer)
    stress_pass(body)
    grid_internal_forces(body, grid)
    P0, _ = _ref_stress(body)
    PF = np.einsum("nab,ncb->nac", P0, body.state.F_0s)
    contrib = -body.V0[:, None, None] * np.einsum("nac,nsc->nsa", PF, body.cmap.G)
    _assert_close(body._cache["P0"], P0)
    _assert_close(grid.force, _ref_scatter(body.cmap.slots, contrib, grid.n_slots))


@pytest.mark.parametrize("kind, transfer", CASES, ids=IDS)
def test_hessian_apply_matches_reference(kind, transfer):
    body, grid, rng = _body(kind, transfer)
    stress_pass(body)
    u = rng.normal(size=(grid.n_slots, 2))
    got = hessian_apply([body], u)

    _, (F, Fp_inv, Jp) = _ref_stress(body)
    G, F_0s = body.cmap.G, body.state.F_0s
    dF_total = np.einsum("nab,nbc->nac",
                         np.einsum("nsa,nsb->nab", u[body.cmap.slots], G), F_0s)
    if Fp_inv is None:
        dP0 = _ref_hessian_action(F, dF_total, body.material, np.ones(body.n))
    else:
        dFe = np.einsum("nab,nbc->nac", dF_total, Fp_inv)
        dPe = _ref_hessian_action(F, dFe, body.material, Jp)
        dP0 = np.einsum("nac,nbc->nab", dPe, Fp_inv)
    dPF = np.einsum("nab,ncb->nac", dP0, F_0s)
    contrib = body.V0[:, None, None] * np.einsum("nac,nsc->nsa", dPF, G)
    _assert_close(got, _ref_scatter(body.cmap.slots, contrib, grid.n_slots))


@pytest.mark.parametrize("transfer", [LEAST_SQUARES, KERNEL])
def test_g2p_matches_reference(transfer):
    body, grid, rng = _body("solid", transfer)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    p2g(body, grid)
    finalize_grid(grid)
    grid.velocity[:] = rng.normal(size=grid.velocity.shape)
    x0, v0 = body.x.copy(), body.v.copy()
    g2p(body, grid, dt=0.01, flip_blend=0.9)

    w, slots = body.cmap.stencil.w, body.cmap.slots
    vn = grid.velocity[slots]
    v_pic = np.einsum("ns,nsa->na", w, vn)
    C = np.einsum("nsa,nsb->nab", vn - v_pic[:, None, :], body.cmap.G)
    if transfer == KERNEL:
        delta = np.einsum("ns,nsa->na", w, vn - grid.velocity0[slots])
        v = 0.1 * v_pic + 0.9 * (v0 + delta)
    else:
        v = v_pic
    _assert_close(body.C, C)
    _assert_close(body.v, v)
    _assert_close(body.x, x0 + 0.01 * v_pic)


# ------------------------------------------------------- per-particle


def test_compose_total_matches_reference():
    body, _, _ = _body("solid", LEAST_SQUARES)
    _assert_close(compose_total(body.state),
                  np.einsum("nab,nbc->nac", body.state.F_sn, body.state.F_0s))


@pytest.mark.parametrize("kind", list(MATERIALS))
def test_energy_and_piola_matches_reference(kind):
    rng = np.random.default_rng(1)
    F = _gradients(rng, 200, 0.3, 40)
    if kind == "fluid":
        F = np.abs(F)  # the equation of state floors J at 1e-6
    jp = 0.9 + 0.2 * rng.random(200)
    ss = energy_and_piola(F, MATERIALS[kind], jp)
    psi, P = _ref_energy_and_piola(F, MATERIALS[kind], jp)
    _assert_close(ss.energy, psi)
    _assert_close(ss.P, P)


@pytest.mark.parametrize("kind", list(MATERIALS))
def test_hessian_action_matches_reference(kind):
    rng = np.random.default_rng(2)
    F = _gradients(rng, 200, 0.3, 40)
    if kind == "fluid":
        F = np.abs(F)
    dF = rng.normal(size=F.shape)
    jp = 0.9 + 0.2 * rng.random(200)
    _assert_close(hessian_action(F, dF, MATERIALS[kind], jp),
                  _ref_hessian_action(F, dF, MATERIALS[kind], jp))


def test_plastic_project_matches_reference():
    rng = np.random.default_rng(3)
    Fe = _gradients(rng, 200, 0.1, 0)
    Fp = _gradients(rng, 200, 0.05, 0)
    got = plastic_project(Fe, Fp, MATERIALS["snow"])
    ref = _ref_plastic_project(Fe, Fp, MATERIALS["snow"])
    _assert_close(got[0], ref[0])
    _assert_close(got[1], ref[1])


# --------------------------------------------------------------- rebind


@pytest.mark.parametrize("transfer", [LEAST_SQUARES, KERNEL])
def test_moment_matrix_and_gradient_weights_match_reference(transfer):
    body, _, _ = _body("solid", transfer, n=400)
    st = body.cmap.stencil
    K_ref = _ref_moment_matrix(st)
    K = moment_matrix(st)
    _assert_close(K, K_ref)
    _assert_close(gradient_weights(st, K), st.w[:, :, None] * np.einsum("nab,nsb->nsa", K_ref, st.r))


def _line_stencil(spread):
    """One center whose nodes lie within `spread` of the x axis."""
    rng = np.random.default_rng(4)
    r = np.stack([np.linspace(-1.0, 1.0, 9), spread * rng.uniform(-1, 1, 9)], -1)[None]
    return Stencil(coords=np.zeros((1, 9, 2), dtype=np.int64), r=r,
                   w=np.full((1, 9), 1.0 / 9.0), dw=None)


@pytest.mark.parametrize("spread", [0.0, 1e-6, 1e-5, 1e-3, 1.0])
def test_moment_matrix_rejects_the_same_neighborhoods(spread):
    st = _line_stencil(spread)
    try:
        _ref_moment_matrix(st)
        degenerate = False
    except DegenerateNeighborhoodError:
        degenerate = True
    if degenerate:
        with pytest.raises(DegenerateNeighborhoodError):
            moment_matrix(st)
    else:
        _assert_close(moment_matrix(st), _ref_moment_matrix(st))
    assert degenerate == (spread <= 1e-5)
