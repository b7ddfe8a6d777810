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
    HARDENING_CAP,
    J_FLOOR,
    SNOW,
    MaterialModel,
    det,
    energy_and_piola,
    hessian_action,
    inverse,
    matmul,
    plastic_project,
)
from aulmpm.grid import SparseGrid
from aulmpm.kinematics import (
    KERNEL,
    LEAST_SQUARES,
    ConfigurationMap,
    DeformationState,
    compose_total,
)
from aulmpm.mls import gradient_weights, moment_matrix
from aulmpm.transfers import (
    FLIP_BLEND,
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
from oracles import (_ref_cofactor, _ref_moment_matrix, _ref_rot, _ref_signed_svd, batch,
                     stencil, stress_differential, tangent_by_probing, unbatch)

RTOL = 1e-12


def _assert_close(new, ref, rtol=RTOL):
    """max |new - ref| <= rtol max |ref|, entry by entry over the batch."""
    new = np.asarray(new)
    ref = np.asarray(ref)
    assert new.shape == ref.shape
    scale = np.abs(ref).max()
    err = np.abs(new - ref).max()
    assert err <= rtol * scale, f"relative gap {err / scale:.3e} > {rtol:.0e}"


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


def _ref_stress(body):
    """P0 and the factors of the pre-closed-form stress pass, (n, 2, 2)."""
    F_total = np.einsum("nab,nbc->nac", unbatch(body.state.F_sn), unbatch(body.state.F_0s))
    if body.material.kind == SNOW:
        Fp_inv = np.linalg.inv(unbatch(body.F_plastic))
        Jp = np.linalg.det(unbatch(body.F_plastic))
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
                C=batch(rng.normal(size=(n, 2, 2))),
                state=DeformationState(F_0s=batch(_gradients(rng, n, 0.2, 0)),
                                       F_sn=batch(_gradients(rng, n, 0.3, 5))),
                cmap=ConfigurationMap.build(x, grid, transfer=transfer),
                F_plastic=batch(_gradients(rng, n, 0.05, 0)) if kind == "snow" else None)
    return body, grid, rng


def _offsets(body, grid):
    """Node offsets r = node - reference position, (n, S, 2), from the
    grid's node positions."""
    return grid.position.T[body.cmap.slots] - body.cmap.ref_positions[:, None, :]


CASES = [(k, t) for t in (LEAST_SQUARES, KERNEL) for k in MATERIALS]
IDS = [f"{k}-{t}" for k, t in CASES]


# ---------------------------------------------------------- transfers


@pytest.mark.parametrize("kind, transfer", CASES, ids=IDS)
def test_p2g_matches_reference(kind, transfer):
    body, grid, _ = _body(kind, transfer)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    p2g(body, grid)
    slots, size = body.cmap.slots, grid.n_slots
    r = _offsets(body, grid)
    mw = body.m[:, None] * body.cmap.w
    vel = body.v[:, None, :]
    if transfer == LEAST_SQUARES:
        vel = vel + np.einsum("nab,nsb->nsa", unbatch(body.C), r)
    _assert_close(grid.mass, np.bincount(slots.ravel(), mw.ravel(), size))
    _assert_close(grid.momentum.T, _ref_scatter(slots, mw[:, :, None] * vel, size))
    _assert_close(grid.pos_accum.T, _ref_scatter(slots, mw[:, :, None] * body.x[:, None, :], size))


@pytest.mark.parametrize("kind, transfer", CASES, ids=IDS)
def test_internal_forces_match_reference(kind, transfer):
    body, grid, _ = _body(kind, transfer)
    stress_pass(body)
    f = grid_internal_forces(body, grid)
    P0, _ = _ref_stress(body)
    PF = np.einsum("nab,ncb->nac", P0, unbatch(body.state.F_0s))
    contrib = -body.V0[:, None, None] * np.einsum("nac,nsc->nsa", PF, body.cmap.G)
    _assert_close(np.einsum("abn,cbn->nac", body.stress.law.P, body.stress.B), PF)
    _assert_close(f.T, _ref_scatter(body.cmap.slots, contrib, grid.n_slots))


def _ref_hessian_apply(body, u, differential=_ref_hessian_action):
    """The Hessian product by the chain the library ran before it built a
    tangent: dF_sn = sum_j u_j (x) G_j, then dP0 along dF_sn F_0s, then the
    scatter of V0 dP0 F_0s^T G_j."""
    _, (F, Fp_inv, Jp) = _ref_stress(body)
    G, F_0s = body.cmap.G, unbatch(body.state.F_0s)
    dF_total = np.einsum("nab,nbc->nac",
                         np.einsum("nsa,nsb->nab", u[body.cmap.slots], G), F_0s)
    if Fp_inv is None:
        dP0 = differential(F, dF_total, body.material, np.ones(body.n))
    else:
        dFe = np.einsum("nab,nbc->nac", dF_total, Fp_inv)
        dPe = differential(F, dFe, body.material, Jp)
        dP0 = np.einsum("nac,nbc->nab", dPe, Fp_inv)
    dPF = np.einsum("nab,ncb->nac", dP0, F_0s)
    contrib = body.V0[:, None, None] * np.einsum("nac,nsc->nsa", dPF, G)
    return _ref_scatter(body.cmap.slots, contrib, u.shape[0])


@pytest.mark.parametrize("kind, transfer", CASES, ids=IDS)
def test_hessian_apply_matches_reference(kind, transfer):
    body, grid, rng = _body(kind, transfer)
    stress_pass(body)
    u = rng.normal(size=(grid.n_slots, 2))
    _assert_close(hessian_apply([body], u.T).T, _ref_hessian_apply(body, u))


@pytest.mark.parametrize("kind", list(MATERIALS))
def test_hessian_apply_rebuilds_its_tangent_after_each_stress_pass(kind):
    # stress_pass -> apply -> perturb F_sn -> stress_pass -> apply: the
    # second product must see the new state, not the tangent of the first
    body, grid, rng = _body(kind, LEAST_SQUARES)
    u = rng.normal(size=(grid.n_slots, 2))
    stress_pass(body)
    first = hessian_apply([body], u.T).T
    body.state.F_sn = body.state.F_sn + batch(0.2 * rng.normal(size=(body.n, 2, 2)))
    stress_pass(body)
    second = hessian_apply([body], u.T).T
    ref = _ref_hessian_apply(body, u)
    _assert_close(second, ref)
    assert np.abs(first - ref).max() > 1e-3 * np.abs(ref).max()


@pytest.mark.parametrize("transfer", [LEAST_SQUARES, KERNEL])
def test_g2p_matches_reference(transfer):
    body, grid, rng = _body("solid", transfer)
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    p2g(body, grid)
    finalize_grid(grid)
    grid.velocity.T[:] = rng.normal(size=grid.velocity.T.shape)
    x0, v0 = body.x.copy(), body.v.copy()
    g2p(body, grid, dt=0.01)

    w, slots = body.cmap.w, body.cmap.slots
    vn = grid.velocity.T[slots]
    v_pic = np.einsum("ns,nsa->na", w, vn)
    C = np.einsum("nsa,nsb->nab", vn - v_pic[:, None, :], body.cmap.G)
    if transfer == KERNEL:
        delta = np.einsum("ns,nsa->na", w, vn - grid.velocity0.T[slots])
        v = (1.0 - FLIP_BLEND) * v_pic + FLIP_BLEND * (v0 + delta)
    else:
        v = v_pic
    _assert_close(unbatch(body.C), C)
    _assert_close(body.v, v)
    _assert_close(body.x, x0 + 0.01 * v_pic)


def test_weight_stack_transfers_match_an_einsum_over_w_and_G():
    # p2g's one contraction per component over the stack [G_x, G_y, w],
    # with C and the stress impulse folded in, and g2p's one contraction
    # giving C and the PIC velocity, against separate einsums over the
    # public (n, S) views; both sides scatter in entry order, so they part
    # only by the rounding of the per-entry products
    body, grid, rng = _body("solid", LEAST_SQUARES)
    G, w, slots = body.cmap.G, body.cmap.w, body.cmap.slots
    dt = 2e-3
    epoch_grid_terms([body], grid, mass_epsilon([body]))
    stress_pass(body)
    p2g(body, grid, dt)
    PF = np.einsum("abn,cbn->nac", body.stress.law.P, body.stress.B)
    A = (body.m / moment_matrix(grid.dx))[:, None, None] * unbatch(body.C) \
        - (dt * body.V0)[:, None, None] * PF
    entry = np.einsum("nab,nsb->nsa", A, G) + (body.m[:, None] * w)[..., None] * body.v[:, None]
    momentum = np.stack([np.bincount(slots.T.ravel(), entry[..., k].T.ravel(), grid.n_slots)
                         for k in range(2)], -1)
    assert np.abs(body.C).max() > 0.1 and np.abs(PF).max() > 0.1
    _assert_close(grid.momentum.T, momentum, rtol=1e-15)

    grid.velocity.T[:] = rng.normal(size=grid.velocity.T.shape)
    g2p(body, grid, dt=0.0)
    vn = grid.velocity.T[slots]
    _assert_close(unbatch(body.C), np.einsum("nsa,nsb->nab", vn, G), rtol=1e-15)
    _assert_close(body.v, np.einsum("ns,nsa->na", w, vn), rtol=1e-15)


# ------------------------------------------------------- per-particle


def _laid_out(F, layout):
    """Particle-major matrices (n, 2, 2) as a (2, 2, n) batch: a C-contiguous
    array, or the [:, :2] slice of a (2, 3, n) buffer, as g2p leaves C."""
    if layout == "contiguous":
        return batch(F)
    buf = np.full((2, 3, F.shape[0]), np.nan)
    buf[:, :2] = batch(F)
    return buf[:, :2]


@pytest.mark.parametrize("layout", ["contiguous", "sliced"])
def test_det_inverse_matmul_match_linalg(layout):
    rng = np.random.default_rng(4)
    A = _gradients(rng, 200, 0.3, 40)
    B = _gradients(rng, 200, 0.3, 0)
    a, b = _laid_out(A, layout), _laid_out(B, layout)
    assert a.flags.c_contiguous == (layout == "contiguous")
    _assert_close(det(a), np.linalg.det(A))
    _assert_close(unbatch(inverse(a)), np.linalg.inv(A))
    _assert_close(unbatch(matmul(a, b)), A @ B)


def test_compose_total_matches_reference():
    body, _, _ = _body("solid", LEAST_SQUARES)
    _assert_close(unbatch(compose_total(body.state)),
                  np.einsum("nab,nbc->nac", unbatch(body.state.F_sn), unbatch(body.state.F_0s)))


@pytest.mark.parametrize("kind", list(MATERIALS))
def test_energy_and_piola_matches_reference(kind):
    rng = np.random.default_rng(1)
    F = _gradients(rng, 200, 0.3, 40)
    if kind == "fluid":
        F = np.abs(F)  # the equation of state floors J at 1e-6
    jp = 0.9 + 0.2 * rng.random(200)
    ss = energy_and_piola(batch(F), MATERIALS[kind], jp)
    psi, P = _ref_energy_and_piola(F, MATERIALS[kind], jp)
    _assert_close(ss.energy, psi)
    _assert_close(unbatch(ss.P), P)


def _dense(T):
    """A (4, 4, n) tangent as (n, 4, 4)."""
    return np.moveaxis(T, -1, 0)


@pytest.mark.parametrize("kind", list(MATERIALS))
def test_hessian_action_matches_reference(kind):
    rng = np.random.default_rng(2)
    F = _gradients(rng, 200, 0.3, 40)
    if kind == "fluid":
        F = np.abs(F)
    B = _gradients(rng, 200, 0.3, 0)
    vol = rng.uniform(0.5, 2.0, 200)
    jp = 0.9 + 0.2 * rng.random(200)
    _assert_close(_dense(hessian_action(energy_and_piola(batch(F), MATERIALS[kind], jp),
                                        batch(B), vol)),
                  tangent_by_probing(F, B, MATERIALS[kind], jp, vol, _ref_hessian_action))


def _edge_body(kind, transfer):
    """A test body whose first four particles sit on the tangent's edge
    cases.  Their elastic gradients Fe = F_sn F_0s Fp^-1 are set through
    diagonal, non-identity F_0s and F_plastic; for particles 0 to 2 these
    are powers of two, so Fe comes out exactly as written."""
    body, grid, rng = _body(kind, transfer)
    # particle-major views, written through into the body's batches
    F_0s, F_sn = unbatch(body.state.F_0s), unbatch(body.state.F_sn)
    F_0s[:4] = np.diag([2.0, 0.5])
    Fp = np.tile(np.diag([0.5, 2.0]), (4, 1, 1))
    Fp[3] = np.diag([2.5, 2.0])   # det 5: hardening 10 (1 - 5) = -40 hits the cap
    if body.F_plastic is not None:
        unbatch(body.F_plastic)[:4] = Fp
    Fe = np.array([[[0.8, 0.3], [0.3, -0.8]],          # tr(R^T Fe) = 0
                   [[-1.1, 0.0], [0.0, 0.9]],          # inverted
                   [[1e-4, 2e-5], [1e-5, 1e-4]],       # 0 < det < J_FLOOR
                   [[1.05, 0.1], [-0.05, 0.97]]])
    B = F_0s[:4] @ np.linalg.inv(Fp) if body.F_plastic is not None else F_0s[:4]
    F_sn[:4] = Fe @ np.linalg.inv(B)
    return body, grid, rng


@pytest.mark.parametrize("kind, transfer", CASES, ids=IDS)
def test_tangent_matches_the_stress_differential_on_edge_cases(kind, transfer):
    body, grid, rng = _edge_body(kind, transfer)
    _, (Fe, Fp_inv, Jp) = _ref_stress(body)
    F_0s = unbatch(body.state.F_0s)
    B = F_0s if Fp_inv is None else np.einsum("nab,nbc->nac", F_0s, Fp_inv)
    # the edge cases are really hit
    assert np.hypot(Fe[0, 0, 0] + Fe[0, 1, 1], Fe[0, 1, 0] - Fe[0, 0, 1]) < 1e-10
    assert np.linalg.det(Fe[1]) < 0.0 < np.linalg.det(Fe[2]) < J_FLOOR
    if kind == "snow":
        assert body.material.hardening * (1.0 - Jp[3]) < -HARDENING_CAP
    assert np.abs(B[:4] - np.eye(2)).max() >= 0.5

    T = _dense(hessian_action(energy_and_piola(batch(Fe), body.material, Jp), batch(B), body.V0))
    ref = tangent_by_probing(Fe, B, body.material, Jp, body.V0)
    gap = np.abs(T - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert gap.max() <= RTOL, f"particle {gap.argmax()}: relative gap {gap.max():.3e}"
    asym = np.abs(T - np.swapaxes(T, 1, 2)).max(axis=(1, 2)) / np.abs(T).max(axis=(1, 2))
    assert asym.max() <= RTOL

    stress_pass(body)
    u = rng.normal(size=(grid.n_slots, 2))
    _assert_close(hessian_apply([body], u.T).T,
                  _ref_hessian_apply(body, u, differential=stress_differential))


def test_plastic_project_matches_reference():
    rng = np.random.default_rng(3)
    Fe = _gradients(rng, 200, 0.1, 0)
    Fp = _gradients(rng, 200, 0.05, 0)
    Fp2 = unbatch(plastic_project(batch(Fe), batch(Fp), MATERIALS["snow"]))
    ref = _ref_plastic_project(Fe, Fp, MATERIALS["snow"])
    # the clamped elastic factor keeps the product: Fe' = Fe Fp Fp'^-1
    _assert_close(Fe @ Fp @ np.linalg.inv(Fp2), ref[0])
    _assert_close(Fp2, ref[1])


# --------------------------------------------------------------- rebind


@pytest.mark.parametrize("transfer", [LEAST_SQUARES, KERNEL])
def test_moment_matrix_and_gradient_weights_match_reference(transfer):
    body, grid, _ = _body("solid", transfer, n=400)
    w, r = body.cmap.w, _offsets(body, grid)
    K_ref = _ref_moment_matrix(w, r)
    c = moment_matrix(grid.dx)
    _assert_close(np.broadcast_to(c * np.eye(2), K_ref.shape), K_ref)
    stack, _, offsets = stencil(body.cmap.ref_positions, grid.origin, grid.dx, grid.n_nodes,
                                gradients=False)
    gradient_weights(offsets, stack, c)
    G_ref = w[:, :, None] * np.einsum("nab,nsb->nsa", K_ref, r)
    _assert_close(stack[:2].T, G_ref)
    if transfer == LEAST_SQUARES:
        _assert_close(body.cmap.G, G_ref)
