"""Tests for the material models.

Stress is validated against central finite differences of the energy
density, and the implicit tangent and the stress-differential oracle
against finite differences of the stress, so the analytic derivatives
never certify themselves.  A handful of closed
states (uniaxial stretch, pure compression) are frozen by hand.  The tests
write gradients particle-major, (n, 2, 2), as the oracles do, and hand the
library (2, 2, n) batches through `batch` and `unbatch`.
"""

import numpy as np
import pytest

from aulmpm.constitutive import (
    FIXED_COROTATED,
    FLUID,
    SNOW,
    MaterialModel,
    energy_and_piola,
    hessian_action,
    plastic_project,
)
from aulmpm.errors import SceneError
from oracles import _ref_signed_svd, batch, stress_differential, unbatch

GRAD_RTOL = 1e-5
HESS_RTOL = 1e-5
SYM_RTOL = 1e-9


def _corotated(mu=3.0, lam=5.0):
    return MaterialModel(kind=FIXED_COROTATED, density=1000.0, mu=mu, lam=lam)


def _fluid(bulk=2.0, gamma=7.0):
    return MaterialModel.fluid(density=1000.0, bulk=bulk, gamma=gamma)


def _snow():
    return MaterialModel.from_youngs(SNOW, density=400.0, youngs=1.4e5, poisson=0.2)


def _random_gradients(rng, n, dim, spread=0.35):
    return np.eye(dim) + rng.uniform(-spread, spread, (n, dim, dim))


def _stress(F, model, jp=None):
    """energy_and_piola at particle-major gradients (n, 2, 2): the energy
    density (n,) and the stress, particle-major."""
    st = energy_and_piola(batch(F), model, jp)
    return st.energy, unbatch(st.P)


# ------------------------------------------------------- energy consistency


def _fd_piola(F, model, jp=None, h=1e-6):
    n, d, _ = F.shape
    out = np.zeros_like(F)
    for a in range(d):
        for b in range(d):
            Fp = F.copy()
            Fp[:, a, b] += h
            Fm = F.copy()
            Fm[:, a, b] -= h
            ep, _ = _stress(Fp, model, jp)
            em, _ = _stress(Fm, model, jp)
            out[:, a, b] = (ep - em) / (2 * h)
    return out


def test_piola_matches_energy_finite_differences():
    rng = np.random.default_rng(3)
    cases = [
        (_corotated(mu=7.0, lam=13.0), None),
        (_fluid(bulk=9.0), None),
        (_snow(), np.full(16, 0.95)),
    ]
    for model, jp in cases:
        F = _random_gradients(rng, 16, 2, spread=0.2)
        _, got = _stress(F, model, jp)
        ref = _fd_piola(F, model, jp)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(got, ref, rtol=GRAD_RTOL, atol=GRAD_RTOL * scale)


def test_rest_state_is_stress_and_energy_free():
    eye = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    for model in (_corotated(), _fluid(), _snow()):
        energy, P = _stress(eye, model)
        np.testing.assert_allclose(energy, 0.0, atol=1e-14)
        np.testing.assert_allclose(P, 0.0, atol=1e-14)


def test_pure_rotation_is_stress_free_and_energy_is_objective():
    rng = np.random.default_rng(4)
    t = rng.uniform(-3, 3, 8)
    R = np.stack([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], axis=0).transpose(2, 0, 1)
    model = _corotated(mu=11.0, lam=3.0)
    energy, P = _stress(R, model)
    np.testing.assert_allclose(energy, 0.0, atol=1e-12)
    np.testing.assert_allclose(P, 0.0, atol=1e-12)

    F = _random_gradients(rng, 8, 2, spread=0.3)
    base_energy, base_P = _stress(F, model)
    rot_energy, rot_P = _stress(np.einsum("nab,nbc->nac", R, F), model)
    np.testing.assert_allclose(rot_energy, base_energy, rtol=1e-10)
    np.testing.assert_allclose(rot_P, np.einsum("nab,nbc->nac", R, base_P), rtol=1e-9,
                               atol=1e-9)


def test_fixed_corotated_uniaxial_stretch_frozen_values():
    # F = diag(2, 1), mu = 3, lam = 5:
    #   psi = mu (2-1)^2 + lam/2 (2-1)^2 = 5.5
    #   P = 2 mu (F - I) + lam (J-1) cof(F) = diag(6, 0) + diag(5, 10)
    F = np.array([np.diag([2.0, 1.0])])
    energy, P = _stress(F, _corotated(mu=3.0, lam=5.0))
    np.testing.assert_allclose(energy, [5.5], rtol=1e-14)
    np.testing.assert_allclose(P[0], np.diag([11.0, 10.0]), rtol=1e-14)


def test_fluid_compression_frozen_values():
    # J = 0.8, bulk = 2, gamma = 7: p = 2 ((1/0.8)^7 - 1) = 7.5367431640625
    model = _fluid(bulk=2.0, gamma=7.0)
    F = np.array([np.diag([0.8, 1.0])])
    _, P = _stress(F, model)
    np.testing.assert_allclose(P[0], np.diag([-7.5367431640625, -6.02939453125]),
                               rtol=1e-13)
    # deviatoric silence: shear at J = 1 carries no stress
    F = np.array([[[1.0, 0.7], [0.0, 1.0]]])
    energy, P = _stress(F, model)
    np.testing.assert_allclose(energy, 0.0, atol=1e-14)
    np.testing.assert_allclose(P, 0.0, atol=1e-13)


def test_fluid_rest_state_is_pressure_free():
    model = _fluid()
    _, P = _stress(np.array([np.eye(2)]), model)
    np.testing.assert_allclose(P, 0.0, atol=1e-15)


# ------------------------------------------------------------------ hessian


def _fd_stress_differential(F, dF, model, jp=None, h=1e-6):
    _, p = _stress(F + h * dF, model, jp)
    _, m = _stress(F - h * dF, model, jp)
    return (p - m) / (2 * h)


def _apply(T, dX):
    """A (4, 4, n) tangent applied to the row-major entries of dX (n, 2, 2)."""
    n = dX.shape[0]
    return np.einsum("ijn,nj->ni", T, dX.reshape(n, 4)).reshape(n, 2, 2)


def _hessian_cases():
    return [(_corotated(mu=7.0, lam=13.0), None), (_fluid(bulk=9.0), None),
            (_snow(), np.full(12, 0.97))]


def test_hessian_action_matches_stress_finite_differences():
    # the tangent is pulled back through a non-identity B and weighted by a
    # volume: it maps dX to vol dP(F)[dX B] B^T; the oracle is dP(F)[dF]
    rng = np.random.default_rng(5)
    for model, jp in _hessian_cases():
        F = _random_gradients(rng, 12, 2, spread=0.2)
        B = _random_gradients(rng, 12, 2, spread=0.3)
        vol = rng.uniform(0.5, 2.0, 12)
        dX = rng.normal(size=F.shape)
        fd = _fd_stress_differential(F, dX @ B, model, jp)
        scale = max(np.abs(fd).max(), 1.0)
        np.testing.assert_allclose(stress_differential(F, dX @ B, model, jp), fd,
                                   rtol=HESS_RTOL, atol=HESS_RTOL * scale)
        ref = vol[:, None, None] * fd @ np.swapaxes(B, -1, -2)
        scale = max(np.abs(ref).max(), 1.0)
        T = hessian_action(energy_and_piola(batch(F), model, jp), batch(B), vol)
        np.testing.assert_allclose(_apply(T, dX), ref, rtol=HESS_RTOL, atol=HESS_RTOL * scale)


def test_hessian_action_is_a_symmetric_bilinear_form():
    # u : dP[v] = v : dP[u] is what lets the tangent store 10 entries of 16
    rng = np.random.default_rng(6)
    for model, jp in _hessian_cases():
        F = _random_gradients(rng, 12, 2, spread=0.25)
        u = rng.normal(size=F.shape)
        v = rng.normal(size=F.shape)
        uy = np.einsum("nab,nab->n", u, stress_differential(F, v, model, jp))
        vy = np.einsum("nab,nab->n", v, stress_differential(F, u, model, jp))
        np.testing.assert_allclose(uy, vy, rtol=SYM_RTOL, atol=SYM_RTOL * np.abs(uy).max())
        T = hessian_action(energy_and_piola(batch(F), model, jp),
                           batch(_random_gradients(rng, 12, 2)))
        np.testing.assert_array_equal(T, np.swapaxes(T, 0, 1))


# --------------------------------------------------------------- plasticity


def _project(Fe, Fp, model):
    """plastic_project on particle-major factors (n, 2, 2): the clamped
    elastic factor, derived as Fe Fp Fp'^-1, and the new plastic factor Fp'."""
    Fp2 = unbatch(plastic_project(batch(Fe), batch(Fp), model))
    return Fe @ Fp @ np.linalg.inv(Fp2), Fp2


def test_plastic_projection_clamps_and_preserves_the_product():
    rng = np.random.default_rng(7)
    model = _snow()
    Fe = _random_gradients(rng, 30, 2, spread=0.2)
    Fp = _random_gradients(rng, 30, 2, spread=0.05)
    total = np.einsum("nab,nbc->nac", Fe, Fp)
    Fe2, Fp2 = _project(Fe, Fp, model)
    _, sig, _ = _ref_signed_svd(Fe2)
    assert np.all(sig >= 1.0 - model.theta_c - 1e-12)
    assert np.all(sig <= 1.0 + model.theta_s + 1e-12)
    np.testing.assert_allclose(np.einsum("nab,nbc->nac", Fe2, Fp2), total, rtol=1e-12,
                               atol=1e-14)


def test_plastic_projection_uniaxial_frozen_values():
    model = _snow()
    Fe = np.array([np.diag([1.1, 1.0])])
    Fp = np.array([np.eye(2)])
    Fe2, Fp2 = _project(Fe, Fp, model)
    s_max = 1.0 + model.theta_s
    np.testing.assert_allclose(Fe2[0], np.diag([s_max, 1.0]), rtol=1e-12)
    np.testing.assert_allclose(Fp2[0], np.diag([1.1 / s_max, 1.0]), rtol=1e-12)


def test_plastic_projection_inside_the_yield_surface_is_identity():
    model = _snow()
    Fe = np.array([np.diag([1.002, 0.999])])
    Fp = np.array([np.eye(2)])
    Fe2, Fp2 = _project(Fe, Fp, model)
    np.testing.assert_allclose(Fe2, Fe, atol=1e-13)
    np.testing.assert_allclose(Fp2, Fp, atol=1e-13)


def test_hardening_scales_stress_exponentially():
    model = _snow()
    F = np.array([np.diag([1.005, 1.0])])
    _, soft = _stress(F, model, np.array([1.0]))
    _, hard = _stress(F, model, np.array([0.9]))  # exp(10 * 0.1) = e
    np.testing.assert_allclose(hard, np.e * soft, rtol=1e-12)


def test_non_snow_projection_is_a_passthrough():
    F = np.array([np.diag([1.5, 1.0])])
    Fp = np.array([np.eye(2)])
    Fe2, Fp2 = _project(F, Fp, _corotated())
    np.testing.assert_allclose(Fe2, F)
    np.testing.assert_allclose(Fp2, Fp)


def test_unknown_kind_and_bad_parameters_are_rejected():
    with pytest.raises(SceneError):
        MaterialModel(kind="rubber", density=1000.0)
    with pytest.raises(SceneError):
        MaterialModel(kind=FIXED_COROTATED, density=-1.0)
    with pytest.raises(SceneError):
        MaterialModel(kind=FIXED_COROTATED, density=1.0, mu=-2.0)
    for gamma in (1.0, 0.5):
        with pytest.raises(SceneError, match="gamma must exceed 1"):
            _fluid(gamma=gamma)
