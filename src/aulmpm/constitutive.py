"""Material models: energy densities, first Piola stress and its linearization.

Three kinds are supported:

* ``fixed_corotated``  psi = mu sum_i (sigma_i - 1)^2 + lambda/2 (J - 1)^2
* ``snow``             fixed corotated on the elastic factor, singular values
                       clamped to [1 - theta_c, 1 + theta_s], moduli scaled by
                       exp(hardening (1 - J_plastic))
* ``weakly_compressible_fluid``  pressure-only equation of state
                       p(J) = bulk ((1/J)^gamma - 1)

All stresses are measured per unit initial volume (first Piola wrt the
initial configuration).  Inverted elements are handled through a signed
SVD convention: U and V are proper rotations and the smallest singular
value carries the sign of det F.

A batch of 2x2 matrices, one per particle, is a (2, 2, n) array, so entry
[i, j] is one (n,) row.  The code unpacks a batch with (a, b), (c, d) = F,
builds one with np.array([[a, b], [c, d]]) and reads inputs of any memory
layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SceneError

FIXED_COROTATED = "fixed_corotated"
SNOW = "snow"
FLUID = "weakly_compressible_fluid"

KINDS = (FIXED_COROTATED, SNOW, FLUID)

# determinant floor for the fluid equation of state
J_FLOOR = 1e-6
# cap on the hardening exponent to keep exp() finite
HARDENING_CAP = 30.0


@dataclass(frozen=True)
class MaterialModel:
    kind: str
    density: float
    mu: float = 0.0
    lam: float = 0.0
    theta_c: float = 2.5e-2
    theta_s: float = 7.5e-3
    hardening: float = 10.0
    bulk: float = 0.0
    gamma: float = 7.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SceneError(f"unknown material kind {self.kind!r}")
        if self.density <= 0.0:
            raise SceneError("density must be positive")
        if self.mu < 0.0 or self.lam < 0.0 or self.bulk < 0.0:
            raise SceneError("moduli must be non-negative")
        if self.kind == FLUID and self.gamma <= 1.0:
            raise SceneError(f"fluid gamma must exceed 1, got {self.gamma:g}")

    @classmethod
    def from_youngs(cls, kind: str, density: float, youngs: float, poisson: float,
                    **kw) -> "MaterialModel":
        mu = youngs / (2.0 * (1.0 + poisson))
        lam = youngs * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
        return cls(kind=kind, density=density, mu=mu, lam=lam, **kw)

    @classmethod
    def fluid(cls, density: float, bulk: float, **kw) -> "MaterialModel":
        return cls(kind=FLUID, density=density, bulk=bulk, **kw)


@dataclass
class StressState:
    """First Piola stress (2, 2, n) at the gradients F (2, 2, n) of one
    material, and the energy density (n,) there, evaluated on first read.

    For the corotated kinds it also keeps the factors `hessian_action` reuses
    at the same gradient: the Lame moduli (mu, lam) and the polar rotation
    (cos, sin, tr(R^T F)); both are None for the fluid.  A time step reads
    P alone, so it never pays for the energy.
    """

    P: np.ndarray
    F: np.ndarray
    model: MaterialModel
    moduli: tuple | None = None
    rotation: tuple | None = None

    @cached_property
    def energy(self) -> np.ndarray:
        return _energy(self)


# ------------------------------------------------------------ linear algebra


def det(F: np.ndarray) -> np.ndarray:
    (a, b), (c, d) = F
    return a * d - b * c


def inverse(F: np.ndarray) -> np.ndarray:
    (a, b), (c, d) = F
    j = a * d - b * c
    return np.array([[d / j, -b / j], [-c / j, a / j]])


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B per matrix of the batch."""
    return np.einsum("ijn,jkn->ikn", A, B)


def _svd_angles(F: np.ndarray):
    """Signed SVD F = U(tu) diag(s1, s2) U(tv)^T with rotations U(t).

    The smallest singular value s2 carries the sign of det F."""
    (a, b), (c, d) = np.asarray(F, dtype=np.float64)
    x1, y1 = a + d, c - b
    x2, y2 = a - d, b + c
    h1 = np.hypot(x1, y1)
    h2 = np.hypot(x2, y2)
    t1 = np.arctan2(y1, x1)   # tu - tv
    t2 = np.arctan2(y2, x2)   # tu + tv
    return (t1 + t2) * 0.5, (t2 - t1) * 0.5, (h1 + h2) * 0.5, (h1 - h2) * 0.5


def _rotation(x1, y1):
    """cos and sin of the polar rotation angle atan2(y1, x1) of F, with
    x1 = F00 + F11 and y1 = F10 - F01; the identity where both vanish.
    Also returns h1 = hypot(x1, y1) = tr(R^T F)."""
    h1 = np.hypot(x1, y1)
    safe = np.where(h1 > 0.0, h1, 1.0)
    return np.where(h1 > 0.0, x1 / safe, 1.0), y1 / safe, h1


# ------------------------------------------------------------------- stress


def _corotated(F, mu, lam):
    (a, b), (c, d) = F
    rotation = cs, sn, _ = _rotation(a + d, c - b)
    # P = 2 mu (F - R) + lam (J - 1) cof(F)
    m2 = 2.0 * mu
    k = lam * (a * d - b * c - 1.0)
    P = np.array([[m2 * (a - cs) + k * d, m2 * (b + sn) - k * c],
                  [m2 * (c - sn) - k * b, m2 * (d - cs) + k * a]])
    return P, rotation


def _energy(ss: StressState) -> np.ndarray:
    """The energy density of a stress state, from its gradients and, for the
    corotated kinds, its moduli and tr(R^T F) = s1 + s2."""
    (a, b), (c, d) = ss.F
    J = a * d - b * c
    if ss.model.kind == FLUID:
        J = np.maximum(J, J_FLOOR)
        k = ss.model.bulk
        g = ss.model.gamma
        return k * (J + J ** (1.0 - g) / (g - 1.0) - g / (g - 1.0))
    mu, lam = ss.moduli
    h1 = ss.rotation[2]
    h2 = np.hypot(a - d, b + c)
    s1 = (h1 + h2) * 0.5
    s2 = (h1 - h2) * 0.5
    return mu * ((s1 - 1.0) ** 2 + (s2 - 1.0) ** 2) + 0.5 * lam * (J - 1.0) ** 2


def _moduli(model: MaterialModel, J_plastic):
    """Lame parameters of a corotated material: scalars, or per particle
    for snow (hardened by J_plastic, 1 when absent)."""
    if model.kind != SNOW or J_plastic is None:
        return model.mu, model.lam
    jp = np.asarray(J_plastic, dtype=np.float64)
    h = np.exp(np.clip(model.hardening * (1.0 - jp), -HARDENING_CAP, HARDENING_CAP))
    return model.mu * h, model.lam * h


def energy_and_piola(F: np.ndarray, model: MaterialModel,
                     J_plastic: np.ndarray | None = None) -> StressState:
    """First Piola stress for a batch of gradients, and the energy density
    on first read of the result's `energy`.

    For snow, F is the elastic factor and J_plastic feeds the hardening
    multiplier; for the fluid only det F matters.
    """
    F = np.asarray(F, dtype=np.float64)
    if model.kind == FLUID:
        (a, b), (c, d) = F
        J = np.maximum(a * d - b * c, J_FLOOR)
        p = model.bulk * (1.0 - J ** (-model.gamma))
        return StressState(P=np.array([[p * d, -p * c], [-p * b, p * a]]), F=F, model=model)
    mu, lam = _moduli(model, J_plastic)
    P, rotation = _corotated(F, mu, lam)
    return StressState(P=P, F=F, model=model, moduli=(mu, lam), rotation=rotation)


# the (i, j), i <= j, of a symmetric 4x4 tangent's 10 distinct entries;
# index k stands for the 2x2 entry (k // 2, k % 2)
_UPPER = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def hessian_action(stress: StressState, B: np.ndarray, volume=1.0,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The Hessian of X -> volume psi(X B) at X B = F, the gradient of
    `stress` (a result of `energy_and_piola`): per particle the symmetric
    4x4 map, (4, 4, n), from the entries of dX to those of
    volume dP(F)[dX B] B^T, written into `out` when given.  The material,
    the moduli and the polar rotation are those of `stress`.

    In entries dP(F)[dF] = H dF.  Corotated and snow have
    H = 2 mu I - (2 mu / tr) q q^T + lam c c^T + lam (J - 1) K, the fluid
    H = p'(J) c c^T + p(J) K (J floored at J_FLOOR), with tr = tr(R^T F)
    floored at 1e-10, q and c the entries of Q = R [[0, -1], [1, 0]] and
    cof(F), and K the cofactor map (e, f, g, h) -> (h, -g, -f, e).  Pulled
    back through dX -> dX B, I becomes I (x) B B^T, q and c become the
    entries of Q B^T and cof(F) B^T, and K becomes det(B) K.  For snow, F
    is the elastic factor and the moduli are the hardened ones.
    """
    model = stress.model
    (a, b), (c, d) = stress.F
    (p, q), (r, s) = np.asarray(B, dtype=np.float64)
    if out is None:
        out = np.empty((4, 4) + a.shape)
    upper = [out[i, j] for i, j in _UPPER]
    det_b = p * s - q * r
    # entries of cof(F) B^T, cof(F) = [[d, -c], [-b, a]]
    ch = (d * p - c * q, d * r - c * s, a * q - b * p, a * s - b * r)
    if model.kind == FLUID:
        J = np.maximum(a * d - b * c, J_FLOOR)
        gam = model.gamma
        k_c = model.bulk * gam * J ** (-gam - 1.0) * volume   # p'(J)
        k_cof = model.bulk * (1.0 - J ** (-gam)) * det_b * volume
    else:
        mu, lam = stress.moduli
        k_c = lam * volume
        k_cof = k_c * (a * d - b * c - 1.0) * det_b
    kc = [k_c * x for x in ch]
    for t, (i, j) in zip(upper, _UPPER):
        np.multiply(kc[i], ch[j], out=t)
    out[0, 3] += k_cof
    out[1, 2] -= k_cof
    if model.kind != FLUID:
        cs, sn, tr = stress.rotation
        m2 = 2.0 * mu * volume
        beta = m2 / np.maximum(tr, 1e-10)
        # entries of -Q B^T, Q = [[-sn, -cs], [cs, -sn]]; the sign drops out of q q^T
        qh = (sn * p + cs * q, sn * r + cs * s, sn * q - cs * p, sn * s - cs * r)
        bq = [beta * x for x in qh]
        for t, (i, j) in zip(upper, _UPPER):
            t -= bq[i] * qh[j]
        # I (x) B B^T: the same 2x2 block B B^T for both rows of dX
        bb00, bb01, bb11 = m2 * (p * p + q * q), m2 * (p * r + q * s), m2 * (r * r + s * s)
        for i in (0, 2):
            out[i, i] += bb00
            out[i, i + 1] += bb01
            out[i + 1, i + 1] += bb11
    for i, j in _UPPER:
        if i != j:
            out[j, i] = out[i, j]
    return out


def plastic_project(F_elastic: np.ndarray, F_plastic: np.ndarray,
                    model: MaterialModel) -> np.ndarray:
    """The plastic factor after clamping the elastic singular values: the
    excess goes into it, so that the product F_elastic F_plastic is
    preserved.  Other kinds than snow keep F_plastic."""
    if model.kind != SNOW:
        return F_plastic
    _, tv, s1, s2 = _svd_angles(F_elastic)
    lo, hi = 1.0 - model.theta_c, 1.0 + model.theta_s
    # F_p' = V diag(s1 / c1, s2 / c2) V^T F_p with the clamped c = clip(s),
    # so that F_e' = U diag(c1, c2) V^T keeps F_e' F_p' = F_e F_p
    k1 = s1 / np.clip(s1, lo, hi)
    k2 = s2 / np.clip(s2, lo, hi)
    cv, sv = np.cos(tv), np.sin(tv)
    m01 = (k1 - k2) * cv * sv
    M = np.array([[k1 * cv * cv + k2 * sv * sv, m01], [m01, k1 * sv * sv + k2 * cv * cv]])
    return matmul(M, F_plastic)
