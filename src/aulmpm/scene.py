"""Scene description: loading, validation and particle sampling.

Scenes are JSON documents with a 2-D grid box, a solver block, a list of
objects (shape + material + initial motion) and optional collision
geometry.  Every vector has exactly two components; the schema rejects
3-D scenes.  `load_scene` accepts a path or an already-parsed dict,
validates it against the bundled schema plus a handful of semantic
checks, and returns a `Scene`.  The schema checks each value; `_TYPE_KEYS`
says which keys each material, shape and collider type reads, and a key
its type does not read is an error, not a silent default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .constitutive import FIXED_COROTATED, FLUID, SNOW, MaterialModel
from .errors import SceneError
from .grid import HalfSpace, SphereObstacle
from .kinematics import UpdatePolicy

SCHEMA = json.loads(
    resources.files("aulmpm").joinpath("data/scene.schema.json").read_text())
_VALIDATOR = jsonschema.Draft7Validator(SCHEMA)

# each type's keys besides "type": those it needs, then those it may set
_TYPE_KEYS = {
    FIXED_COROTATED: (("density", "youngs", "poisson"), ()),
    SNOW: (("density", "youngs", "poisson"), ("theta_c", "theta_s", "hardening")),
    FLUID: (("density", "bulk"), ("gamma",)),
    "disk": (("center", "radius"), ()),
    "box": (("min", "max"), ()),
    "half_space": (("point", "normal"), ("mode",)),
    "sphere": (("center", "radius"), ("mode",)),
}


@dataclass
class SolverConfig:
    dt: float
    steps: int
    frame_dt: float | None = None
    integrator: str = "explicit"
    transfer: str = "least_squares"
    mode: str = "adaptive"
    seed: int = 0

    def __post_init__(self):
        # the schema's integers admit 5.0 as well as 5
        self.dt, self.steps, self.seed = float(self.dt), int(self.steps), int(self.seed)


@dataclass
class ObjectSpec:
    name: str
    shape: dict
    spacing: float
    material: MaterialModel
    jitter: float = 0.0
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))
    angular_velocity: float = 0.0
    update: UpdatePolicy | None = None


@dataclass
class Scene:
    name: str
    origin: np.ndarray
    size: np.ndarray
    cells: np.ndarray
    gravity: np.ndarray
    solver: SolverConfig
    objects: list[ObjectSpec]
    colliders: list

    @property
    def dx(self) -> float:
        return float(self.size[0] / self.cells[0])

    def with_cells(self, level: int) -> "Scene":
        """Same scene on a grid of `level` cells along x; the cell count
        along y keeps the domain's aspect ratio and must come out whole."""
        nx, ny = (int(c) for c in self.cells)
        if level * ny % nx:
            raise SceneError(f"level {level} gives {level * ny / nx:g} cells along y "
                             f"on a {nx}x{ny} grid; pick a level that gives a whole count")
        return replace(self, cells=np.array([level, level * ny // nx], dtype=np.int64))


def _vec(raw, what: str) -> np.ndarray:
    v = np.asarray(raw, dtype=np.float64)
    if v.shape != (2,):
        raise SceneError(f"{what} must have 2 components, got {list(raw)}")
    return v


def _given(raw: dict, *keys: str) -> dict:
    """The optional keys the scene sets; the dataclasses hold every default."""
    return {key: raw[key] for key in keys if key in raw}


def _typed(raw: dict, what: str) -> tuple[str, dict]:
    """A material, shape or collider block's type and the optional keys it
    sets; raises unless it has every key its type needs and no other."""
    kind = raw["type"]
    need, may = _TYPE_KEYS[kind]
    missing = [key for key in need if key not in raw]
    if missing:
        raise SceneError(f"{kind} {what} needs {', '.join(need[:-1])} and {need[-1]}; "
                         f"missing {', '.join(missing)}")
    unread = sorted(set(raw) - {"type", *need, *may})
    if unread:
        raise SceneError(f"{kind} {what} does not read {', '.join(map(repr, unread))}; "
                         f"its keys are {', '.join(need + may)}")
    return kind, _given(raw, *may)


def _material_from(raw: dict) -> MaterialModel:
    kind, extra = _typed(raw, "material")
    if kind == FLUID:
        return MaterialModel.fluid(density=raw["density"], bulk=raw["bulk"], **extra)
    return MaterialModel.from_youngs(kind, density=raw["density"],
                                     youngs=raw["youngs"],
                                     poisson=raw["poisson"], **extra)


def _collider_from(raw: dict):
    kind, mode = _typed(raw, "collider")
    if kind == "half_space":
        normal = _vec(raw["normal"], "collider normal")
        if np.linalg.norm(normal) == 0.0:
            raise SceneError("collider normal must be nonzero")
        return HalfSpace(point=_vec(raw["point"], "collider point"),
                         normal=normal, **mode)
    return SphereObstacle(center=_vec(raw["center"], "collider center"),
                          radius=float(raw["radius"]), **mode)


def _shape_bounds(shape: dict) -> tuple[np.ndarray, np.ndarray]:
    if _typed(shape, "shape")[0] == "disk":
        c = _vec(shape["center"], "disk center")
        r = float(shape["radius"])
        return c - r, c + r
    lo = _vec(shape["min"], "box min")
    hi = _vec(shape["max"], "box max")
    if np.any(hi <= lo):
        raise SceneError("box max must exceed box min on every axis")
    return lo, hi


def sample_shape(shape: dict, spacing: float, jitter: float = 0.0,
                 rng=None) -> np.ndarray:
    """Cell-centered lattice of pitch `spacing` clipped to the shape.

    The lattice is anchored at the shape's lower bound, so the point count
    depends only on the shape and the spacing, never on the grid.
    """
    lo, hi = _shape_bounds(shape)
    axes = []
    for k in range(2):
        # relative nudge so exact multiples are not lost to rounding
        count = int(math.floor((hi[k] - lo[k]) / spacing * (1.0 + 1e-12)))
        axes.append(lo[k] + (np.arange(count) + 0.5) * spacing)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    if shape["type"] == "disk":
        c = _vec(shape["center"], "disk center")
        keep = np.einsum("nd,nd->n", pts - c, pts - c) <= float(shape["radius"]) ** 2
        pts = pts[keep]
    if pts.shape[0] == 0:
        raise SceneError("shape produced no particles; spacing too coarse")
    if jitter > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        pts = pts + jitter * spacing * rng.uniform(-0.5, 0.5, size=pts.shape)
    return pts


def _object_from(raw: dict, index: int) -> ObjectSpec:
    extra = _given(raw, "jitter", "angular_velocity")
    if "velocity" in raw:
        extra["velocity"] = _vec(raw["velocity"], "object velocity")
    if "update" in raw:
        extra["update"] = UpdatePolicy(**raw["update"])
    return ObjectSpec(name=raw.get("name", f"object{index}"),
                      shape=raw["shape"], spacing=float(raw["spacing"]),
                      material=_material_from(raw["material"]), **extra)


def bundled_scene(name: str) -> Scene:
    """Load one of the scenes shipped with the package by bare name."""
    ref = resources.files("aulmpm").joinpath(f"data/scenes/{name}.json")
    try:
        text = ref.read_text()
    except FileNotFoundError:
        have = sorted(p.name[:-5] for p in
                      resources.files("aulmpm").joinpath("data/scenes").iterdir())
        raise SceneError(f"no bundled scene {name!r}; have {have}") from None
    return load_scene(json.loads(text))


def _reject_non_finite(value, path: str = "") -> None:
    """Raise on NaN or an infinity anywhere in a parsed scene; JSON has neither."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            _reject_non_finite(item, f"{path}/{key}" if path else str(key))
    elif isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise SceneError(f"scene holds the non-finite number {json.dumps(float(value))} at "
                         f"{path or '(top level)'}; every number must be finite")


def _whole_steps(frame_dt: float, dt: float) -> None:
    """Raise unless frame_dt = k dt for a whole k >= 1 to 1e-9 relative, so no
    frame falls between steps."""
    ratio = frame_dt / dt
    k = round(ratio) if math.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-9 * k:
        raise SceneError(f"solver frame_dt {frame_dt:g} is not a whole number of steps "
                         f"of dt {dt:g} ({ratio:.6g} steps)")


def load_scene(source) -> Scene:
    """Parse and validate a scene from a JSON file's path or a parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise SceneError(f"cannot read scene {source}: {exc}") from None
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SceneError(f"scene {source} is not valid JSON: {exc}") from None
    _reject_non_finite(raw)
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise SceneError(f"invalid scene at {where}: {exc.message}")

    grid = raw["grid"]
    origin = np.asarray(grid["origin"], dtype=np.float64)
    size = np.asarray(grid["size"], dtype=np.float64)
    cells = np.asarray(grid["cells"], dtype=np.int64)
    if np.any(size <= 0):
        raise SceneError("grid size must be positive")
    dx = size / cells
    if not np.allclose(dx, dx[0], rtol=1e-12, atol=0.0):
        raise SceneError("grid cells must be square; size/cells must match per axis")

    # the schema's solver keys are exactly SolverConfig's fields
    solver = SolverConfig(**raw["solver"])
    if solver.frame_dt is not None:
        _whole_steps(solver.frame_dt, solver.dt)

    gravity = _vec(raw.get("gravity", (0.0, 0.0)), "gravity")

    objects = [_object_from(o, i) for i, o in enumerate(raw["objects"])]
    margin = 2.0 * float(dx[0])
    for obj in objects:
        lo, hi = _shape_bounds(obj.shape)
        if np.any(lo < origin + margin) or np.any(hi > origin + size - margin):
            raise SceneError(
                f"object {obj.name!r} must stay {margin:g} away from the domain edge")

    colliders = [_collider_from(c) for c in raw.get("colliders", [])]
    return Scene(name=raw.get("name", "scene"), origin=origin, size=size,
                 cells=cells, gravity=gravity, solver=solver,
                 objects=objects, colliders=colliders)
