"""Parametric point-configuration families used by tests and sweeps."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError, check_spec_keys
from .variety import Variety

INTEGER_LATTICE = "integer_lattice"
HORIZONTAL_LINE = "horizontal_line"
DYADIC_ANGLE = "dyadic_angle"
PERTURBED_LATTICE = "perturbed_lattice"
STRIP_RANDOM = "strip_random"
GEOMETRIC_RAY = "geometric_ray"

_FAMILIES = (INTEGER_LATTICE, HORIZONTAL_LINE, DYADIC_ANGLE,
             PERTURBED_LATTICE, STRIP_RANDOM, GEOMETRIC_RAY)

MAX_POINTS = 2 ** 21   # checked before a builder allocates; dyadic_angle 1..20 fits


def _check_count(count: float) -> None:
    if not count <= MAX_POINTS:
        raise DomainError(f"family spec asks for {count:.4g} points, more than {MAX_POINTS}")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        check_spec_keys(f"family {self.family!r}", self.params, _BUILDERS[self.family])

    def to_dict(self) -> dict:
        return {"family": self.family, **self.params}

    @classmethod
    def from_dict(cls, cfg: dict) -> "FamilySpec":
        if not isinstance(cfg, dict):
            raise InputError("family spec must be a JSON object")
        cfg = dict(cfg)
        family = cfg.pop("family", None)
        return cls(family, cfg)


def _points(re, im, mult, window: float) -> Variety:
    """The variety of the points re + i im, each of multiplicity mult."""
    lam = np.empty(np.size(re), dtype=complex)
    lam.real, lam.imag = re, im
    return Variety.from_arrays(lam, np.full(lam.size, mult), window)


def generate(spec: FamilySpec) -> Variety:
    """Deterministic construction; the same spec (and seed) gives the same
    variety bit for bit."""
    return _BUILDERS[spec.family](**spec.params)


def _integer_lattice(mult: int = 1, window: float = 100.0) -> Variety:
    _check_count(2 * math.floor(window) + 1)
    ks = np.arange(-math.floor(window), math.floor(window) + 1)
    return _points(ks, 0.0, mult, window)


def _horizontal_line(height: float = 1.0, spacing: float = 1.0, mult: int = 1,
                     extent: float = 100.0) -> Variety:
    if spacing <= 0:
        raise DomainError("spacing must be positive")
    _check_count(2 * extent / spacing + 1)
    n = math.floor(extent / spacing)
    ks = np.arange(-n, n + 1)
    return _points(ks * spacing, height, mult, math.hypot(extent, height) * 1.01)


def _dyadic_angle(n_min: int = 1, n_max: int = 10) -> Variety:
    """Rows of 2^n points at height 2^n, spacing two, strictly inside the
    angle |Re z| < Im z.  Per-row real parts are the cell centers
    -2^n + 1, -2^n + 3, ..., 2^n - 1."""
    if not 1 <= n_min <= n_max:
        raise DomainError("need 1 <= n_min <= n_max")
    _check_count(2 ** (n_max + 1) - 2 ** n_min if n_max < 64 else math.inf)
    rows = [float(2 ** n) for n in range(n_min, n_max + 1)]
    re = np.concatenate([np.arange(-h + 1.0, h, 2.0) for h in rows])
    im = np.repeat(rows, [int(h) for h in rows])
    return _points(re, im, 1, float(2 ** (n_max + 1)))


def _perturbed_lattice(amplitude: float = 0.25, seed: int = 0,
                       half_count: int = 100) -> Variety:
    if not 0 <= amplitude < 0.5:
        raise DomainError("amplitude must lie in [0, 1/2)")
    if seed < 0:
        raise DomainError("seed must be non-negative")
    _check_count(2 * half_count + 1)
    rng = np.random.default_rng(seed)
    ks = np.arange(-half_count, half_count + 1)
    jitter = amplitude * (rng.uniform(-1, 1, ks.size)
                          + 1j * rng.uniform(-1, 1, ks.size))
    lam = ks + jitter
    return _points(lam.real, lam.imag, 1, half_count + 1.0)


def _strip_random(count: int = 200, strip_height: float = 1.0, seed: int = 0,
                  half_width: float = 100.0) -> Variety:
    if count < 0 or seed < 0:
        raise DomainError("count and seed must be non-negative")
    # The sampled intervals have widths 2 * half_width and 2 * strip_height.
    if not (0 <= half_width and 0 <= strip_height
            and math.isfinite(2.0 * max(half_width, strip_height))):
        raise DomainError("half_width and strip_height must be non-negative and "
                          "below half the largest float")
    _check_count(count)
    rng = np.random.default_rng(seed)
    re = rng.uniform(-half_width, half_width, count)
    im = rng.uniform(-strip_height, strip_height, count)
    return _points(re, im, 1, math.hypot(half_width, strip_height) * 1.01)


def _geometric_ray(ratio: float = 0.5, count: int = 20) -> Variety:
    """Collapsing ray lambda_k = k * ratio^k, a family whose nearest-pair
    distances shrink geometrically while the weight stays bounded."""
    if not 0.0 < ratio < 1.0:
        raise DomainError("ratio must lie in (0, 1)")
    if count < 1:
        raise DomainError("count must be positive")
    _check_count(count)
    pts = [(complex(k * ratio ** k, 0.0), 1) for k in range(1, count + 1)]
    window = 2.0 * max(p[0].real for p in pts)
    return Variety(pts, window_radius=window)


_BUILDERS = {
    INTEGER_LATTICE: _integer_lattice,
    HORIZONTAL_LINE: _horizontal_line,
    DYADIC_ANGLE: _dyadic_angle,
    PERTURBED_LATTICE: _perturbed_lattice,
    STRIP_RANDOM: _strip_random,
    GEOMETRIC_RAY: _geometric_ray,
}


def expected_profile(spec: FamilySpec) -> dict:
    """Machine-readable expectations, where the family has documented ones."""
    if spec.family == DYADIC_ANGLE:
        return {
            "condition_a": "bounded",
            "condition_b": "divergent",
            "balayage_increment_at_0": math.pi / 4,
        }
    if spec.family == INTEGER_LATTICE:
        return {
            "condition_a": "bounded",
            "condition_a_limit_constant": 2.0,
            "condition_b": "zero",
        }
    return {}


def dyadic_row(n: int) -> Variety:
    """A single height-2^n row of the dyadic angle family."""
    return _dyadic_angle(n_min=n, n_max=n)
