"""Finite weighted point configurations and their disk counting functions.

A variety is a finite list of distinct complex points with positive integer
multiplicities, plus the truncation radius of the sample window.  Counting
is closed-disk: a point exactly on the boundary circle is included.
"""

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, InvariantViolation
from .numutil import close_pair_arrays, truncated_log_sums
from .weights import BeurlingWeight

P_MIN = 1.0  # floor used when dividing by p(lambda) near the origin


@dataclass(frozen=True)
class WeightedPoint:
    lam: complex
    mult: int

    def __post_init__(self):
        if int(self.mult) < 1:
            raise DomainError("multiplicity must be a positive integer")


class Variety:
    """Immutable weighted point configuration.

    Construction merges coincident coordinates into a single point with
    summed multiplicity (0.0 and -0.0 coincide; the first occurrence's
    coordinates are kept) and sorts points by (|lambda|, arg lambda), ties
    in first-occurrence order, so that iteration order, and therefore every
    kernel sum, is deterministic.  Every coordinate must be finite.
    """

    def __init__(self, points, window_radius: float | None = None):
        pairs = [(p.lam, p.mult) if isinstance(p, WeightedPoint) else p for p in points]
        self._build(np.array([complex(p[0]) for p in pairs], dtype=complex),
                    np.array([int(p[1]) for p in pairs], dtype=np.int64), window_radius)

    @classmethod
    def from_arrays(cls, lam, mult, window_radius: float | None = None) -> "Variety":
        """cls(zip(lam, mult), window_radius) without the per-point loop."""
        v = cls.__new__(cls)
        v._build(np.asarray(lam, dtype=complex).ravel(),
                 np.asarray(mult, dtype=np.int64).ravel(), window_radius)
        return v

    def _build(self, lam, mult, window_radius) -> None:
        if np.any(mult < 1):
            raise DomainError("multiplicity must be a positive integer")
        finite = np.isfinite(lam.real) & np.isfinite(lam.imag)
        if not finite.all():
            z = complex(lam[np.argmin(finite)])
            raise DomainError(f"point ({z.real!r}, {z.imag!r}) has a non-finite coordinate")
        self.merged_count = 0
        if lam.size:
            # np.unique compares with ==, so 0.0 and -0.0 merge, and it
            # reports the first occurrence of each value.
            _, first, group = np.unique(lam, return_index=True, return_inverse=True)
            total = np.zeros(first.size, np.int64)
            np.add.at(total, group, mult)
            self.merged_count = lam.size - first.size
            seen = np.argsort(first)  # the groups in first-occurrence order
            lam, mult = lam[first[seen]], total[seen]
            order = np.lexsort((np.angle(lam), np.abs(lam)))
            lam, mult = lam[order], mult[order]
        self.lam = lam
        self.mult = mult
        if window_radius is None:
            window_radius = 2.0 * float(np.max(np.abs(lam))) if lam.size else 1.0
            window_radius = max(window_radius, 1.0)
        if not 0 < window_radius < math.inf:
            raise DomainError("window_radius must be a positive finite number")
        self.window_radius = float(window_radius)
        self._check()

    def _check(self) -> None:
        """Subclass hook: reject points outside the subclass's domain."""

    def __len__(self) -> int:
        return int(self.lam.size)

    def __iter__(self):
        for lam, m in zip(self.lam, self.mult):
            yield WeightedPoint(complex(lam), int(m))

    @property
    def points(self) -> list[WeightedPoint]:
        return list(self)

    @property
    def total_mult(self) -> int:
        return int(self.mult.sum())

    def conjugate(self) -> "Variety":
        return Variety.from_arrays(np.conj(self.lam), self.mult, self.window_radius)

    def restrict(self, radius: float) -> "Variety":
        keep = np.abs(self.lam) <= radius
        return type(self).from_arrays(self.lam[keep], self.mult[keep], self.window_radius)

    def scale_mult(self, k: int) -> "Variety":
        return Variety.from_arrays(self.lam, self.mult * int(k), self.window_radius)

    def to_dict(self) -> dict:
        return {
            "points": [{"re": p.lam.real, "im": p.lam.imag, "mult": p.mult}
                       for p in self],
            "window_radius": self.window_radius,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Variety":
        try:
            pts = [(complex(rec["re"], rec["im"]), int(rec.get("mult", 1)))
                   for rec in data["points"]]
            window = data.get("window_radius")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed variety record: {exc}") from exc
        return cls(pts, window)


def load_variety(path) -> Variety:
    """JSON (.json) or CSV (anything else, lines re,im,mult; header optional)."""
    path = str(path)
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: invalid JSON ({exc})") from exc
        v = Variety.from_dict(data)
    else:
        pts = []
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or not "".join(row).strip():
                    continue
                if lineno == 1 and not _numeric(row[0]):
                    continue  # header
                try:
                    re, im = float(row[0]), float(row[1])
                    m = int(row[2]) if len(row) > 2 and row[2].strip() else 1
                except (IndexError, ValueError) as exc:
                    raise InputError(f"{path}:{lineno}: bad record {row!r}") from exc
                pts.append((complex(re, im), m))
        v = Variety(pts)
    if v.merged_count:
        warnings.warn(f"{path}: merged {v.merged_count} duplicate coordinate(s)")
    return v


def save_variety(v: Variety, path) -> None:
    path = str(path)
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(v.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "mult"])
            for p in v:
                writer.writerow([repr(p.lam.real), repr(p.lam.imag), p.mult])


def _numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def count_in_disk(v: Variety, z: complex, r: float) -> int:
    """Total multiplicity in the closed disk of center z and radius r."""
    if not r > 0:
        raise DomainError("radius must be positive")
    if not len(v):
        return 0
    d = np.abs(v.lam - z)
    return int(v.mult[d <= r].sum())


def integrated_count(v: Variety, z: complex, r: float) -> float:
    """Logarithmically integrated counting function.

    Closed form sum over 0 < |lambda - z| <= r of mult * log(r / |lambda - z|),
    plus (multiplicity at z itself) * log r.  With a point at z and r < 1 the
    value can be negative; the formula is kept as written.
    """
    if not r > 0:
        raise DomainError("radius must be positive")
    return float(truncated_log_sums(v.lam, v.mult, [z], [r], include_center=True)[0])


@dataclass
class SeparationProfile:
    worst_pair: tuple[complex, complex] | None
    worst_constant: float
    pairs_examined: int
    floor_hits: int

    def to_dict(self) -> dict:
        pair = None
        if self.worst_pair is not None:
            a, b = self.worst_pair
            pair = [[a.real, a.imag], [b.real, b.imag]]
        return {
            "worst_pair": pair,
            "worst_constant": self.worst_constant,
            "pairs_examined": self.pairs_examined,
            "floor_hits": self.floor_hits,
        }


def separation_profile(v: Variety, w: BeurlingWeight) -> SeparationProfile:
    """Scan pairs closer than 1 for the worst mult * log(1/d) / p ratio.

    For each ordered close pair (lambda, lambda') the scanned quantity is
    mult(lambda') * log(1/|lambda - lambda'|) / max(p(lambda), 1); its
    supremum over the configuration is the weak-separation constant.  The
    witness is the first maximizing pair in canonical (i, j) order.
    """
    if len(v) < 2:
        raise DomainError("separation profile needs at least two points")
    p_vals = w.p(v.lam)
    floor_hits = int(np.sum(p_vals < P_MIN))
    p_vals = np.maximum(p_vals, P_MIN)
    i, j, d = close_pair_arrays(v.lam, 1.0)
    if np.any(d == 0.0):
        raise InvariantViolation("coincident points survived ingestion")
    log_inv = np.log(1.0 / d)
    cand_ij = v.mult[j] * log_inv / p_vals[i]
    cand_ji = v.mult[i] * log_inv / p_vals[j]
    cand = np.maximum(cand_ij, cand_ji)
    worst, worst_pair = float(np.max(cand, initial=0.0)), None
    if worst > 0.0:
        k = int(np.argmax(cand))
        a, b = (i[k], j[k]) if cand_ij[k] >= cand_ji[k] else (j[k], i[k])
        worst_pair = (complex(v.lam[a]), complex(v.lam[b]))
    return SeparationProfile(worst_pair, worst, int(d.size), floor_hits)


def local_density_constant(v: Variety, w: BeurlingWeight, eps: float,
                           samples) -> float:
    """Worst count-in-disk density n(z, eps p(z)) / max(p(z), 1) over samples."""
    if not 0.0 < eps <= 0.5:
        raise DomainError("eps must lie in (0, 1/2]")
    if not len(v):
        return 0.0
    worst = 0.0
    for z in samples:
        z = complex(z)
        pz = w.p(z)
        if pz <= 0:
            continue
        n = count_in_disk(v, z, eps * pz)
        worst = max(worst, n / max(pz, P_MIN))
    return worst
