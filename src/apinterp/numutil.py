"""Small numeric helpers: 1-D search, the quadrature wrapper, the close-pair
search (a k-d tree, returning arrays) and the dense pairwise kernels."""

import math

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from .errors import NumericError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Relative widening of the k-d tree radius in close_pair_arrays, so that the
#: tree's own distance rounding never drops a pair with d < cutoff.
_PAIR_SLACK = 8 * np.finfo(float).eps


def golden_section_max(f, a: float, b: float, tol: float = 1e-6, max_iter: int = 200):
    """Maximize a scalar function on [a, b]; returns the best point seen.

    Only locally reliable (unimodal bracket assumed); the caller keeps the
    result honest by comparing against its own candidate grid.
    """
    best_x, best_f = a, f(a)
    fb = f(b)
    if fb > best_f:
        best_x, best_f = b, fb
    lo, hi = a, b
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if f1 > best_f:
            best_x, best_f = x1, f1
        if f2 > best_f:
            best_x, best_f = x2, f2
        if hi - lo < tol:
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    return best_x, best_f


def adaptive_quad(f, a: float, b: float, *, epsabs: float = 1e-10,
                  epsrel: float = 1e-10):
    """scipy.integrate.quad with error checking; returns (value, abserr).

    Raises NumericError when QUADPACK reports failure and the error estimate
    is materially above the requested tolerance.
    """
    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1)
    val, err = out[0], out[1]
    if len(out) > 3:
        budget = 50.0 * max(epsabs, abs(val) * epsrel, 1e-300)
        if not math.isfinite(val) or err > budget:
            raise NumericError(
                f"quadrature on [{a}, {b}] did not converge: "
                f"estimate {val!r}, error {err!r} ({out[3]})")
    return val, err


def close_pair_arrays(lam: np.ndarray, cutoff: float):
    """(i, j, d) arrays of the pairs with i < j and distance d < cutoff, in
    canonical (i, j) order.

    A k-d tree finds the candidates within a radius widened by a few ulp; d
    is then np.hypot of the component differences (the same bits as the
    scalar abs(lam[i] - lam[j])), so membership is decided by d < cutoff
    alone.
    """
    tree = cKDTree(np.column_stack([lam.real, lam.imag]))
    ij = tree.query_pairs(cutoff * (1.0 + _PAIR_SLACK), output_type="ndarray")
    i, j = ij[np.lexsort((ij[:, 1], ij[:, 0]))].T
    d = np.hypot(lam.real[i] - lam.real[j], lam.imag[i] - lam.imag[j])
    keep = d < cutoff
    return i[keep], j[keep], d[keep]


# The dense pairwise kernels.  Each value is one numpy pairwise sum over its
# own terms in canonical point order, so it is the same bits whether it is
# computed alone or in a batch, and its error is at most about
# eps * log2(n) * sum |terms|.

#: Centers per block: bounds the (block x points) temporaries; no value
#: depends on it.
_ROWS = 64

#: Relative widening of the modulus window in truncated_log_sums, so that
#: rounding in |lambda|, |c| and |lambda - c| never drops an in-disk point.
_WINDOW_SLACK = 8 * np.finfo(float).eps


def _row_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-row sums of a ragged array stored row after row; empty rows give 0."""
    out = np.zeros(counts.size)
    full = counts > 0
    if full.any():
        out[full] = np.add.reduceat(terms, (np.cumsum(counts) - counts)[full])
    return out


def _disk_blocks(abs_lam, centers, radii):
    """(lo, a, b) per block of _ROWS centers: the points lam[a:b] are the only
    ones whose modulus the block's disks can reach."""
    for lo in range(0, centers.size, _ROWS):
        abs_c, r = np.abs(centers[lo:lo + _ROWS]), radii[lo:lo + _ROWS]
        slack = _WINDOW_SLACK * np.max(abs_c + r)
        a = int(np.searchsorted(abs_lam, np.min(abs_c - r) - slack, side="left"))
        b = int(np.searchsorted(abs_lam, np.max(abs_c + r) + slack, side="right"))
        yield lo, a, b


def truncated_log_sum_terms(lam: np.ndarray, centers, radii) -> int:
    """Number of center-point distances truncated_log_sums builds."""
    centers = np.asarray(centers, dtype=complex)
    radii = np.maximum(np.asarray(radii, dtype=float), 0.0)
    return sum((min(lo + _ROWS, centers.size) - lo) * (b - a)
               for lo, a, b in _disk_blocks(np.abs(lam), centers, radii))


def truncated_log_sums(lam: np.ndarray, mult: np.ndarray, centers, radii,
                       include_center: bool = False) -> np.ndarray:
    """Integrated count at each center with its own radius.

    Value i is the sum over 0 < |lambda - c_i| <= r_i of
    mult * log(r_i / |lambda - c_i|), plus mult(c_i) * log r_i when
    include_center is set; a center with a non-positive radius gets 0.
    lam must be sorted by modulus (the canonical Variety order), so a block
    of centers scans only the annulus of moduli its disks can reach, and
    logs are taken of in-disk distances only.
    """
    centers = np.asarray(centers, dtype=complex)
    radii = np.maximum(np.asarray(radii, dtype=float), 0.0)
    out = np.empty(centers.size)
    for lo, a, b in _disk_blocks(np.abs(lam), centers, radii):
        c, r = centers[lo:lo + _ROWS], radii[lo:lo + _ROWS]
        d = np.abs(lam[a:b] - c[:, None])
        inside = (d > 0) & (d <= r[:, None])
        counts = inside.sum(axis=1)
        log_r = np.log(np.where(r > 0, r, 1.0))
        terms = np.broadcast_to(mult[a:b], d.shape)[inside] * (
            np.repeat(log_r, counts) - np.log(d[inside]))
        vals = _row_sums(terms, counts)
        if include_center:
            vals += np.where(d == 0, mult[a:b], 0).sum(axis=1) * log_r
        out[lo:lo + _ROWS] = vals
    return out


def _prefix_row_sums(terms, row_ends, col_ends) -> list:
    """Row sums of a term matrix over nested prefixes, one block of rows at a
    time.

    terms(lo, hi, n) returns the (hi - lo) x n terms of rows lo:hi against
    columns :n.  Entry k of the result holds, for each row i < row_ends[k],
    the sum of its first col_ends[k] terms.  Each block of terms is built
    once, against the widest prefix any entry needs, and every entry sums its
    own column prefix of it; a row sum depends only on its own terms, so each
    entry is the same bits as a call with that one prefix.
    """
    row_ends = [int(e) for e in row_ends]
    col_ends = [int(e) for e in col_ends]
    out = [np.zeros(e) for e in row_ends]
    n_rows = max(row_ends, default=0)
    for lo in range(0, n_rows, _ROWS):
        live = [k for k, e in enumerate(row_ends) if e > lo]
        t = terms(lo, min(lo + _ROWS, n_rows), max(col_ends[k] for k in live))
        for k in live:
            out[k][lo:lo + _ROWS] = t[:row_ends[k] - lo, :col_ends[k]].sum(axis=1)
    return out


def _log_rho(lam, mult, centers, row_ends, col_ends) -> list:
    """Exclusion sums of centers[:row_ends[k]] against lam[:col_ends[k]]."""
    centers = np.asarray(centers, dtype=complex)

    def terms(lo, hi, n):
        c = centers[lo:hi, None]
        pts = lam[:n]
        dx = c.real - pts.real
        q = c.imag - pts.imag
        q *= q
        q += dx * dx
        t = np.divide((4.0 * c.imag) * pts.imag, q, out=np.zeros_like(q), where=q > 0)
        np.log1p(t, out=t)
        t *= mult[:n]
        return t

    return [0.5 * s for s in _prefix_row_sums(terms, row_ends, col_ends)]


def log_rho_sums(lam: np.ndarray, mult: np.ndarray, centers) -> np.ndarray:
    """Blaschke exclusion sum at each center of the upper half-plane.

    Value i is the sum over lambda != c_i of mult * log(1/rho(c_i, lambda)),
    rho(c, lambda) = |c - lambda| / |c - conj lambda|.  Since
    |c - conj lambda|^2 = |c - lambda|^2 + 4 Im c Im lambda, each term is
    (1/2) log1p(4 Im c Im lambda / |c - lambda|^2), with no cancellation when
    rho is near 1.  A point at c_i contributes an exact 0 in its slot, so
    rows stay dense (a ragged gather made the full sweep much slower) and
    still give the same bits batched or alone.
    """
    return _log_rho(lam, mult, centers, [np.size(centers)], [lam.size])[0]


def log_rho_prefix_sums(lam: np.ndarray, mult: np.ndarray, ends) -> list:
    """Exclusion sums within nested prefixes of the points themselves.

    Entry k equals log_rho_sums(lam[:e], mult[:e], lam[:e]) for e = ends[k],
    bit for bit, while each term is evaluated once for all entries.
    """
    return _log_rho(lam, mult, lam, ends, ends)


def poisson_sums(lam: np.ndarray, mult: np.ndarray, xs) -> np.ndarray:
    """Poisson balayage at each real abscissa x: the sum of
    mult * |Im lambda| / |x - lambda|^2.  No point may be real."""
    return poisson_prefix_sums(lam, mult, xs, [lam.size])[0]


def poisson_prefix_sums(lam: np.ndarray, mult: np.ndarray, xs, ends) -> list:
    """Balayage of nested prefixes of the points at every abscissa.

    Entry k equals poisson_sums(lam[:e], mult[:e], xs) for e = ends[k], bit
    for bit, while each term is evaluated once for all entries.
    """
    xs = np.asarray(xs, dtype=float)
    weight = mult * np.abs(lam.imag)
    im2 = lam.imag * lam.imag

    def terms(lo, hi, n):
        d = xs[lo:hi, None] - lam.real[:n]
        d *= d
        d += im2[:n]
        np.divide(weight[:n], d, out=d)
        return d

    return _prefix_row_sums(terms, [xs.size] * len(ends), ends)
