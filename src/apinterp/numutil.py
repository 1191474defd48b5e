"""Small numeric helpers: 1-D search, the quadrature wrapper, the close-pair
search and the disk windows (sort-based, returning arrays), the dense pairwise
kernels, and what the tree code shares with them: their terms (poisson_terms,
log_rho_terms), disk slack and exact rescaling (DISK_SLACK, binary_scaled),
and the one block rule (_BLOCK_WORDS, row_blocks, blocks).  Only numpy is
imported; scipy loads in adaptive_quad."""

import math

import numpy as np

from .errors import NumericError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITER = 200  # golden_section_max's iteration cap

#: Widening of the row height h in close_pair_arrays, relative to the largest
#: coordinate.  Rounding can only matter to a pair with d near the cutoff,
#: whose coordinates reach at least cutoff / 2, and 2^-40 of them outweighs
#: the few ulp of rounding in d, y / h and x +- h; rows stay below 2^40.
_ROW_SLACK = 2.0 ** -40


def golden_section_max(f, a: float, b: float, tol: float = 1e-6):
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
    for _ in range(_GOLDEN_ITER):
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
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1)
    val, err = out[0], out[1]
    if len(out) > 3:
        budget = 50.0 * max(epsabs, abs(val) * epsrel, 1e-300)
        if not math.isfinite(val) or err > budget:
            raise NumericError(
                f"quadrature on [{a}, {b}] did not converge: "
                f"estimate {val!r}, error {err!r} ({out[3]})")
    return val, err


def _row_key(row, x):
    """row + 1j x, built without arithmetic so no part rounds or turns nan."""
    key = row.astype(complex)
    key.imag = x
    return key


def _window_pairs(x, y, order, lo, hi, cutoff):
    """(i * n + j, d) of the pairs with d < cutoff between each sorted point k
    and the sorted points lo[k]:hi[k], in original indices with i < j."""
    counts = hi - lo
    b = np.repeat(lo - np.cumsum(counts) + counts, counts)
    b += np.arange(b.size)
    dx = np.repeat(x, counts)
    dx -= x[b]
    dy = np.repeat(y, counts)
    dy -= y[b]
    d = np.hypot(dx, dy, out=dx)
    del dy
    kept = np.flatnonzero(d < cutoff)
    a, b = order[np.repeat(np.arange(x.size), counts)[kept]], order[b[kept]]
    return np.minimum(a, b) * x.size + np.maximum(a, b), d[kept]


def close_pair_arrays(lam: np.ndarray, cutoff: float):
    """(i, j, d) arrays of the pairs with i < j and distance d < cutoff, in
    canonical (i, j) order.

    The points are cut into rows of height h, a little above the cutoff, and
    sorted by (row, x); a pair can then only join a point to a later point of
    its own row with x in [x, x + h), or to a point of the next row with x in
    (x - h, x + h).  The complex key row + 1j x sorts lexicographically, so
    each window is one searchsorted.  d is np.hypot of the component
    differences (the same bits as the scalar abs(lam[i] - lam[j])), and each
    window keeps d < cutoff before the windows are joined, so membership is
    decided by d < cutoff alone and the candidates never coexist.  Expected
    work is O(N log N + pairs) (Bentley, Stanat & Williams, Inf. Process.
    Lett. 6, 1977).
    """
    n = lam.size
    if n < 2 or not cutoff > 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    scale = max(np.max(np.abs(lam.real)), np.max(np.abs(lam.imag)))
    h = cutoff + scale * _ROW_SLACK
    row = np.floor(lam.imag / h)
    order = np.lexsort((lam.real, row))
    x, y, row = lam.real[order], lam.imag[order], row[order]
    key = _row_key(row, x)
    found = [_window_pairs(x, y, order, np.arange(1, n + 1),
                           np.searchsorted(key, _row_key(row, x + h), side="left"),
                           cutoff)]
    found.append(_window_pairs(
        x, y, order, np.searchsorted(key, _row_key(row + 1, x - h), side="right"),
        np.searchsorted(key, _row_key(row + 1, x + h), side="left"), cutoff))
    ij, d = (np.concatenate(parts) for parts in zip(*found))
    del found
    canon = np.argsort(ij)
    ij, d = ij[canon], d[canon]
    del canon
    i, j = np.divmod(ij, n)
    return i, j, d


# The dense pairwise kernels.  Each value is one numpy pairwise sum over its
# own terms in canonical point order, so it is the same bits whether it is
# computed alone or in a batch, and its error is at most about
# eps * log2(n) * sum |terms|.

#: 8-byte words of temporaries per block of every chunked loop, here
#: (row_blocks, blocks, disk_windows) and in the tree code, read when the
#: loop runs; no reported value depends on it.  On a 2-core x86-64 VM:
#: * a _dense_row_sums term is one word of one reused 1 MB scratch buffer,
#:   which stays in a 2 MB L2 cache (16 rows at 8190 points).  The 4096 x 8190
#:   balayage grid of dyadic 1..12 took 57 to 61 ms at 2^16 and 2^17 words,
#:   68 ms at 2^18 and 78 ms at 2^19 (min and median of 12), fresh 64-row
#:   blocks about 100 ms.  2^16 left glibc's heap trim threshold so low that
#:   condition a, run next, page-faulted about 5 300 times a call (2 000 at
#:   2^17, 150 with 4 MB blocks); whole check-dyadic jobs ran fastest at 2^17;
#: * the tree's near field (2^15 terms a block) ran 1.5x faster than at 2^17;
#: * condition a's per-target decisions (16 words, about 100 bytes each):
#:   2^13 a block ran dyadic 1..12 as fast as 2^15, peak 4.6 MB against 7.6;
#: * the traversal's blocks of 2^10 groups of LEAF targets cut the peak RSS of
#:   `check` on dyadic 1..18 from 340 MB (one block) to 253 MB at the same
#:   speed; dyadic 1..12 and the 6000-point strip take one block a sweep;
#: * far pairs (ORDER + 1 terms, 1 560 a block): 256 to 2 048 a block ran
#:   within noise on both benchmark jobs.
_BLOCK_WORDS = 1 << 17

#: Words a term of a point evaluation keeps at once: its complex difference,
#: distance and masks.  Its blocks of 2^15 terms ran fastest (2^14 to 2^17).
_TERM_WORDS = 4

#: Relative slack of every disk-membership decision made before the exact
#: test d <= r: the modulus window of disk_windows, and the tree code's
#: cut of the points and its inside/outside tests of cells.  Rounding in the
#: moduli, distances, cell centers and cell radii cannot move a point across a
#: circle by more.
DISK_SLACK = 16 * np.finfo(float).eps


def row_blocks(n_rows: int, width: int, words: int = _TERM_WORDS) -> list:
    """Slices cutting range(n_rows) into blocks of rows of width terms, each of
    words words, with at most _BLOCK_WORDS words a block (and one row or more)."""
    step = max(1, _BLOCK_WORDS // max(words * width, 1))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def blocks(words: np.ndarray):
    """Slices cutting range(words.size) into consecutive runs of items of
    words[k] words each, with at most _BLOCK_WORDS words a run (or one item):
    row_blocks for ragged items."""
    ends = np.cumsum(words)
    lo = 0
    while lo < words.size:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK_WORDS, side="right")))
        yield slice(lo, hi)
        lo = hi


def scalar_or_array(values: np.ndarray, shape: tuple):
    """values in the input's shape; a 0-d input gives a Python scalar."""
    return values.reshape(shape) if shape else values.item()


def row_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-row sums of a ragged array stored row after row; empty rows give 0.
    A row's sum depends only on its own terms."""
    out = np.zeros(counts.size)
    full = counts > 0
    if full.any():
        out[full] = np.add.reduceat(terms, (np.cumsum(counts) - counts)[full])
    return out


def disk_windows(lam: np.ndarray, targets: np.ndarray, reach):
    """(rows, a, b, |lam[a:b] - targets[rows]|) per block of targets taken in
    increasing modulus: lam[a:b] holds every point of lam (sorted by modulus)
    within reach of the block, up to DISK_SLACK, and the block holds at most
    _BLOCK_WORDS // _TERM_WORDS terms, or one target (Bentley et al., 1977)."""
    abs_lam = np.abs(lam)
    with np.errstate(over="ignore", invalid="ignore"):  # a nan bound gives no window...
        order = np.argsort(np.abs(targets), kind="stable")
        abs_t, reach = np.abs(targets[order]), np.broadcast_to(reach, targets.shape)[order]
        slack = DISK_SLACK * (abs_t + reach)
        a = np.searchsorted(abs_lam, abs_t - reach - slack, side="left")
        b = np.searchsorted(abs_lam, abs_t + reach + slack, side="right")
    a[reach == np.inf] = 0  # ...but an infinite reach holds every point
    lo, k = 0, 1
    while lo < a.size:
        hi = min(a.size, lo + 2 * k)
        words = _TERM_WORDS * (np.maximum.accumulate(b[lo:hi]) - np.minimum.accumulate(a[lo:hi]))
        k = max(1, int(np.count_nonzero(words * np.arange(1, hi - lo + 1) <= _BLOCK_WORDS)))
        if k < hi - lo or hi == a.size:
            rows, start, stop = order[lo:lo + k], a[lo:lo + k].min(), b[lo:lo + k].max()
            with np.errstate(over="ignore"):
                d = np.abs(lam[start:stop] - targets[rows, None])
            yield rows, start, stop, d
            lo += k


def truncated_log_sums(lam: np.ndarray, mult: np.ndarray, centers, radii,
                       include_center: bool = False) -> np.ndarray:
    """Integrated count at each center with its own radius.

    Value i is the sum over 0 < |lambda - c_i| <= r_i of
    mult * log(r_i / |lambda - c_i|), plus mult(c_i) * log r_i when
    include_center is set; a center with a non-positive radius gets 0.
    lam must be sorted by modulus (the canonical Variety order); each center
    scans only its window (disk_windows), and logs are taken of in-disk
    distances only.
    """
    centers = np.asarray(centers, dtype=complex)
    radii = np.maximum(np.asarray(radii, dtype=float), 0.0)
    out = np.empty(centers.size)
    for rows, a, b, d in disk_windows(lam, centers, radii):
        r = radii[rows]
        inside = (d > 0) & (d <= r[:, None])
        counts = inside.sum(axis=1)
        log_r = np.log(np.where(r > 0, r, 1.0))
        terms = np.broadcast_to(mult[a:b], d.shape)[inside] * (
            np.repeat(log_r, counts) - np.log(d[inside]))
        out[rows] = row_sums(terms, counts)
        if include_center:
            out[rows] += np.where(d == 0, mult[a:b], 0).sum(axis=1) * log_r
    return out


def _dense_row_sums(terms, n_rows: int, width: int) -> np.ndarray:
    """Row sums of an (n_rows x width) term matrix, block by block (row_blocks).

    terms(lo, out) fills out, a (rows x width) view of one reused scratch
    buffer, with the terms of rows lo:lo + rows, and returns it.  A row sum
    depends only on its own terms, so it is the same bits in any block.
    """
    out = np.zeros(n_rows)
    blocks = row_blocks(n_rows, width, 1)
    scratch = np.empty(blocks[0].stop * width if blocks else 0)
    with np.errstate(over="ignore"):  # see the term functions; a sum that overflows is inf
        for rows in blocks:
            k = rows.stop - rows.start
            terms(rows.start, scratch[:k * width].reshape(k, width)).sum(axis=1, out=out[rows])
    return out


def binary_scaled(*parts):
    """(parts times 2^e, e), with one exponent e = -(E + 1) per position and
    2^E above the largest |part| there: every scaled part is below 1/2, so no
    square or product of two overflows, and the scaling is exact for every
    part at least 2^-1021 times the largest (scale before squaring)."""
    e = -1 - np.frexp(np.max(np.abs(parts), axis=0))[1]
    return [np.ldexp(a, e) for a in parts], e


def log_rho_terms(cre, cim, re, im, m, out):
    """Fill out with the log-rho terms m log1p(4 Im c Im lambda / |c - lambda|^2)
    of the centers c = cre + i cim against the points lambda = re + i im
    (Im >= 0, each broadcast to out's shape) and return it; a point at its
    center gives an exact 0.  Where the squared distance or the numerator
    overflows, both are recomputed from binary_scaled coordinates, so the
    term keeps its accuracy and every other term its bits.  A ratio that itself
    overflows (two points far closer than their heights) gives inf.  The
    caller silences overflow warnings (np.errstate) once per sweep.
    """
    np.subtract(cim, im, out=out)
    out *= out
    num = cre - re
    num *= num
    out += num
    np.multiply(4.0 * cim, im, out=num)
    if np.isinf(out.max(initial=0.0)) or np.isinf(num.max(initial=0.0)):
        bad = np.isinf(out) | np.isinf(num)
        (x0, y0, x1, y1), _ = binary_scaled(
            *(np.broadcast_to(a, out.shape)[bad] for a in (cre, cim, re, im)))
        out[bad] = (y0 - y1) ** 2 + (x0 - x1) ** 2
        num[bad] = 4.0 * y0 * y1
    # q = 0 (a point at the center) keeps its exact 0.
    np.divide(num, out, out=out, where=out > 0)
    np.log1p(out, out=out)
    out *= m
    return out


def log_rho_sums(lam: np.ndarray, mult: np.ndarray, centers) -> np.ndarray:
    """Blaschke exclusion sum at each center of the upper half-plane.

    Value i is the sum over lambda != c_i of mult * log(1/rho(c_i, lambda)),
    rho(c, lambda) = |c - lambda| / |c - conj lambda|.  Since
    |c - conj lambda|^2 = |c - lambda|^2 + 4 Im c Im lambda, each term is
    (1/2) log1p(4 Im c Im lambda / |c - lambda|^2), with no cancellation when
    rho is near 1.  A point at c_i contributes an exact 0 in its slot, so
    rows stay dense (a ragged gather made the full sweep much slower) and
    still give the same bits batched or alone.  Overflow raises no warning:
    a term whose squared distance or numerator overflows is computed from
    scaled coordinates (see log_rho_terms), and a value that overflows is inf.
    """
    centers = np.asarray(centers, dtype=complex)
    cre, cim = centers.real.copy(), centers.imag.copy()
    re, im = lam.real.copy(), lam.imag.copy()  # contiguous: strided reads took twice as long

    def terms(lo, q):
        rows = slice(lo, lo + q.shape[0])
        return log_rho_terms(cre[rows, None], cim[rows, None], re, im, mult, q)

    return 0.5 * _dense_row_sums(terms, centers.size, lam.size)


def poisson_sums(lam: np.ndarray, mult: np.ndarray, xs) -> np.ndarray:
    """Poisson balayage at each real abscissa x: the sum of
    mult * |Im lambda| / |x - lambda|^2.  No point may be real.  Overflow
    raises no warning: a squared distance that overflows to inf gives the
    term 0, whose absolute error is below weight / DBL_MAX for the weight
    mult * |Im lambda| (heights of 2^512 or more are rescaled instead, see
    poisson_terms), and a value that overflows is inf."""
    xs = np.asarray(xs, dtype=float)
    pts = poisson_points(lam, mult)

    def terms(lo, d):
        return poisson_terms(xs[lo:lo + d.shape[0], None], pts, d)

    return _dense_row_sums(terms, xs.size, lam.size)


def poisson_sum_at(lam: np.ndarray, mult: np.ndarray):
    """The function x -> float(poisson_sums(lam, mult, [x])[0]), bit for bit,
    with the per-point arrays built once: a golden-section search calls it
    some 35 times."""
    pts = poisson_points(lam, mult)
    d = np.empty(lam.size)

    def phi(x: float) -> float:
        with np.errstate(over="ignore"):
            return float(poisson_terms(x, pts, d).sum())

    return phi


def poisson_points(lam, mult):
    """(re, im2, weight) of poisson_terms for the points lam with
    multiplicities mult: contiguous arrays (strided reads took twice as long).
    If some Im lambda squares below the smallest normal number or above the
    largest float, the heights |Im lambda| follow as a fourth array; that is
    decided here, once per sweep, so that other inputs take no extra pass."""
    with np.errstate(over="ignore"):
        im2 = lam.imag * lam.imag
    pts = lam.real.copy(), im2, mult * np.abs(lam.imag)
    tiny = np.finfo(float).tiny
    if im2.min(initial=tiny) < tiny or np.isinf(im2.max(initial=0.0)):
        return pts + (np.abs(lam.imag),)
    return pts


def poisson_terms(x, pts, out):
    """Fill out with the balayage terms weight / ((x - re)^2 + im2) of the
    abscissae x against the points pts = (re, im2, weight[, im]) of
    poisson_points (each broadcast to out's shape) and return it.  A squared
    distance that overflows gives the term 0, below weight / DBL_MAX; the
    caller silences overflow warnings (np.errstate) once per sweep.  Given
    the heights im, a term whose denominator is below the smallest normal
    number (the squares lost bits) or overflows is recomputed from the
    binary_scaled pair (x - re, im): with the scaled denominator D', it is
    (weight 2^e / D') 2^e, and it is 0, below mult / (2 DBL_MAX), only where
    x - re itself overflows."""
    re, im2, weight, *im = pts
    np.subtract(x, re, out=out)
    out *= out
    out += im2
    if not im:
        return np.divide(weight, out, out=out)
    bad = (out < np.finfo(float).tiny) | np.isinf(out)
    np.divide(weight, out, out=out, where=~bad)
    x, re, h, weight = (np.broadcast_to(a, out.shape)[bad] for a in (x, re, *im, weight))
    (dx, h), e = binary_scaled(x - re, h)
    out[bad] = np.ldexp(np.ldexp(weight, e) / (dx * dx + h * h), e)
    return out
