"""Tree-code enclosures of the three dense pairwise sums of numutil.

Every number a sweep reports over these sums is a maximum or the witness of
one.  So the tree only selects: for each target it returns an approximate
value of the sum and a bound on how far the value the direct kernel computes
can lie from it.  The sweep keeps every target whose upper bound reaches the
best lower bound and evaluates those with the direct kernels, so each
reported bit is still a direct kernel's bit (see ``contenders``).

The sources sit in an adaptive quadtree, one root per band of the canonical
order (the points between two radius ends), so that every radius column is a
sum over whole bands.  The targets are grouped into the leaves of a second
quadtree.  A (group, cell) pair that is well separated,
``SEP * (rho_group + rho_cell) <= distance``, and wholly inside the summation
region becomes a p-term local expansion about the group center: the cell's
moments ``sum m ((lambda - s) / rho)^k`` go through one multipole-to-local
matrix (Greengard & Rokhlin, J. Comput. Phys. 73, 1987).  A cell that is near,
or that crosses a disk circle, is opened down to its leaves, whose points are
summed directly with the direct kernel's own membership test; a cell wholly
outside every disk of the group is skipped (Barnes & Hut, Nature 324, 1986,
for the traversal).

All three kernels are harmonic.  The log-rho term is
``log|z - conj lambda| - log|z - lambda|``: two log kernels, whose monopole
parts combine into ``(M/2) log1p(4 Im t Im s / |t - s|^2)``, with no
cancellation near the axis.  The Poisson term is ``Im 1 / (x - lambda')`` with
``lambda'`` reflected into the upper half-plane: a Cauchy kernel.  The
truncated log is ``log r - log|z - lambda|`` over the disk: a log kernel plus
a count.

The bound on each value is the sum of
  * the truncation remainders of the multipole and the local series, in
    closed form per pair (see ``_far_pairs``);
  * ``eps * C * A``, where A bounds the sum of the term magnitudes the direct
    kernel and the tree evaluation round, and C counts their sequential
    operations: the direct kernel's ``log2 n + 8``, the far pairs and near
    terms accumulated into the target, and ``TREE_OPS`` for the expansion
    arithmetic.
"""

from math import comb, log2

import numpy as np

from .numutil import (log_rho_prefix_sums, poisson_prefix_sums, truncated_log_sum_terms,
                      truncated_log_sums)

_EPS = np.finfo(float).eps

#: Expansion order p.  With SEP = 3 each series ratio is at most 1/3, so the
#: truncation bound is about M * 3^-(p+1), 5e-11 M at p = 20.  On a 2-core
#: x86-64 VM: p = 12 kept 133 candidates of the balayage at the 6001 real
#: parts of horizontal_line (spacing 0.5, extent 1500), p = 16 and 20 kept 2;
#: p = 24 took about 20% longer than p = 20 on dyadic 1..12.
ORDER = 20

#: Separation ratio: a pair is far when SEP * (rho_group + rho_cell) is at most
#: the distance of the centers.  2.5 was no faster on dyadic 1..12 and 4 was
#: 10% to 20% slower.
SEP = 3.0

#: Points per source leaf, and targets per group.  16 and 32 ran dyadic 1..12
#: equally fast, and 32 ran the strip's Blaschke sweep 20% faster; groups of 64
#: were 10% to 15% slower.
LEAF = 32

#: Pair terms the direct path would build, above which the tree path runs.
#: The tree's gain depends on how much of the sum is far field.  Measured on a
#: 2-core x86-64 VM: the Blaschke sweep breaks even near 1e6 terms (dyadic
#: 1..10, 1022^2: 11 ms direct, 8 ms tree) and gains 2.5x at 4.2e6 (dyadic
#: 1..11); the integrated count gains 1.5x at 3.8e6 terms on dyadic 1..11,
#: whose disks hold most points.  On a 6000-point strip_random sample (3.5e6
#: to 3.6e6 terms over seeds) every in-disk term is near field and the tree is
#: 1.5x to 2x slower (55 to 68 ms direct, 98 ms or more tree); 4e6 keeps it
#: direct with 10% to spare.
CROSSOVER = 4_000_000

#: Sequential floating-point operations of one expansion, from the moments to
#: the value: p powers, a (p+1)-term product sum, p scalings and a p-step
#: Horner evaluation, with a factor 2 to spare, which also covers forming
#: value -/+ err and dividing it in contenders.
TREE_OPS = 8 * (ORDER + 2)

#: Relative slack of the disk membership decisions: a cell is wholly inside
#: (outside) a disk only if rounding in the center distance and cell radii
#: cannot move any point across the circle.
_SLACK = 16 * _EPS

#: Element pairs per near-field chunk: bounds the temporaries, and keeps them
#: in cache (2^15 ran the near field about 1.5x faster than 2^17).
_CHUNK = 1 << 15

_K = np.arange(ORDER + 1)
_L = np.arange(1, ORDER + 1)
# Multipole-to-local matrices, rows k (moment) and columns l (local power).
# Log kernel: a_0 log(z - s) + sum_k a_k (z - s)^-k with a_k = -c_k / k; the
# a_0 log(-d) part of column 0 is added per pair.
_M2L_LOG = np.zeros((ORDER + 1, ORDER + 1))
_M2L_LOG[0, 1:] = -1.0 / _L
_M2L_LOG[1:, 0] = -1.0 / _L
_M2L_LOG[1:, 1:] = [[-comb(l + k - 1, k - 1) / k for l in _L] for k in _L]
# Cauchy kernel: sum_k c_k (z - s)^-(k+1).
_M2L_CAUCHY = np.array([[float(comb(l + k, k)) for l in _K] for k in _K])


def _ranges(starts, counts):
    """Concatenation of arange(s, s + c) over the starts s and counts c."""
    offs = np.cumsum(counts) - counts
    return np.arange(int(np.sum(counts))) - np.repeat(offs - starts, counts)


def _spread(v):
    """Interleave zero bits above each of the low 20 bits of v."""
    v = v.astype(np.uint64)
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        v = (v | (v << np.uint64(shift))) & np.uint64(mask)
    return v


class _Tree:
    """Adaptive quadtree over z, with one root per band.

    band must be non-decreasing.  Cells are numbered level by level; the
    points of cell c are perm[start[c]:start[c] + count[c]], its children are
    first[c]:first[c] + nchild[c], and center/rho are the center of the
    bounding box of its points and their largest distance from it.  With
    mult, moments[c, k] = sum m ((z - center) / scale)^k, where scale is rho,
    or 1 for a cell whose points coincide.
    """

    DEPTH = 20

    def __init__(self, z, band, leaf, mult=None):
        n = z.size
        cuts = np.flatnonzero(np.diff(band)) + 1
        b_start = np.concatenate([[0], cuts]).astype(np.int64)
        b_count = np.diff(np.append(b_start, n))
        # Quantize each band to a 2^DEPTH grid over its own bounding square.
        x, y = z.real, z.imag
        x0 = np.minimum.reduceat(x, b_start)
        y0 = np.minimum.reduceat(y, b_start)
        side = np.maximum(np.maximum.reduceat(x, b_start) - x0,
                          np.maximum.reduceat(y, b_start) - y0)
        top = 2 ** self.DEPTH - 1
        scale = np.repeat(np.where(side > 0, (top + 1) / np.where(side > 0, side, 1), 0),
                          b_count)
        ix = np.minimum((x - np.repeat(x0, b_count)) * scale, top).astype(np.int64)
        iy = np.minimum((y - np.repeat(y0, b_count)) * scale, top).astype(np.int64)
        morton = _spread(ix) | (_spread(iy) << np.uint64(1))
        self.perm = perm = np.lexsort((morton, band))
        morton = morton[perm]

        starts, counts, first, nchild, levels = [], [], [], [], []
        lv_start, lv_count = b_start, b_count
        next_id = lv_start.size
        for level in range(self.DEPTH + 1):
            split = (lv_count > leaf) & (level < self.DEPTH)
            starts.append(lv_start)
            counts.append(lv_count)
            levels.append(np.full(lv_count.size, level))
            if not split.any():
                nchild.append(np.zeros(lv_count.size, np.int64))
                first.append(np.zeros(lv_count.size, np.int64))
                break
            pos = _ranges(lv_start[split], lv_count[split])
            owner = np.repeat(np.flatnonzero(split), lv_count[split])
            key = morton[pos] >> np.uint64(2 * (self.DEPTH - level - 1))
            brk = np.flatnonzero((np.diff(key) != 0) | (np.diff(owner) != 0)) + 1
            heads = np.concatenate([[0], brk]).astype(np.int64)
            kids = np.bincount(owner[heads], minlength=lv_count.size)
            nchild.append(kids)
            first.append(next_id + np.cumsum(kids) - kids)
            next_id += heads.size
            lv_start = pos[heads]
            lv_count = np.diff(np.append(heads, pos.size))
        self.start = np.concatenate(starts)
        self.count = np.concatenate(counts)
        self.first = np.concatenate(first)
        self.nchild = np.concatenate(nchild)
        self.level = np.concatenate(levels)
        self.roots = np.arange(b_start.size)
        self.band = band[perm[self.start]]
        self._geometry(z, mult)

    def _geometry(self, z, mult):
        zs = z[self.perm]
        n_cells = self.start.size
        self.center = np.empty(n_cells, complex)
        self.rho = np.empty(n_cells)
        p1 = ORDER + 1
        self.moments = None if mult is None else np.empty((n_cells, p1), complex)
        ms = None if mult is None else mult[self.perm].astype(float)
        for level in range(int(self.level.max()) + 1):
            cells = np.flatnonzero(self.level == level)
            st, ct = self.start[cells], self.count[cells]
            pos = _ranges(st, ct)
            offs = np.cumsum(ct) - ct
            zz = zs[pos]
            cx = 0.5 * (np.minimum.reduceat(zz.real, offs) + np.maximum.reduceat(zz.real, offs))
            cy = 0.5 * (np.minimum.reduceat(zz.imag, offs) + np.maximum.reduceat(zz.imag, offs))
            c = cx + 1j * cy
            u = zz - np.repeat(c, ct)
            rho = np.maximum.reduceat(np.abs(u), offs)
            self.center[cells] = c
            self.rho[cells] = rho
            if ms is None:
                continue
            u /= np.repeat(np.where(rho > 0, rho, 1.0), ct)
            pw = np.empty((pos.size, p1), complex)
            pw[:, 0] = ms[pos]
            for k in range(1, p1):
                np.multiply(pw[:, k - 1], u, out=pw[:, k])
            self.moments[cells] = np.add.reduceat(pw, offs, axis=0)

    @property
    def is_leaf(self):
        return self.nchild == 0


class _Groups:
    """Targets grouped into the leaves of a quadtree: group g holds the
    targets order[start[g]:start[g] + count[g]], inside the disk of center
    center[g] and radius rho[g]."""

    def __init__(self, z):
        tree = _Tree(z, np.zeros(z.size, np.int64), LEAF)
        leaves = np.flatnonzero(tree.is_leaf)
        leaves = leaves[np.argsort(tree.start[leaves])]
        self.order = tree.perm
        self.start = tree.start[leaves]
        self.count = tree.count[leaves]
        self.center = tree.center[leaves]
        self.rho = tree.rho[leaves]
        self.of = np.empty(z.size, np.int64)
        self.of[self.order] = np.repeat(np.arange(leaves.size), self.count)


def _traverse(groups, tree, region=None):
    """Split the (group, cell) pairs below the roots into far pairs, to expand,
    and near leaf pairs, to sum directly.

    region(g, c, dist, rho) returns (inside, outside): the pairs whose cell
    is wholly inside, or wholly outside, the summation region of every target
    of the group; None means every source is summed.
    """
    g = np.repeat(np.arange(groups.center.size), tree.roots.size)
    c = np.tile(tree.roots, groups.center.size)
    far, near = [], []
    while g.size:
        dist = np.abs(tree.center[c] - groups.center[g])
        rho = groups.rho[g] + tree.rho[c]
        inside, outside = (True, False) if region is None else region(g, c, dist, rho)
        is_far = inside & (SEP * rho <= dist) & (dist > 0)
        rest = ~(is_far | outside)
        far.append((g[is_far], c[is_far]))
        leaf = rest & tree.is_leaf[c]
        near.append((g[leaf], c[leaf]))
        opened = rest & ~leaf
        kids = tree.nchild[c[opened]]
        g = np.repeat(g[opened], kids)
        c = _ranges(tree.first[c[opened]], kids)
    far_g, far_c = (np.concatenate(a) for a in zip(*far))
    near_g, near_c = (np.concatenate(a) for a in zip(*near))
    return far_g, far_c, near_g, near_c


def _powers(r):
    """(n, p + 1) array of r^k."""
    out = np.empty((r.size, ORDER + 1), complex)
    out[:, 0] = 1.0
    for k in range(1, ORDER + 1):
        np.multiply(out[:, k - 1], r, out=out[:, k])
    return out


def _local(moments, rho_s, rho_t, d, matrix):
    """Local coefficients about the group center of the moment expansions
    about centers at offset d, scaled to targets v = (z - t) / rho_t, less
    the log(-d) term of the log kernel (added by the caller)."""
    gamma = moments * _powers(-rho_s / d)
    # Two real einsums: a small threaded BLAS matmul costs far more here.
    local = (np.einsum("nk,kl->nl", gamma.real, matrix)
             + 1j * np.einsum("nk,kl->nl", gamma.imag, matrix))
    return local * _powers(rho_t / d)


def _far_pairs(groups, tree, g, c, kind):
    """Local coefficients, truncation bounds and magnitude scales of the far
    pairs.

    For sources within rho_s of s, targets within rho_t of t and d = s - t,
    with x = rho_s/|d|, y = rho_t/|d|, th = rho_s/(|d| - rho_t) and
    q = rho_t/(|d| - rho_s), the remainders after p terms are at most, per
    unit of multiplicity,
      log kernel:    th^(p+1)/((p+1)(1-th)) + y^(p+1)/((p+1)(1-y))
                     + x/(1-x) q^(p+1)/(1-q)
      Cauchy kernel: th^(p+1)/((|d|-rho_t)(1-th)) + q^(p+1)/(|d|(1-x)(1-q))
    (the multipole tail, the local tail of the log, and the local tail of the
    moment terms, bounded by summing the binomial series in closed form).
    """
    t, s = groups.center[g], tree.center[c]
    rho_t, rho_s = groups.rho[g], tree.rho[c]
    mom = tree.moments[c]
    mass = mom[:, 0].real
    d = s - t
    dist = np.abs(d)
    rho = rho_t + rho_s
    p1 = ORDER + 1
    x, y = rho_s / dist, rho_t / dist
    th, q = rho_s / (dist - rho_t), rho_t / (dist - rho_s)
    moment_tail = x / (1 - x) * q ** p1 / (1 - q)
    if kind == "cauchy":
        beta = -_local(mom, rho_s, rho_t, d, _M2L_CAUCHY) / d[:, None]
        trunc = th ** p1 / ((dist - rho_t) * (1 - th)) + q ** p1 / (dist * (1 - x) * (1 - q))
        return beta, mass * trunc, mass / (dist - rho)
    trunc = (th ** p1 / (1 - th) + y ** p1 / (1 - y)) / p1 + moment_tail
    if kind == "log":
        beta = _local(mom, rho_s, rho_t, d, _M2L_LOG)
        beta[:, 0] += mass * np.log(dist)
        logs = np.maximum(np.abs(np.log(dist - rho)), np.abs(np.log(dist + rho)))
        return beta, mass * trunc, mass * (1 + logs)
    # log-rho: the kernel with sources conj(lambda) less the kernel with lambda.
    dc = np.conj(s) - t
    beta = (_local(np.conj(mom), rho_s, rho_t, dc, _M2L_LOG)
            - _local(mom, rho_s, rho_t, d, _M2L_LOG))
    beta[:, 0] += 0.5 * mass * np.log1p(4 * t.imag * s.imag / (dist * dist))
    top = 0.5 * np.log1p(4 * (t.imag + rho_t) * (s.imag + rho_s) / (dist - rho) ** 2)
    return beta, 2 * mass * trunc, mass * (1 + top)


def _near_sums(kind, z, src, m, r, include_center):
    """Direct sums of targets z[..., i] against sources src[..., j] over j,
    and the sums of their magnitude scales, with the direct kernels'
    arithmetic and membership tests.  z and src are (pairs, rows, 1) and
    (pairs, 1, columns) blocks."""
    if kind == "cauchy":
        dd = z.real - src.real
        dd *= dd
        dd += src.imag * src.imag
        np.divide(m * src.imag, dd, out=dd)
        term = dd.sum(axis=2)
        return term, term
    if kind == "log-rho":
        dx = z.real - src.real
        qq = z.imag - src.imag
        qq *= qq
        qq += dx * dx
        t = np.divide(4.0 * z.imag * src.imag, qq, out=np.zeros_like(qq), where=qq > 0)
        np.log1p(t, out=t)
        t *= 0.5 * m
        term = t.sum(axis=2)
        return term, term + m.sum(axis=2)
    d = np.abs(src - z)
    log_r = np.log(np.where(r > 0, r, 1.0))[..., 0]
    inside = (d > 0) & (d <= r)
    mm = np.where(inside, m, 0.0)
    np.log(d, out=d, where=inside)  # d is finite, so mm * d is 0 outside
    mass = mm.sum(axis=2)
    term = mass * log_r - (mm * d).sum(axis=2)
    scale = mass * (1 + np.abs(log_r)) + (mm * np.abs(d, out=d)).sum(axis=2)
    if include_center:
        at = np.where(inside | (d != 0), 0.0, m).sum(axis=2)
        term += at * log_r
        scale += at * (1 + np.abs(log_r))
    return term, scale


def _padded(order, start, count, width):
    """(cells, width) indices into order of each cell's members, padded with
    its first member, and the mask of the real ones."""
    k = np.arange(width)
    real = k < count[:, None]
    return order[start[:, None] + np.where(real, k, 0)], real


def _enclose(kind, targets, src, mult, band, n_bands, radii=None, include_center=False):
    """Approximate band sums and bounds, (n_bands, n_targets) each.

    targets are complex points (real abscissae for the Cauchy kernel); src,
    mult and band describe the sources in canonical order, with band
    non-decreasing and below n_bands; radii gives each target's disk for the
    log kernel.
    """
    tree = _Tree(src, band, LEAF, mult)
    groups = _Groups(targets)
    region = None
    if kind == "log":
        r_lo = np.minimum.reduceat(radii[groups.order], groups.start)
        r_hi = np.maximum.reduceat(radii[groups.order], groups.start)

        def region(g, c, dist, rho):
            inside = dist + rho + _SLACK * (dist + rho + r_lo[g]) <= r_lo[g]
            outside = dist - rho > r_hi[g] + _SLACK * (dist + rho + r_hi[g])
            return inside, outside

    far_g, far_c, near_g, near_c = _traverse(groups, tree, region)
    n_groups, n_t = groups.center.size, targets.size
    size = n_groups * n_bands

    # Far pairs: local expansions per (group, band).
    beta, trunc, scale = _far_pairs(groups, tree, far_g, far_c, kind)
    key = far_g * n_bands + tree.band[far_c]
    trunc, scale_far, count_far = (np.bincount(key, w, minlength=size).astype(float)
                                   for w in (trunc, scale, tree.moments[far_c, 0].real))
    n_far = np.bincount(far_g, minlength=n_groups)
    local = np.zeros((size, ORDER + 1), complex)
    if key.size:
        order = np.argsort(key, kind="stable")
        key = key[order]
        heads = np.concatenate([[0], np.flatnonzero(np.diff(key)) + 1])
        local[key[heads]] = np.add.reduceat(beta[order], heads, axis=0)

    g_of = groups.of
    rho_t = groups.rho[g_of]
    v = (targets - groups.center[g_of]) / np.where(rho_t > 0, rho_t, 1.0)
    coef = local.reshape(n_groups, n_bands, ORDER + 1)[g_of]
    acc = coef[:, :, ORDER].copy()
    for k in range(ORDER - 1, -1, -1):
        acc *= v[:, None]
        acc += coef[:, :, k]
    value = (acc.imag if kind == "cauchy" else acc.real).copy()
    if kind == "log":
        log_r = np.log(np.where(radii > 0, radii, 1.0))
        cnt = count_far.reshape(n_groups, n_bands)[g_of]
        value = cnt * log_r[:, None] - value
        scale_t = scale_far.reshape(n_groups, n_bands)[g_of] + cnt * (1 + np.abs(log_r))[:, None]
    else:
        scale_t = scale_far.reshape(n_groups, n_bands)[g_of]
    trunc_t = trunc.reshape(n_groups, n_bands)[g_of]
    value, scale_t = value.ravel(), scale_t.ravel()

    # Near leaf pairs: (pair, target, source) blocks, sorted by shape so that
    # each chunk pads its groups and leaves to nearly their own sizes; padding
    # sources have multiplicity 0 and padding targets are dropped.
    n_near = np.zeros(n_t)
    order = np.lexsort((tree.count[near_c], groups.count[near_g]))
    near_g, near_c = near_g[order], near_c[order]
    lo = 0
    while lo < near_g.size:
        hi = lo + 1 + _CHUNK // (groups.count[near_g[lo]] * tree.count[near_c[lo]])
        g, c = near_g[lo:hi], near_c[lo:hi]
        rows, cols = int(groups.count[g].max()), int(tree.count[c].max())
        hi = lo + max(1, min(g.size, _CHUNK // (rows * cols)))
        g, c = near_g[lo:hi], near_c[lo:hi]
        lo = hi
        ti, t_real = _padded(groups.order, groups.start[g], groups.count[g], rows)
        sj, s_real = _padded(tree.perm, tree.start[c], tree.count[c], cols)
        m = np.where(s_real, mult[sj], 0).astype(float)[:, None, :]
        term, sc = _near_sums(kind, targets[ti][:, :, None], src[sj][:, None, :], m,
                              None if radii is None else radii[ti][:, :, None],
                              include_center)
        ti = ti[t_real]
        key = ti * n_bands + np.repeat(tree.band[c], t_real.sum(axis=1))
        np.add.at(value, key, term[t_real])
        np.add.at(scale_t, key, sc[t_real])
        np.add.at(n_near, ti, np.repeat(tree.count[c], t_real.sum(axis=1)))

    value = value.reshape(n_t, n_bands)
    scale_t = scale_t.reshape(n_t, n_bands)
    ops = TREE_OPS + n_far[g_of] + n_near + log2(max(src.size, 1)) + 8 + n_bands
    err = trunc_t + _EPS * ops[:, None] * scale_t
    return value.T, err.T


def _columns(value, err):
    """Prefix sums over the bands, with the bound widened by 2^-20 for the
    rounding of the bound itself."""
    return np.cumsum(value, axis=0), np.cumsum(err, axis=0) * (1 + 2.0 ** -20)


def _bands(n, ends):
    """Band of each of the first n points: the number of ends at or below its
    index, so that the points within ends[k] are the bands up to k (some
    bands may be empty)."""
    return np.searchsorted(np.asarray(ends), np.arange(n), side="right")


def contenders(value, err, scale=1.0, floor=-np.inf) -> np.ndarray:
    """Indices whose enclosure of value / scale reaches the best lower bound.

    With value - err <= v <= value + err for every direct value v, each index
    left out has v / scale strictly below the direct value of the index with
    the best lower bound (and below floor, a direct value known already), so
    the first maximum over all indices is the first maximum over those kept.
    A NaN bound keeps its index.
    """
    lo = (value - err) / scale
    hi = (value + err) / scale
    best = max(float(np.max(lo, initial=-np.inf)), floor)
    return np.flatnonzero(~(hi < best))


def log_rho_prefix_enclosures(lam, mult, ends):
    """Entry k: (value, err) over the centers lam[:ends[k]] of the exclusion
    sums of log_rho_prefix_sums; err = 0 on the direct path."""
    ends = [int(e) for e in ends]
    n = max(ends, default=0)
    if n == 0 or n * n <= CROSSOVER:
        sums = log_rho_prefix_sums(lam, mult, ends)
        return [(s, np.zeros(s.size)) for s in sums]
    value, err = _columns(*_enclose("log-rho", lam[:n], lam[:n], mult[:n], _bands(n, ends),
                                    len(ends)))
    return [(value[k, :e], err[k, :e]) for k, e in enumerate(ends)]


def poisson_prefix_enclosures(lam, mult, xs, ends):
    """Entry k: (value, err) at every abscissa of the balayage of lam[:ends[k]],
    as poisson_prefix_sums; err = 0 on the direct path."""
    ends = [int(e) for e in ends]
    xs = np.asarray(xs, dtype=float)
    n = max(ends, default=0)
    if n * xs.size == 0 or n * xs.size <= CROSSOVER:
        sums = poisson_prefix_sums(lam, mult, xs, ends)
        return [(s, np.zeros(s.size)) for s in sums]
    src = lam[:n].real + 1j * np.abs(lam[:n].imag)
    value, err = _columns(*_enclose("cauchy", xs.astype(complex), src, mult[:n],
                                    _bands(n, ends), len(ends)))
    return list(zip(value, err))


def truncated_log_enclosures(lam, mult, centers, radii, include_center=False):
    """(value, err) of truncated_log_sums at each center; err = 0 on the
    direct path."""
    centers = np.asarray(centers, dtype=complex)
    radii = np.maximum(np.asarray(radii, dtype=float), 0.0)
    if lam.size * centers.size == 0 or truncated_log_sum_terms(lam, centers, radii) <= CROSSOVER:
        sums = truncated_log_sums(lam, mult, centers, radii, include_center)
        return sums, np.zeros(sums.size)
    value, err = _columns(*_enclose("log", centers, lam, mult, np.zeros(lam.size, np.int64),
                                    1, radii, include_center))
    return value[0], err[0]
