"""Tree-code enclosures of the three dense pairwise sums of numutil.

Every number a sweep reports over these sums is a maximum or the witness of
one.  So the tree only selects: for each target it returns an approximate
value of the sum and a bound on how far the value the direct kernel computes
can lie from it.  Every sweep selects through ``first_maxima``: per radius it
keeps the targets whose upper bound reaches the best lower bound
(``contenders``) and evaluates those with the direct kernels, so each
reported bit is still a direct kernel's bit.

The sources sit in an adaptive quadtree, one root per band of the canonical
order (the points between two radius ends), so that every radius column is a
sum over whole bands.  The targets are grouped: by the source tree's own
leaves when the targets are a prefix of the sources (condition a, the
Blaschke sweep), else in runs of LEAF targets in Morton order, which for the
Cauchy kernel's real abscissae is increasing order.  A (group, cell) pair
that is well separated, ``SEP * (rho_group + rho_cell) <= distance``, and
wholly inside the summation region becomes a p-term local expansion about the
group center: the cell's moments go through one multipole-to-local matrix
(Greengard & Rokhlin, J. Comput. Phys. 73, 1987).
A cell that is near, or that crosses a disk circle of the group, is opened
down to its leaves; a cell wholly outside every disk of the group is skipped
(Barnes & Hut, Nature 324, 1986, for the traversal).

For the Blaschke and Poisson kernels each near (group, leaf) pair is summed
directly for the group's targets as one run, by ``_direct`` in padded blocks
with numutil's Poisson and log-rho term functions.  For the truncated log,
each near (group, leaf) pair is decided again for each target against its own
circle.  A leaf wholly outside is skipped.  A leaf wholly inside and well
separated from the target, ``SEP * rho <= dist``, is one multipole-to-point
term from its moments.  A leaf wholly inside but close is summed directly for
that target by ``_log_direct``, which sums such (target, leaf) pairs as one
ragged run of the leaves' points.  A leaf that crosses the circle at
``dist > rho`` adds a value in ``[0, M log(r / (dist - rho))]``: the first
pass adds its midpoint and puts its half-width in the bound, and ``refine``
makes the same decision again for the targets the first pass leaves in
contention and sums it directly (bound, then refine); no list of crossing
leaves is kept between the passes.  Points beyond every disk are dropped
before the tree is built.

Geometry and moments come from one upward pass: a leaf's bounding box and
the power sums over its points, then each level's children translated to
their parent (M2M).  A parent's radius is the reach of its children's
expansions, so it bounds its points' distance, every translation is a
contraction and adds about ``eps * p`` of the cell's mass in rounding; the
per-cell bound of that rounding enters every far-pair and multipole-to-point
bound.

All three kernels are harmonic.  The log-rho term is
``log|z - conj lambda| - log|z - lambda|``: two log kernels, whose monopole
parts combine into ``(M/2) log1p(4 Im t Im s / |t - s|^2)``, with no
cancellation near the axis.  The Poisson term is ``Im 1 / (x - lambda')`` with
``lambda'`` reflected into the upper half-plane: a Cauchy kernel.  The
truncated log is ``log r - log|z - lambda|`` over the disk: a log kernel plus
a count.

The bound on each value is the sum of
  * the truncation remainders of the multipole and the local series, in
    closed form per pair (see ``_far_pairs`` and ``_log_expanded``);
  * the moment rounding bound of each expanded cell, through the same series;
  * the half-widths of the circle-crossing leaves not yet summed;
  * ``eps * C * A``, where A bounds the sum of the term magnitudes the direct
    kernel and the tree evaluation round, and C counts their sequential
    operations: the direct kernel's ``log2 n + 8``, the far pairs and near
    terms accumulated into the target, and ``TREE_OPS`` for the expansion
    arithmetic.
"""

from math import comb, log2

import numpy as np

from . import numutil
from .numutil import (_TERM_WORDS, DISK_SLACK, binary_scaled, blocks, log_rho_terms,
                      poisson_points, poisson_terms, row_blocks)

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

#: Sequential floating-point operations of one expansion, from the moments to
#: the value: p powers, a (p+1)-term product sum, p scalings and a p-step
#: Horner evaluation, with a factor 2 to spare, which also covers forming
#: value -/+ err and dividing it in contenders.
TREE_OPS = 8 * (ORDER + 2)

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


def _add_at(out, key, *weights):
    """out[k][key] += weights[k], repeated keys summed in order, by one
    np.bincount over the span of key."""
    if key.size:
        lo = int(key.min())
        span = int(key.max()) - lo + 1
        for row, w in zip(out, weights):
            row[lo:lo + span] += np.bincount(key - lo, w, minlength=span)


def _spread(v):
    """Interleave zero bits above each of the low 20 bits of v."""
    v = v.astype(np.uint64)
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        v = (v | (v << np.uint64(shift))) & np.uint64(mask)
    return v


def _morton(z, b_start, b_count):
    """Morton keys of z, each band b_start[k]:b_start[k] + b_count[k]
    quantized to a 2^DEPTH grid over its own bounding square."""
    x, y = z.real, z.imag
    x0 = np.minimum.reduceat(x, b_start)
    y0 = np.minimum.reduceat(y, b_start)
    side = np.maximum(np.maximum.reduceat(x, b_start) - x0, np.maximum.reduceat(y, b_start) - y0)
    if np.isinf(side).any():  # an extent overflows: key the halved points instead
        return _morton(0.5 * z, b_start, b_count)
    top = 2 ** _Tree.DEPTH - 1
    scale = np.repeat(np.where(side > 0, (top + 1) / np.where(side > 0, side, 1), 0), b_count)
    ix = np.minimum((x - np.repeat(x0, b_count)) * scale, top).astype(np.int64)
    iy = np.minimum((y - np.repeat(y0, b_count)) * scale, top).astype(np.int64)
    return _spread(ix) | (_spread(iy) << np.uint64(1))


def _mid(v, heads):
    """Midpoint of the extent of each run of v that starts at heads; where
    the ends' sum overflows, they are halved before they are added."""
    lo, hi = np.minimum.reduceat(v, heads), np.maximum.reduceat(v, heads)
    mid = 0.5 * (lo + hi)
    return np.where(np.isinf(mid), 0.5 * lo + 0.5 * hi, mid)


def _boxes(z, count):
    """Center of the bounding box of each consecutive run of count[k] points
    of z, and the largest distance of its points from it."""
    heads = np.cumsum(count) - count
    c = _mid(z.real, heads) + 1j * _mid(z.imag, heads)
    return c, np.maximum.reduceat(np.abs(z - np.repeat(c, count)), heads)


def _series(th):
    """An upper bound of sum_{k=1}^{p} th^k for th >= 0."""
    return np.where(th < 0.5, 2 * th, ORDER * np.maximum(th, 1.0) ** ORDER)


class _Tree:
    """Adaptive quadtree over z, with one root per band.

    band must be non-decreasing.  Cells are numbered level by level; the
    points of cell c are perm[start[c]:start[c] + count[c]], its children are
    first[c]:first[c] + nchild[c], and its points lie within rho[c] of
    center[c]: for a leaf, the center of their bounding box and their largest
    distance from it; for an inner cell, a bound from its children (see
    _upward).  scale is rho, or 1 where rho is 0.  leaves lists the leaves by
    start, so their points tile perm; points and weights hold the points and
    multiplicities in that order, and one padding point of multiplicity 0
    after them.  moments[k, c] = sum m ((z - center[c]) / scale[c])^k, and
    bound[c] bounds the rounding of moments[k, c] for k >= 1; moments[0] is
    the mass, a sum of integers.
    """

    DEPTH = 20

    def __init__(self, z, band, leaf, mult):
        n = z.size
        cuts = np.flatnonzero(np.diff(band)) + 1
        b_start = np.concatenate([[0], cuts]).astype(np.int64)
        b_count = np.diff(np.append(b_start, n))
        morton = _morton(z, b_start, b_count)
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
        leaves = np.flatnonzero(self.is_leaf)
        self.leaves = leaves[np.argsort(self.start[leaves])]
        # The points in tree order, and a padding point of multiplicity 0 at
        # index n (any finite point will do).
        self.points = np.append(z[perm], z[:1])
        self.weights = np.append(mult[perm], 0).astype(float)
        self._upward(self.points[:n], self.weights[:n])

    def _upward(self, zs, ms):
        """Geometry and moments by an upward pass, and the bound on the
        moments' rounding.

        A leaf's center and rho are those of the bounding box of its points,
        and its moments are power sums over them, one power at a time: with
        |u| <= 1, u^k and the count-term sum round by at most
        eps (8 (p + 1) + count) of the mass.  A parent's center c is the
        midpoint of its children's centers c', its rho the largest
        rho' + |c' - c| of its children widened by 8 eps, and its moments
        translate its children's (M2M): a child's point c' + rho' u is
        c + S (a u + beta) with a = rho' / S and beta = (c' - c) / S, so moment
        k is sum_j C(k, j) a^j beta^(k-j) moment'_j.  As a + |beta| <= 1, the
        map passes each child's rounding on at most once, and its own
        arithmetic (a^j, p shift steps, the rounding of a and beta, the
        children's sum) adds at most eps 16 (p + 1) of the mass.  A cell whose
        points coincide has rho = 0 and exact moments: u = 0, beta = 0, a = 0.
        """
        n_cells = self.start.size
        p1 = ORDER + 1
        self.center = np.empty(n_cells, complex)
        self.rho = np.zeros(n_cells)
        self.moments = np.empty((p1, n_cells), complex)
        self.bound = np.zeros(n_cells)
        leaves = self.leaves
        count = self.count[leaves]
        self.center[leaves], self.rho[leaves] = _boxes(zs, count)
        self.scale = np.where(self.rho > 0, self.rho, 1.0)
        own = np.repeat(leaves, count)
        u = (zs - self.center[own]) / self.scale[own]
        offs = self.start[leaves]
        pw = ms.astype(complex)
        for k in range(p1):
            self.moments[k, leaves] = np.add.reduceat(pw, offs)
            pw *= u
        mass = self.moments[0].real
        self.bound[leaves] = np.where(self.rho[leaves] > 0,
                                      _EPS * (8 * p1 + count) * mass[leaves], 0.0)
        inner = ~self.is_leaf
        for level in range(int(self.level.max()) - 1, -1, -1):
            cells = np.flatnonzero(inner & (self.level == level))
            if not cells.size:
                continue
            kids = self.nchild[cells]
            ch = _ranges(self.first[cells], kids)
            offs = np.cumsum(kids) - kids
            c = self.center[ch]
            self.center[cells] = _mid(c.real, offs) + 1j * _mid(c.imag, offs)
            off = c - np.repeat(self.center[cells], kids)
            rho = np.maximum.reduceat(self.rho[ch] + np.abs(off), offs) * (1 + 8 * _EPS)
            self.rho[cells] = rho
            self.scale[cells] = s = np.where(rho > 0, rho, 1.0)
            s = np.repeat(s, kids)
            a = self.rho[ch] / s
            beta = off / s
            t = np.take(self.moments, ch, axis=1) * a ** _K[:, None]
            for i in range(1, p1):
                t[i:] += beta * t[i - 1:-1]
            self.moments[:, cells] = np.add.reduceat(t, offs, axis=1)
            self.bound[cells] = np.add.reduceat(self.bound[ch], offs) + np.where(
                rho > 0, _EPS * 16 * p1 * self.moments[0, cells].real, 0.0)

    @property
    def is_leaf(self):
        return self.nchild == 0


class _Groups:
    """The targets in groups: group g holds the slots start[g]:start[g] +
    count[g], slot i is target order[i], of[i] is its group, and each target
    of g lies within rho[g] of center[g]."""

    def __init__(self, order, count, center, rho):
        self.order, self.count, self.center, self.rho = order, count, center, rho
        self.start = np.cumsum(count) - count
        self.of = np.repeat(np.arange(count.size), count)


def _leaf_groups(tree, n):
    """The first n points of tree, grouped by its leaves."""
    member = tree.perm < n
    count = np.add.reduceat(member.astype(np.int64), tree.start[tree.leaves])
    held = tree.leaves[count > 0]
    return _Groups(tree.perm[member], count[count > 0], tree.center[held], tree.rho[held])


def _run_groups(z):
    """The points z in Morton order, cut into runs of LEAF; points on a line
    come in increasing order, so each run is an interval of neighbours."""
    n = z.size
    order = np.argsort(_morton(z, np.zeros(1, np.int64), np.array([n])), kind="stable")
    count = np.diff(np.append(np.arange(0, n, LEAF), n))
    return _Groups(order, count, *_boxes(z[order], count))


def _sides(dist, rho, r_lo, r_hi):
    """(inside, outside): whether the disk of radius rho at distance dist from
    a center lies, with DISK_SLACK to spare, inside every disk about that
    center of radius r_lo or more, or outside every one of radius r_hi or
    less."""
    reach = dist + rho
    return (reach + DISK_SLACK * (reach + r_lo) <= r_lo,
            dist - rho > r_hi + DISK_SLACK * (reach + r_hi))


def _traverse(groups, tree, radii=None):
    """Split the (group, cell) pairs below the roots into far pairs, to expand,
    and near leaf pairs, to sum directly.

    radii is (r_lo, r_hi), the least and largest disk radius of each group's
    targets; a cell wholly outside every disk of its group is skipped, and one
    crossing a circle is opened.  None means every source is summed.
    """
    far, near = [], []
    # Blocks of LEAF targets a group bound the frontier of (group, cell)
    # pairs; each group's pairs come out in the same order in any block.
    for blk in row_blocks(groups.center.size, LEAF):
        g = np.repeat(np.arange(blk.start, blk.stop), tree.roots.size)
        c = np.tile(tree.roots, g.size // tree.roots.size)
        while g.size:
            dist = np.abs(tree.center[c] - groups.center[g])
            rho = groups.rho[g] + tree.rho[c]
            inside, outside = (True, False) if radii is None else _sides(
                dist, rho, *(r[g] for r in radii))
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


def _local(moments, scale_s, rho_t, d, matrix):
    """Local coefficients about the group center of the moment expansions
    (scaled by scale_s) about centers at offset d, scaled to targets
    v = (z - t) / rho_t, less the log(-d) term of the log kernel (added by the
    caller)."""
    gamma = moments * _powers(-scale_s / d)
    # Two real einsums: a small threaded BLAS matmul costs far more here.
    local = (np.einsum("nk,kl->nl", gamma.real, matrix)
             + 1j * np.einsum("nk,kl->nl", gamma.imag, matrix))
    return local * _powers(rho_t / d)


def _far_pairs(groups, tree, g, c, kind):
    """Local coefficients, truncation and moment rounding bounds, and
    magnitude scales of the far pairs.

    For sources within rho_s of s, targets within rho_t of t and d = s - t,
    with x = rho_s/|d|, y = rho_t/|d|, th = rho_s/(|d| - rho_t) and
    q = rho_t/(|d| - rho_s), the remainders after p terms are at most, per
    unit of multiplicity,
      log kernel:    th^(p+1)/((p+1)(1-th)) + y^(p+1)/((p+1)(1-y))
                     + x/(1-x) q^(p+1)/(1-q)
      Cauchy kernel: th^(p+1)/((|d|-rho_t)(1-th)) + q^(p+1)/(|d|(1-x)(1-q))
    (the multipole tail, the local tail of the log, and the local tail of the
    moment terms, bounded by summing the binomial series in closed form).
    Moment k, of scale S, enters the value through at most (S/(|d|-rho_t))^k / k
    (log) or (S/(|d|-rho_t))^k / (|d|-rho_t) (Cauchy), so the cell's moment
    rounding bound enters through the same series.
    """
    t, s = groups.center[g], tree.center[c]
    rho_t, rho_s, scale_s = groups.rho[g], tree.rho[c], tree.scale[c]
    mom = np.take(tree.moments, c, axis=1).T
    mass = mom[:, 0].real
    d = s - t
    dist = np.abs(d)
    rho = rho_t + rho_s
    p1 = ORDER + 1
    x, y = rho_s / dist, rho_t / dist
    th, q = rho_s / (dist - rho_t), rho_t / (dist - rho_s)
    moment_tail = x / (1 - x) * q ** p1 / (1 - q)
    rounding = tree.bound[c] * _series(scale_s / (dist - rho_t))
    if kind == "cauchy":
        beta = -_local(mom, scale_s, rho_t, d, _M2L_CAUCHY) / d[:, None]
        trunc = th ** p1 / ((dist - rho_t) * (1 - th)) + q ** p1 / (dist * (1 - x) * (1 - q))
        return beta, mass * trunc + rounding / (dist - rho_t), mass / (dist - rho)
    trunc = (th ** p1 / (1 - th) + y ** p1 / (1 - y)) / p1 + moment_tail
    if kind == "log":
        beta = _local(mom, scale_s, rho_t, d, _M2L_LOG)
        beta[:, 0] += mass * np.log(dist)
        logs = np.maximum(np.abs(np.log(dist - rho)), np.abs(np.log(dist + rho)))
        return beta, mass * trunc + rounding, mass * (1 + logs)
    # log-rho: the kernel with sources conj(lambda) less the kernel with lambda.
    dc = np.conj(s) - t
    beta = (_local(np.conj(mom), scale_s, rho_t, dc, _M2L_LOG)
            - _local(mom, scale_s, rho_t, d, _M2L_LOG))
    # The monopole is numutil's term of the cell's mass at the group center;
    # top bounds the term over the pair's points, 4 a b / D^2 formed, as there,
    # from binary_scaled lengths, so that no square or product overflows.
    beta[:, 0] += 0.5 * log_rho_terms(t.real, t.imag, s.real, s.imag, mass, np.empty(g.size))
    (a, b, gap), _ = binary_scaled(t.imag + rho_t, s.imag + rho_s, dist - rho)
    top = 0.5 * np.log1p(4 * a * b / gap ** 2)
    return beta, 2 * (mass * trunc + rounding), mass * (1 + top)


def _far_field(kind, groups, tree, far_g, far_c, z, n_bands):
    """Per slot and band: the far pairs' value of the plain kernel (the
    imaginary part of the Cauchy expansions, the real part of the log and
    log-rho ones), truncation bound and magnitude scale, (slots, n_bands)
    each, and the far pairs per slot."""
    n_groups = groups.count.size
    size = n_groups * n_bands
    key = far_g * n_bands + tree.band[far_c]
    order = np.argsort(key, kind="stable")
    key, far_g, far_c = key[order], far_g[order], far_c[order]
    local = np.zeros((ORDER + 1, size), complex)
    sums = np.zeros((2, size))  # truncation bound, scale
    for blk in row_blocks(key.size, ORDER + 1):  # a few (p + 1)-term rows a pair
        beta, trunc, scale = _far_pairs(groups, tree, far_g[blk], far_c[blk], kind)
        k = key[blk]
        heads = np.concatenate([[0], np.flatnonzero(np.diff(k)) + 1])
        local[:, k[heads]] += np.add.reduceat(beta, heads, axis=0).T
        for row, w in zip(sums, (trunc, scale)):
            row[k[heads]] += np.add.reduceat(w, heads)

    g_of = groups.of
    rho_t = groups.rho[g_of]
    v = ((z - groups.center[g_of]) / np.where(rho_t > 0, rho_t, 1.0))[:, None]
    local = local.reshape(ORDER + 1, n_groups, n_bands)
    acc = local[ORDER][g_of]
    for k in range(ORDER - 1, -1, -1):
        acc *= v
        acc += local[k][g_of]
    trunc, scale = (s.reshape(n_groups, n_bands)[g_of] for s in sums)
    value = acc.imag.copy() if kind == "cauchy" else acc.real.copy()
    return value, trunc, scale, np.bincount(far_g, minlength=n_groups)[g_of]


def _padded(start, count, width, pad):
    """(cells, width) positions start + k of each cell's members, padded with
    the position pad, and the mask of the real ones."""
    k = np.arange(width)
    real = k < count[:, None]
    return np.where(real, start[:, None] + k, pad), real


def _direct(kind, tree, z, start, count, c, out, n_bands):
    """Add the Cauchy or log-rho direct sums of (target run, leaf) pairs into
    out: pair k sums the targets z[start[k]:start[k] + count[k]] against the
    points of leaf c[k].  The flat (targets, n_bands) rows of out get each
    target's sum, the sum of its term magnitudes and the leaf's size at
    (target, band of the leaf).  The terms are numutil's, from contiguous
    copies of the coordinates.

    The pairs go in (run length, leaf size) order, in (pairs, rows, columns)
    blocks of about numutil's budget of terms, _TERM_WORDS words each, padded
    to the block's longest run and largest leaf; padding sources have
    multiplicity 0 and padding targets are dropped.
    """
    if kind == "cauchy":
        rows, cols = (z.real.copy(),), poisson_points(tree.points, tree.weights)
    else:
        rows = z.real.copy(), z.imag.copy()
        cols = tree.points.real.copy(), tree.points.imag.copy(), tree.weights
    sizes = tree.count[c]
    order = np.lexsort((sizes, count))
    terms = numutil._BLOCK_WORDS // _TERM_WORDS
    lo = 0
    while lo < order.size:
        p = order[lo:lo + 1 + terms // (count[order[lo]] * sizes[order[lo]])]
        p = p[:max(1, terms // int(count[p].max() * sizes[p].max()))]
        lo += p.size
        ti, real = _padded(start[p], count[p], int(count[p].max()), 0)
        sj, _ = _padded(tree.start[c[p]], sizes[p], int(sizes[p].max()), tree.perm.size)
        tgt = [a[ti][:, :, None] for a in rows]
        src = [a[sj][:, None, :] for a in cols]
        block = np.empty((p.size, ti.shape[1], sj.shape[1]))
        if kind == "cauchy":
            term = mag = poisson_terms(*tgt, src, block).sum(axis=2)
        else:
            term = 0.5 * log_rho_terms(*tgt, *src, block).sum(axis=2)
            mag = term + src[2].sum(axis=2)
        ti = ti[real]
        _add_at(out, ti * n_bands + np.repeat(tree.band[c[p]], count[p]), term[real],
                mag[real], np.repeat(sizes[p], count[p]).astype(float))


def _log_direct(tree, z, r, log_r, t, c, include_center, out):
    """Add the truncated-log direct sums of (target, leaf) pairs into out:
    pair k sums the points of leaf c[k] in the disk about z[t[k]] of radius
    r[t[k]] (log_r its log), and the rows (value, term magnitude, ops) of out
    get, at t[k], that sum, the sum of its term magnitudes and the leaf's
    size.  The pairs' points form one ragged run, cut into blocks (numutil's
    budget, _TERM_WORDS words a point), and each pair's terms are summed by
    np.add.reduceat.
    """
    sizes = tree.count[c]
    for blk in blocks(_TERM_WORDS * sizes):
        t_b, size = t[blk], sizes[blk]
        pos = _ranges(tree.start[c[blk]], size)
        d = np.take(tree.points, pos)
        d -= np.repeat(z[t_b], size)
        d = np.abs(d)
        inside = d <= np.repeat(r[t_b], size)
        inside &= d > 0
        m = np.take(tree.weights, pos)
        sums = np.zeros((3, d.size))  # in-disk mass, m log d and |m log d|
        np.multiply(m, inside, out=sums[0])
        np.log(d, out=sums[1], where=inside)
        sums[1] *= sums[0]
        np.abs(sums[1], out=sums[2])
        heads = np.cumsum(size) - size
        mass, logs, mag = np.add.reduceat(sums, heads, axis=1)
        if include_center:  # the point at the center adds m log r
            mass += np.add.reduceat(np.where(d == 0, m, 0.0), heads)
        lr = log_r[t_b]
        _add_at(out, t_b, mass * lr - logs, mass * (1 + np.abs(lr)) + mag, size.astype(float))


def _log_bounded(tree, c, low, log_r):
    """Half-width and term magnitude bound of the leaves c crossing circles
    of radius r: each in-disk point is at least low > 0 and at most r away,
    so the leaf adds a value in [0, M log(r / low)]."""
    mass = tree.moments[0, c].real
    log_low = np.log(low)
    half = 0.5 * mass * np.maximum(log_r - log_low, 0.0)
    return half, mass * (1 + np.abs(log_r) + np.maximum(np.abs(log_low), np.abs(log_r)))


def _log_expanded(tree, coef, c, z, dist, low, log_r):
    """Value, term magnitude bound and remainder bound of the leaves c wholly
    inside circles of radius r about z, with x = rho / dist <= 1/SEP.

    The value is M (log r - log dist) + Re sum_k (moment_k / k) w^k with
    w = scale / (z - center), by Horner; after p terms the remainder is at
    most M x^(p+1) / ((p+1)(1-x)), and the moment rounding bound enters
    through sum_k x^k / k <= x / (1 - x).
    """
    mass = tree.moments[0, c].real
    w = tree.scale[c] / (z - tree.center[c])
    coef = np.take(coef, c, axis=1)
    acc = coef[ORDER - 1]
    for j in range(ORDER - 2, -1, -1):
        acc *= w
        acc += coef[j]
    acc *= w
    x = tree.rho[c] / dist
    logs = np.maximum(np.abs(np.log(low)), np.abs(log_r))
    return (mass * (log_r - np.log(dist)) + acc.real, mass * (1 + np.abs(log_r) + logs),
            mass * x ** (ORDER + 1) / ((ORDER + 1) * (1 - x)) + tree.bound[c] * x / (1 - x))


def _log_near(tree, near, of, z, r, log_r, include_center, refine=False):
    """The truncated log's near field, decided leaf by leaf against each
    target's own circle (see the module docstring).

    near is (start, count, leaves) of each group's near leaves, and of[i] the
    group of target i.  Returns, per target, (value, scale, ops, trunc) of the
    leaves expanded or summed directly and (mid, scale, ops, half) of the
    crossing leaves bounded.  refine makes the same decision again and sums
    only the crossing leaves, directly, into (value, scale, ops).
    """
    near_start, near_count, near_c = near
    coef = tree.moments[1:] / _L[:, None]
    out = np.zeros((4, z.size))
    cross = np.zeros((4, z.size))
    k = near_count[of]
    for blk in blocks(4 * _TERM_WORDS * k):  # about 100 bytes a decision
        kb = k[blk]
        t = np.repeat(np.arange(blk.start, blk.stop), kb)
        c = near_c[_ranges(near_start[of[blk]], kb)]
        rt = np.repeat(r[blk], kb)
        dist = np.take(tree.center, c)
        dist -= np.repeat(z[blk], kb)
        dist = np.abs(dist)
        rho = np.take(tree.rho, c)
        inside, outside = _sides(dist, rho, rt, rt)
        with np.errstate(invalid="ignore"):  # NaN where dist overflows: summed directly
            low = dist - rho - DISK_SLACK * (dist + rho)  # below every point's distance
        expand = inside & (SEP * rho <= dist) & (dist > 0)
        bound = ~(inside | outside) & (low > 0)
        i = np.flatnonzero(bound if refine else ~(expand | bound | outside))
        _log_direct(tree, z, r, log_r, t[i], c[i], include_center, out[:3])
        if refine:
            continue
        i = np.flatnonzero(bound)
        half, mag = _log_bounded(tree, c[i], low[i], log_r[t[i]])
        _add_at(cross, t[i], half, mag, np.ones(i.size), half)
        i = np.flatnonzero(expand)
        value, mag, trunc = _log_expanded(tree, coef, c[i], z[t[i]], dist[i], low[i],
                                          log_r[t[i]])
        _add_at(out, t[i], value, mag, np.ones(i.size), trunc)
    return out, cross


@np.errstate(over="ignore")  # once per sweep, for numutil's term functions
def _enclose(kind, targets, src, mult, band, n_bands, radii=None, include_center=False):
    """Approximate band sums and bounds, (n_bands, n_targets) each.

    targets are complex points (real abscissae for the Cauchy kernel); src,
    mult and band describe the sources in canonical order, with band
    non-decreasing and below n_bands; radii gives each target's disk for the
    log kernel, whose one band comes back as (value, err, refine) of 1-d
    arrays (see truncated_log_enclosures).  Internally the targets sit in
    slot order, group by group; slot_of maps each target to its slot.
    """
    n_t = targets.size
    tree = _Tree(src, band, LEAF, mult)
    prefix = n_t <= src.size and np.array_equal(targets, src[:n_t])
    groups = _leaf_groups(tree, n_t) if prefix else _run_groups(targets)
    z = targets[groups.order]
    slot_of = np.empty(n_t, np.int64)
    slot_of[groups.order] = np.arange(n_t)
    r = span = None
    if kind == "log":
        r = radii[groups.order]
        span = tuple(f.reduceat(r, groups.start) for f in (np.minimum, np.maximum))
    far_g, far_c, near_g, near_c = _traverse(groups, tree, span)
    value, trunc, scale, n_far = _far_field(kind, groups, tree, far_g, far_c, z, n_bands)
    ops = n_far + (TREE_OPS + log2(max(src.size, 1)) + 8 + n_bands)
    if kind != "log":
        terms = np.zeros_like(value)
        _direct(kind, tree, z, groups.start[near_g], groups.count[near_g], near_c,
                (value.ravel(), scale.ravel(), terms.ravel()), n_bands)
        err = trunc + _EPS * (ops + terms.sum(axis=1))[:, None] * scale
        return value[slot_of].T, err[slot_of].T
    # The truncated log is M log r less the log kernel, M the far cells' mass:
    # a sum of integer multiplicities, exact in any order.
    log_r = np.log(np.where(r > 0, r, 1.0))
    mass = np.bincount(far_g, tree.moments[0, far_c].real, groups.count.size)[groups.of]
    value = mass * log_r - value[:, 0]
    trunc, scale = trunc[:, 0], scale[:, 0] + mass * (1 + np.abs(log_r))
    order = np.argsort(near_g, kind="stable")
    count = np.bincount(near_g, minlength=groups.count.size)
    near = (np.cumsum(count) - count, count, near_c[order])
    near_sums, cross = _log_near(tree, near, groups.of, z, r, log_r, include_center)
    value, scale, ops, trunc = (a + b for a, b in zip((value, scale, ops, trunc), near_sums))

    def err(trunc, scale, ops):
        # Widened by 2^-20 for the rounding of the bound itself.
        return (trunc + _EPS * ops * scale) * (1 + 2.0 ** -20)

    @np.errstate(over="ignore")  # as _enclose, which has returned when refine runs
    def refine(idx):
        s = slot_of[np.asarray(idx, dtype=np.int64)]
        more, _ = _log_near(tree, near, groups.of[s], z[s], r[s], log_r[s], include_center,
                            refine=True)
        return value[s] + more[0], err(trunc[s], scale[s] + more[1], ops[s] + more[2])

    first = (value + cross[0], err(trunc + cross[3], scale + cross[1], ops + cross[2]))
    return first[0][slot_of], first[1][slot_of], refine


def _columns(value, err):
    """Prefix sums over the bands, with the bound widened by 2^-20 for the
    rounding of the bound itself."""
    return np.cumsum(value, axis=0), np.cumsum(err, axis=0) * (1 + 2.0 ** -20)


def _bands(n, ends):
    """Band of each of the first n points: the number of ends at or below its
    index, so that the points within ends[k] are the bands up to k (some
    bands may be empty)."""
    return np.searchsorted(np.asarray(ends), np.arange(n), side="right")


def contenders(value, err, scale=1.0) -> np.ndarray:
    """Indices whose enclosure of value / scale reaches the best lower bound.

    With value - err <= v <= value + err for every direct value v, each index
    left out has v / scale strictly below the direct value of the index with
    the best lower bound, so the first maximum over all indices is the first
    maximum over those kept.  A NaN bound keeps its index.
    """
    lo = (value - err) / scale
    hi = (value + err) / scale
    return np.flatnonzero(~(hi < np.max(lo, initial=-np.inf)))


def first_maxima(ends, sets, direct, scale, refine=None) -> list:
    """Per prefix n in ends, (i, v): the first candidate i with the largest
    direct / scale, and that ratio v; None for n = 0.

    sets gives each prefix's (own, value, err): its candidates, increasing
    and at least one where n > 0, and enclosures value[i] - err[i] <= d_i <=
    value[i] + err[i], i in own, of their direct values d_i, which
    direct(n, idx) returns at the candidates idx; scale > 0.  Each prefix
    keeps its contenders, and direct runs once per distinct prefix, on those.
    refine(idx) gives enclosures for every prefix, so the direct values do
    not depend on it: refine and then direct run once each, on the union of
    the candidates kept before them.  Equal prefixes share one answer.
    """
    kept = {}
    for n, (own, value, err) in zip(ends, sets):
        if n and n not in kept:
            kept[n] = own[contenders(value[own], err[own], scale[own])]
    if refine is not None and kept:
        union = np.unique(np.concatenate(list(kept.values())))
        value, err = refine(union)
        for n, idx in kept.items():
            at = np.searchsorted(union, idx)
            kept[n] = idx[contenders(value[at], err[at], scale[idx])]
        union = np.unique(np.concatenate(list(kept.values())))
        sums = direct(max(kept), union)
        direct = lambda n, idx: sums[np.searchsorted(union, idx)]
    for n, idx in kept.items():  # contenders keeps an index of every set
        ratios = direct(n, idx) / scale[idx]
        j = int(np.argmax(ratios))
        kept[n] = int(idx[j]), float(ratios[j])
    return [kept.get(n) for n in ends]


def log_rho_prefix_enclosures(lam, mult, ends):
    """Entry k: (value, err) at each center of lam[:ends[k]] of its exclusion
    sum over lam[:ends[k]] (log_rho_sums)."""
    ends = [int(e) for e in ends]
    n = max(ends, default=0)
    if n == 0:
        return [(np.zeros(0), np.zeros(0)) for _ in ends]
    value, err = _columns(*_enclose("log-rho", lam[:n], lam[:n], mult[:n], _bands(n, ends),
                                    len(ends)))
    return [(value[k, :e], err[k, :e]) for k, e in enumerate(ends)]


def poisson_prefix_enclosures(lam, mult, xs, ends):
    """Entry k: (value, err) at every abscissa of the balayage of lam[:ends[k]]
    (poisson_sums)."""
    ends = [int(e) for e in ends]
    xs = np.asarray(xs, dtype=float)
    n = max(ends, default=0)
    if n * xs.size == 0:
        return [(np.zeros(xs.size), np.zeros(xs.size)) for _ in ends]
    src = lam[:n].real + 1j * np.abs(lam[:n].imag)
    value, err = _columns(*_enclose("cauchy", xs.astype(complex), src, mult[:n],
                                    _bands(n, ends), len(ends)))
    return list(zip(value, err))


def truncated_log_enclosures(lam, mult, centers, radii, include_center=False):
    """(value, err, refine) of truncated_log_sums at each center, with lam
    sorted by modulus as there.

    value - err <= direct <= value + err.  The first pass bounds each
    circle-crossing leaf; refine(idx) returns (value, err) at the centers idx
    with those leaves summed directly, a narrower enclosure.
    """
    centers = np.asarray(centers, dtype=complex)
    radii = np.maximum(np.asarray(radii, dtype=float), 0.0)
    # lam is sorted by modulus: the points beyond every disk add nothing.
    reach = np.max(np.abs(centers) + radii, initial=0.0) * (1 + DISK_SLACK)
    n = int(np.searchsorted(np.abs(lam), reach, side="right"))
    if n * centers.size == 0:
        zero = np.zeros(centers.size)
        return zero, zero, lambda idx: (zero[idx], zero[idx])
    return _enclose("log", centers, lam[:n], mult[:n], np.zeros(n, np.int64), 1, radii,
                    include_center)
