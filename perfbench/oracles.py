"""Independent output checks, one per workload.

Each ``check_<workload>`` returns a list of problems (empty when the output
is right).  Where a cheap independent route exists it is used:

* condition a/b and Blaschke witnesses are recomputed with the compensated
  direct sums ``integrated_count``, ``balayage_value`` and ``blaschke_sum``;
* the separation scan is redone with ``scipy.spatial.cKDTree.query_pairs``;
* the weight is recomputed here as ``|Im z| + log1p(|z|)``, not via apinterp;
* the ``log_square`` Poisson transform is ``log(x^2 + (1+y)^2)``; for
  ``log_shift`` it is re-integrated after the substitution t = x + y tan(th);
* the regularization correction uses the elementary antiderivative of the
  mean-log gap instead of per-interval quadrature;
* ``dbar_defect`` is compared with a Wirtinger stencil of
  ``smooth_interpolant``, and the dbar growth sweep is recomputed with the
  owning point known instead of located.
"""

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from apinterp import conditions, extension, halfplane, regularization, variety, weights

from workloads import PROFILES

CATALAN = 0.915965594177219015
# integral of omega(t) / (1 + t^2) over (0, inf) in closed form
W2_CLOSED = {"log_square": math.pi * math.log(2.0),
             "log_shift": math.pi * math.log(2.0) / 4.0 + CATALAN}


def _omega(t, family):
    t = np.asarray(t, dtype=float)
    return np.log1p(t * t) if family == "log_square" else np.log1p(t)


def _p(z, family="log_shift"):
    z = np.asarray(z, dtype=complex)
    return np.abs(z.imag) + _omega(np.abs(z), family)


def _close(problems, label, got, want, rtol, atol=0.0):
    if got is None or want is None or not math.isfinite(got) \
            or abs(got - want) > atol + rtol * abs(want):
        problems.append(f"{label}: got {got!r}, oracle {want!r}")


def _rows(data: bytes):
    return list(csv.reader(io.StringIO(data.decode())))


def _close_pairs_kd(lam):
    """(i, j, d) arrays of pairs with distance < 1, by k-d tree."""
    if lam.size < 2:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    pairs = cKDTree(np.c_[lam.real, lam.imag]).query_pairs(1.0, output_type="ndarray")
    if not len(pairs):
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    i, j = pairs[:, 0], pairs[:, 1]
    d = np.abs(lam[i] - lam[j])
    keep = d < 1.0
    return i[keep], j[keep], d[keep]


def _separation_worst(lam, mult):
    i, j, d = _close_pairs_kd(lam)
    if not d.size:
        return 0, 0.0
    p = np.maximum(_p(lam), 1.0)
    log_inv = -np.log(d)
    worst = max(float(np.max(mult[j] * log_inv / p[i])),
                float(np.max(mult[i] * log_inv / p[j])))
    return int(d.size), worst


def _check_separation(problems, sep, lam, mult):
    count, worst = _separation_worst(lam, mult)
    if sep is None:
        problems.append("separation section missing")
        return
    if sep["pairs_examined"] != count:
        problems.append(f"separation pairs_examined {sep['pairs_examined']} != "
                        f"k-d tree count {count}")
    _close(problems, "separation worst_constant", sep["worst_constant"], worst, 1e-12)


def _condition_a_ratios(v, zs):
    """N(z, p(z)) / max(p(z), 1) without the center term, by a direct numpy sum."""
    out = np.empty(zs.size)
    for lo in range(0, zs.size, 32):
        z = zs[lo:lo + 32, None]
        pz = _p(z)
        d = np.abs(z - v.lam[None, :])
        inside = (d > 0) & (d <= pz)
        terms = np.where(inside, v.mult * (np.log(pz) - np.log(np.where(inside, d, 1.0))),
                         0.0)
        out[lo:lo + 32] = terms.sum(axis=1) / np.maximum(pz[:, 0], 1.0)
    return out


def _blaschke_truncated(hv, radii):
    """S(lambda) with the sum truncated to |lambda'| <= R, for every point of
    hv (rows, in hv's order) and every R (columns); own term left out."""
    order = np.argsort(np.abs(hv.lam), kind="stable")
    lam, mult = hv.lam[order], hv.mult[order]
    cols = np.searchsorted(np.abs(lam), radii, side="right") - 1
    out = np.zeros((lam.size, len(radii)))
    for lo in range(0, lam.size, 32):
        z = hv.lam[lo:lo + 32, None]
        num = np.abs(z - lam[None, :])
        ratio = np.where(num > 0, num / np.abs(z - np.conj(lam)[None, :]), 1.0)
        sums = np.cumsum(mult * -np.log(ratio), axis=1)
        out[lo:lo + 32] = np.where(cols >= 0, sums[:, np.maximum(cols, 0)], 0.0)
    return out


def _monotone(problems, label, values, rtol=0.0):
    for a, b in zip(values, values[1:]):
        if b < a - rtol * abs(a):
            problems.append(f"{label}: constants decrease ({a!r} -> {b!r})")
            return


def check_report(report: bytes, lam, mult) -> list:
    """Oracle for an `apinterp check` JSON report on the points (lam, mult)."""
    problems = []
    rep = json.loads(report)
    window = rep["input"]["window_radius"]
    if rep["input"]["points"] != lam.size:
        problems.append(f"input points {rep['input']['points']} != {lam.size}")
    om = _omega(np.abs(lam), "log_shift")
    split = {"strip": int(np.sum(np.abs(lam.imag) <= om)),
             "upper": int(np.sum(lam.imag > om)),
             "lower": int(np.sum(lam.imag < -om))}
    if rep["split"] != split:
        problems.append(f"split {rep['split']} != {split}")
    _check_separation(problems, rep["separation"], lam, mult)

    v = variety.Variety(zip(lam, mult), window)
    where = {complex(z): int(m) for z, m in zip(v.lam, v.mult)}
    radii = rep["radii"]
    ca = rep["condition_a"]
    _monotone(problems, "condition a", ca["constants"])
    for r, c, wit in zip(radii, ca["constants"], ca["witnesses"]):
        if wit is None:
            if c != 0.0:
                problems.append(f"condition a R={r}: constant {c} without witness")
            continue
        z = complex(*wit)
        if z not in where or abs(z) > r:
            problems.append(f"condition a R={r}: witness {z} is not a point within R")
            continue
        pz = float(_p(z))
        n = variety.integrated_count(v, z, pz) - where[z] * math.log(pz)
        _close(problems, f"condition a R={r}", c, n / max(pz, 1.0), 1e-9)
    # each constant is the maximum over every point within R
    zs = v.lam[np.abs(v.lam) <= max(radii)]
    ratios = _condition_a_ratios(v, zs)
    for r, c in zip(radii, ca["constants"]):
        _close(problems, f"condition a max R={r}", c,
               float(np.max(ratios[np.abs(zs) <= r], initial=0.0)), 1e-9)

    cb = rep["condition_b"]
    ext = np.abs(lam.imag) > om
    for r, c, x in zip(radii, cb["constants"], cb["witnesses"]):
        keep = ext & (np.abs(lam) <= r)
        if x is None:
            if c != 0.0 or keep.any():
                problems.append(f"condition b R={r}: no witness for {c}")
            continue
        sub = variety.Variety(zip(lam[keep], mult[keep]), window)
        _close(problems, f"condition b R={r}", c,
               conditions.balayage_value(sub, x), 1e-9)

    for key, sel, flip in (("blaschke_upper", lam.imag > 0, False),
                           ("blaschke_lower", lam.imag < 0, True)):
        pts = np.conj(lam[sel]) if flip else lam[sel]
        ms = mult[sel]
        sweep = rep[key]
        if (sweep is None) != (pts.size == 0):
            problems.append(f"{key}: presence does not match {pts.size} points")
            continue
        if sweep is None:
            continue
        _monotone(problems, key, sweep["constants"], 1e-12)
        for r, c, wit in zip(sweep["radii"], sweep["constants"], sweep["witnesses"]):
            if wit is None:
                if c != 0.0:
                    problems.append(f"{key} R={r}: constant {c} without witness")
                continue
            keep = np.abs(pts) <= r
            hv = halfplane.HalfPlaneVariety(zip(pts[keep], ms[keep]), window)
            z = complex(*wit)
            val = halfplane.blaschke_sum(hv, z) / max(float(_p(z)), 1.0)
            _close(problems, f"{key} R={r}", c, val, 1e-9)
        # each constant is the maximum over every point within R
        hv = halfplane.HalfPlaneVariety(zip(pts, ms), window)
        ratios = _blaschke_truncated(hv, sweep["radii"]) / np.maximum(_p(hv.lam), 1.0)[:, None]
        abs_hv = np.abs(hv.lam)
        for k, (r, c) in enumerate(zip(sweep["radii"], sweep["constants"])):
            _close(problems, f"{key} max R={r}", c,
                   max(0.0, float(np.max(ratios[abs_hv <= r, k], initial=0.0))), 1e-9, 1e-12)
    return problems


def _dyadic_points(n_max):
    rows = [np.arange(-2.0 ** n + 1.0, 2.0 ** n, 2.0) + 1j * 2.0 ** n
            for n in range(1, n_max + 1)]
    lam = np.concatenate(rows)
    return lam, np.ones(lam.size, dtype=np.int64)


def check_profile(profile: bytes, inp, lam, mult) -> list:
    problems = []
    rows = _rows(profile)
    if rows[0] != ["x", "value"] or len(rows) != inp["samples"] + 2:
        return [f"profile: header {rows[0]} and {len(rows)} rows"]
    xs = np.array([float(r[0]) for r in rows[1:-1]])
    vals = np.array([float(r[1]) for r in rows[1:-1]])
    if not np.array_equal(xs, np.linspace(inp["xmin"], inp["xmax"], inp["samples"])):
        problems.append("profile: abscissae differ from the requested grid")
    ext = np.abs(lam.imag) > _omega(np.abs(lam), "log_shift")
    re, im, m = lam[ext].real, lam[ext].imag, mult[ext]
    direct = np.concatenate([
        (m * np.abs(im) / ((xs[lo:lo + 32, None] - re) ** 2 + im * im)).sum(axis=1)
        for lo in range(0, xs.size, 32)])
    if not np.allclose(vals, direct, rtol=1e-9, atol=0.0):
        problems.append("profile: values differ from the direct balayage sum")
    v_ext = variety.Variety(zip(lam[ext], mult[ext]))
    picks = set(np.linspace(0, xs.size - 1, 16).astype(int)) | {int(np.argmax(vals))}
    for k in sorted(picks):
        _close(problems, f"profile x={xs[k]!r}", vals[k],
               conditions.balayage_value(v_ext, xs[k]), 1e-9)
    x_star, sup = float(rows[-1][0]), float(rows[-1][1])
    if sup < vals.max():
        problems.append(f"profile: refined sup {sup!r} below grid max {vals.max()!r}")
    _close(problems, "profile sup", sup, conditions.balayage_value(v_ext, x_star), 1e-9)
    return problems


def check_check_dyadic(inp, out) -> list:
    lam, mult = _dyadic_points(inp["n_max"])
    return check_report(out["report"], lam, mult) + \
        check_profile(out["profile"], inp, lam, mult)


def check_check_strip(inp, out) -> list:
    rows = _rows(inp["csv"].read_bytes())[1:]
    lam = np.array([complex(float(a), float(b)) for a, b, _ in rows])
    mult = np.array([int(m) for _, _, m in rows], dtype=np.int64)
    return check_report(out["report"], lam, mult)


def _poisson_theta(x, y):
    """u(x + iy) for log_shift(1) by the substitution t = x + y tan(th)."""
    f = lambda th: math.log1p(abs(x + y * math.tan(th)))
    val, _ = quad(f, -math.pi / 2, math.pi / 2, points=[math.atan(-x / y)],
                  epsabs=1e-11, epsrel=1e-11, limit=200)
    return val / math.pi


def _correction_closed(part, zx, zy):
    """r(z) from the antiderivative of the mean-log gap on each interval:
    int log(u^2 + y^2) du = u log(u^2 + y^2) - 2u + 2|y| atan(u/|y|)."""
    left = np.array([iv.left for iv in part.intervals])
    right = np.array([iv.right for iv in part.intervals])
    big_r = regularization.SMEAR_FACTOR * np.array([iv.omega for iv in part.intervals])
    y = abs(zy)
    inside = y < big_r
    half = np.sqrt(np.where(inside, big_r * big_r - y * y, 0.0))
    a = np.maximum(left - zx, -half)
    b = np.minimum(right - zx, half)
    keep = inside & (a < b)
    a, b, rr = a[keep], b[keep], big_r[keep]

    def anti(u):
        s = u * u + y * y
        ulog = np.where(u == 0.0, 0.0, u * np.log(np.where(s > 0, s, 1.0)))
        return ((np.log(rr) - 0.5) * u + (u ** 3 / 3 + y * y * u) / (2 * rr * rr)
                - 0.5 * (ulog - 2 * u + 2 * y * np.arctan2(u, y)))

    return float(np.sum(anti(b) - anti(a)))


def _check_grid(problems, name, w, grid_bytes, g):
    rows = _rows(grid_bytes)
    if rows[0] != ["x", "y", "r", "p_tilde", "p", "ratio"] \
            or len(rows) != g["nx"] * g["ny"] + 1:
        problems.append(f"{name} grid: header {rows[0]} and {len(rows)} rows")
        return
    arr = np.array([[float(t) for t in r] for r in rows[1:]])
    x, y, r, pt, p, ratio = arr.T
    gx, gy = np.meshgrid(np.linspace(g["xmin"], g["xmax"], g["nx"]),
                         np.linspace(g["ymin"], g["ymax"], g["ny"]))
    if not (np.array_equal(x, gx.ravel()) and np.array_equal(y, gy.ravel())):
        problems.append(f"{name} grid: abscissae differ from the requested grid")
        return
    if not (np.array_equal(pt, np.abs(y) + r) and np.array_equal(ratio, pt / p)):
        problems.append(f"{name} grid: p_tilde or ratio columns inconsistent")
    p_ref = _p(x + 1j * y, name)
    if not np.allclose(p, p_ref, rtol=1e-12, atol=0.0):
        problems.append(f"{name} grid: p column differs from |Im z| + omega(|z|)")
    # The partition marches from the same start point, so the CLI's extent
    # (reproduced here) gives the same intervals.
    span = max(abs(g["xmin"]), abs(g["xmax"]))
    extent = span + 12.0 * regularization.SMEAR_FACTOR * max(w.omega(span + 1.0), 0.1)
    part = regularization.build_partition(w, extent)
    for k in range(x.size):
        _close(problems, f"{name} r({x[k]!r}, {y[k]!r})", r[k],
               _correction_closed(part, x[k], y[k]), 1e-9, 1e-6)


def check_weight_audit(inp, out) -> list:
    problems = []
    zs = np.asarray(inp["samples"], dtype=complex)
    for name, spec in PROFILES:
        w = weights.BeurlingWeight(weights.OmegaProfile.from_dict(json.loads(spec)))
        _check_grid(problems, name, w, out[name + ".grid"], inp["grid"])
        if name == "log_square":
            u = np.log(zs.real ** 2 + (1.0 + zs.imag) ** 2)
        else:
            u = np.array([_poisson_theta(z.real, z.imag) for z in zs])
        devs = np.abs(u - _omega(np.abs(zs), name))
        ys = zs.imag
        b_fit = max(0.0, float(np.polyfit(ys, devs, 1)[0]))
        a_fit = max(0.0, float(np.max(devs - b_fit * ys)))
        rep = json.loads(out[name + ".poisson"])
        if rep["n_samples"] != zs.size:
            problems.append(f"{name} poisson: {rep['n_samples']} samples, sent {zs.size}")
        _close(problems, f"{name} poisson max_deviation", rep["max_deviation"],
               float(devs.max()), 1e-8, 1e-9)
        _close(problems, f"{name} poisson a_fit", rep["a_fit"], a_fit, 1e-7, 1e-8)
        _close(problems, f"{name} poisson b_fit", rep["b_fit"], b_fit, 1e-7, 1e-8)
        ax = json.loads(out[name + ".axioms"])
        _close(problems, f"{name} axioms w2_integral", ax["w2_integral"],
               W2_CLOSED[name], 1e-9)
    return problems


def check_jet_extension(inp, out) -> list:
    problems = []
    v, data, eps = inp["variety"], inp["data"], inp["eps"]
    lam, mult = v.lam, v.mult
    p = _p(lam)
    rad = json.loads(out["radii"])
    delta, growth, radii = rad["delta"], rad["growth"], np.array(rad["radii"])

    _, worst = _separation_worst(lam, mult)
    _close(problems, "separation growth", growth, max(0.1, 2.0 * worst), 1e-12)
    shrink = np.exp(-growth * np.maximum(p, 0.0) / mult)
    i, j, d = _close_pairs_kd(lam)
    want_delta = min([0.25] + list(d / (2 * (shrink[i] + shrink[j])) / 2.0))
    _close(problems, "separation delta", delta, want_delta, 1e-12)
    if not np.allclose(radii, delta * np.exp(-growth * p / mult), rtol=1e-12, atol=0.0):
        problems.append("separation radii differ from delta * exp(-C p / mult)")
    tree = cKDTree(np.c_[lam.real, lam.imag])
    for a, b in tree.query_pairs(4.0 * radii.max()):
        if abs(lam[a] - lam[b]) < 2 * (radii[a] + radii[b]):
            problems.append(f"separation disks overlap at {lam[a]}")
            break
    sep = extension.SeparationRadii(lam.copy(), radii, delta, growth)

    # dbar_defect against a Wirtinger stencil of smooth_interpolant; the
    # stencil error is O(h^2), so one Richardson step (h, h/2) removes it.
    rng = np.random.default_rng(17)
    f = lambda zz: extension.smooth_interpolant(data, sep, zz)

    def wirtinger(z, h):
        return ((f(z + h) - f(z - h)) + 1j * (f(z + 1j * h) - f(z - 1j * h))) / (4 * h)

    for k in rng.choice(lam.size, size=min(16, lam.size), replace=False):
        z = lam[k] + np.sqrt(rng.uniform(1.1, 1.9)) * radii[k] * np.exp(
            2j * np.pi * rng.random())
        h = 1e-3 * radii[k]
        stencil = (4 * wirtinger(z, h / 2) - wirtinger(z, h)) / 3
        analytic = extension.dbar_defect(data, sep, z)
        if abs(stencil - analytic) > 1e-5 * max(1.0, abs(analytic)):
            problems.append(f"dbar_defect at {z}: {analytic} vs stencil {stencil}")

    # dbar growth sweep and both weighted integrals recomputed with the
    # owning point known instead of located
    dbar = json.loads(out["dbar"])
    cutoff = extension.CutoffSpec()
    n_theta, n_rad = 16, 5
    width = max(len(row) for row in data.values)
    coeffs = np.array([list(row) + [0j] * (width - len(row)) for row in data.values])

    def ring_samples(fracs):
        """(dz, z, u) on rings sqrt(frac) * radius around every point, in the
        program's loop order (point, ring, angle)."""
        dz = (np.sqrt(fracs)[None, :, None] * radii[:, None, None]
              * np.exp(1j * np.linspace(0.0, 2 * math.pi, n_theta, endpoint=False)))
        acc = np.zeros(dz.shape, dtype=complex)
        for j in reversed(range(width)):
            acc = acc * dz + coeffs[:, j, None, None]
        z = lam[:, None, None] + dz
        return dz, z, acc, (np.abs(dz) / radii[:, None, None]) ** 2

    dz, z, acc, u = ring_samples(np.linspace(1.05, 1.95, n_rad))
    slope = np.frompyfunc(cutoff.derivative, 1, 1)(u).astype(float)
    vals = np.abs(acc * slope * dz / (radii ** 2)[:, None, None]).ravel()
    pz = _p(z).ravel()
    pos = vals > 0
    logs = np.log(vals[pos])
    log_sup = float(logs.max()) if pos.any() else -math.inf
    sup_log = float(np.max(logs / np.maximum(pz[pos], 1.0))) if pos.any() else 0.0
    k_fit = max(0.0, sup_log)
    gamma = 2 * k_fit + 2.0
    cells = np.repeat(math.pi * radii ** 2, n_rad * n_theta)
    int_dbar = float(np.sum(vals ** 2 * np.exp(-gamma * pz) * cells * (0.9 / n_rad / n_theta)))

    _, z, acc, u = ring_samples(np.linspace(0.05, 1.95, 2 * n_rad))
    height = np.frompyfunc(cutoff.value, 1, 1)(u).astype(float)
    f_abs = np.abs(acc * height).ravel()
    cells = np.repeat(math.pi * radii ** 2, 2 * n_rad * n_theta)
    int_f = float(np.sum(f_abs ** 2 * np.exp(-gamma * _p(z).ravel()) * cells
                         * (1.9 / (2 * n_rad) / n_theta)))

    if dbar["n_samples"] != vals.size:
        problems.append(f"dbar n_samples {dbar['n_samples']} != {vals.size}")
    _close(problems, "dbar log_sup", dbar["log_sup"], log_sup, 1e-9, 1e-12)
    _close(problems, "dbar k_fit", dbar["k_fit"], k_fit, 1e-9, 1e-12)
    _close(problems, "dbar gamma", dbar["gamma"], gamma, 1e-9)
    _close(problems, "dbar integral_f", dbar["integral_f"], int_f, 1e-9)
    _close(problems, "dbar integral_dbar", dbar["integral_dbar"], int_dbar, 1e-9)

    # annulus counting constants by a direct numpy integrated count
    ann = json.loads(out["annulus"])
    _close(problems, "annulus c_prime", ann["c_prime"], ann["c_eps"] ** 2 + 1.0, 1e-15)
    ratios = np.zeros(lam.size)
    abs_lam = np.abs(lam)
    r_max = inp["radii"][-1]
    c_prime = ann["c_eps"] ** 2 + 1.0
    domination = 0.0
    for k in np.nonzero(abs_lam <= r_max)[0]:
        ring = math.sqrt(1.5) * radii[k]
        zs = lam[k] + ring * np.exp(1j * np.linspace(0.0, 2 * math.pi, 8, endpoint=False))
        pz = _p(zs)
        rr = ann["c_eps"] * pz
        dist = np.abs(zs[:, None] - lam[None, :])
        inside = (dist > 0) & (dist <= rr[:, None])
        terms = np.where(inside, mult * (np.log(rr)[:, None]
                                         - np.log(np.where(inside, dist, 1.0))), 0.0)
        ratios[k] = max(0.0, float(np.max(terms.sum(axis=1) / np.maximum(pz, 1.0))))
        rr = c_prime * p[k]
        dist = np.abs(lam - lam[k])
        inside = (dist > 0) & (dist <= rr)
        rhs = p[k] + float(np.sum(mult[inside] * (math.log(rr) - np.log(dist[inside]))))
        if rhs > 0:
            domination = max(domination, ratios[k] * max(p[k], 1.0) / rhs)
    for r, c in zip(ann["radii"], ann["constants"]):
        _close(problems, f"annulus R={r}", c, float(np.max(ratios[abs_lam <= r],
                                                          initial=0.0)), 1e-9, 1e-12)
    _close(problems, "annulus domination", ann["domination"], domination, 1e-9, 1e-12)

    # subharmonic audit: beta0 from a numpy singular weight
    sub = json.loads(out["subharmonic"])
    h = 0.02
    offs = np.array([0, h, -h, 1j * h, -1j * h])
    cap = eps * p
    beta0, laps = 0.0, []
    for z in inp["samples"]:
        zz = z + offs
        dist = np.abs(zz[:, None] - lam[None, :])
        inside = (dist <= cap) & (cap > 0)
        u = np.where(inside, (dist / np.where(cap > 0, cap, 1.0)) ** 2, 1.0)
        vs = np.sum(np.where(inside, mult * (np.log(u) + 1.0 - u), 0.0), axis=1)
        ps = _p(zz)
        lap_v = (vs[1] + vs[2] + vs[3] + vs[4] - 4 * vs[0]) / (h * h)
        lap_p = (ps[1] + ps[2] + ps[3] + ps[4] - 4 * ps[0]) / (h * h)
        laps.append((lap_p, lap_v))
        if lap_v < 0 and lap_p > 0:
            beta0 = max(beta0, -lap_v / lap_p)
    if sub["n_samples"] != len(inp["samples"]):
        problems.append(f"subharmonic n_samples {sub['n_samples']} != "
                        f"{len(inp['samples'])}")
    _close(problems, "subharmonic beta0", sub["beta0"], beta0, 1e-6)
    worst = min((beta0 * lp + lv for lp, lv in laps), default=0.0)
    # worst cancels beta0 * lap_p against lap_v: scale beta0's tolerance by them
    scale = max((abs(lv) for _, lv in laps), default=0.0)
    _close(problems, "subharmonic worst_residual", sub["worst_residual"], worst, 0.0,
           1e-6 * scale)
    return problems


def check_strip_weight_jet(inp, out) -> list:
    return (check_check_strip(inp["strip"], out) + check_weight_audit(inp["weight"], out)
            + check_jet_extension(inp["jet"], out))


CHECKS = {
    "check-dyadic": check_check_dyadic,
    "strip-weight-jet": check_strip_weight_jet,
}
