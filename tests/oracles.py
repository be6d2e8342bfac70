"""Independent reference implementations used to cross-check the package.

Everything here is written in plain Python (lists, math, explicit loops)
on purpose: these are the definitional oracles, deliberately sharing no
code with the implementation under test. The benchmark's checks import
this module, so it holds only what they call and the helpers those use.
The bitwise references for the package's vectorised, shared or in-place
forms live in bitwise_oracles.py, and the per-event ingest references in
ingest_oracles.py.
"""

from __future__ import annotations

import math


# ---------------------------------------------------------------------------
# basic statistics (linear-interpolation percentiles, population moments)

def o_mean(a):
    return sum(a) / len(a)


def o_std(a):
    m = o_mean(a)
    return math.sqrt(sum((v - m) ** 2 for v in a) / len(a))


def o_percentile(a, q):
    s = sorted(a)
    if len(s) == 1:
        return s[0]
    h = (len(s) - 1) * (q / 100.0)
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return s[lo]
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def o_median(a):
    return o_percentile(a, 50.0)


def o_iqr(a):
    return o_percentile(a, 75.0) - o_percentile(a, 25.0)


def o_skew(a):
    """(value, defined): needs >= 3 points; 0 for a constant series."""
    if len(a) < 3:
        return 0.0, False
    m = o_mean(a)
    m2 = o_mean([(v - m) ** 2 for v in a])
    if m2 == 0.0:
        return 0.0, True
    m3 = o_mean([(v - m) ** 3 for v in a])
    return m3 / m2 ** 1.5, True


def o_kurt(a):
    """(value, defined): excess kurtosis, needs >= 4 points."""
    if len(a) < 4:
        return 0.0, False
    m = o_mean(a)
    m2 = o_mean([(v - m) ** 2 for v in a])
    if m2 == 0.0:
        return 0.0, True
    m4 = o_mean([(v - m) ** 4 for v in a])
    return m4 / (m2 * m2) - 3.0, True


# ---------------------------------------------------------------------------
# ROC / EER by exhaustive sweep

def oracle_roc(genuine, impostor):
    """Sweep every distinct score plus sentinels; count acceptances and
    rejections one by one. Returns (thresholds, far, frr) lists."""
    all_scores = sorted(set(list(genuine) + list(impostor)))
    thresholds = ([min(all_scores) - 1.0] + all_scores
                  + [max(all_scores) + 1.0])
    far, frr = [], []
    for t in thresholds:
        accepted_impostors = sum(1 for s in impostor if s >= t)
        rejected_genuine = sum(1 for s in genuine if s < t)
        far.append(accepted_impostors / len(impostor))
        frr.append(rejected_genuine / len(genuine))
    return thresholds, far, frr


def oracle_eer(genuine, impostor):
    """First exact FAR == FRR threshold, else linear interpolation across
    the first sign change of FAR - FRR. Returns (eer, threshold)."""
    thresholds, far, frr = oracle_roc(genuine, impostor)
    diff = [a - r for a, r in zip(far, frr)]
    for i, d in enumerate(diff):
        if d == 0.0:
            return far[i], thresholds[i]
        if i + 1 < len(diff) and d > 0.0 and diff[i + 1] < 0.0:
            lam = d / (d - diff[i + 1])
            # at the crossing both linear pieces agree; use the FRR piece
            eer = frr[i] + lam * (frr[i + 1] - frr[i])
            thr = thresholds[i] + lam * (thresholds[i + 1] - thresholds[i])
            return eer, thr
    raise AssertionError("no FAR/FRR crossing found")


# ---------------------------------------------------------------------------
# one-way ANOVA F by the hand formula

def oracle_anova_f(columns, labels):
    """columns: list of per-feature value lists (all same length).
    Returns one F per column; inf when SSW == 0 < SSB, 0 when SSB == 0."""
    groups = sorted(set(labels))
    k = len(groups)
    n = len(labels)
    out = []
    for col in columns:
        grand = o_mean(col)
        ssb = 0.0
        ssw = 0.0
        for g in groups:
            vals = [v for v, lbl in zip(col, labels) if lbl == g]
            gm = o_mean(vals)
            ssb += len(vals) * (gm - grand) ** 2
            ssw += sum((v - gm) ** 2 for v in vals)
        if ssw == 0.0:
            out.append(math.inf if ssb > 0.0 else 0.0)
        else:
            out.append((ssb / (k - 1)) / (ssw / (n - k)))
    return out


# ---------------------------------------------------------------------------
# the 149-feature definitional oracle

def _argmax(a):
    best = 0
    for i in range(1, len(a)):
        if a[i] > a[best]:
            best = i
    return best


def _argmin(a):
    best = 0
    for i in range(1, len(a)):
        if a[i] < a[best]:
            best = i
    return best


def _solve3(A, b):
    """Cramer's rule for a 3x3 system."""
    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det3(A)
    if d == 0.0:
        return None
    out = []
    for j in range(3):
        m = [[A[r][c] if c != j else b[r] for c in range(3)] for r in range(3)]
        out.append(det3(m) / d)
    return out


def oracle_features(t, xs, ys, pr, ar, prev_end_ms=None):
    """Compute all 149 features straight from their definitions.

    Returns (values, defined), both length-149 lists. Indexing below is
    by feature id (1-based).
    """
    n = len(t)
    vals = [0.0] * 150          # slot 0 unused
    defined = [True] * 150

    def put(fid, value, ok=True):
        v = float(value)
        if not ok or not math.isfinite(v):
            vals[fid] = 0.0
            defined[fid] = False
        else:
            vals[fid] = v

    # derived series
    dt_ms = [t[i + 1] - t[i] for i in range(n - 1)]
    seg = [math.hypot(xs[i + 1] - xs[i], ys[i + 1] - ys[i])
           for i in range(n - 1)]
    vel = [seg[i] / (dt_ms[i] / 1000.0) for i in range(n - 1)]
    mid_dt_s = [(t[i + 2] - t[i]) / 2000.0 for i in range(n - 2)]
    acc = [(vel[i + 1] - vel[i]) / mid_dt_s[i] for i in range(n - 2)]

    cdx = xs[-1] - xs[0]
    cdy = ys[-1] - ys[0]
    chord = math.hypot(cdx, cdy)
    if chord == 0.0:
        dev = [math.hypot(x - xs[0], y - ys[0]) for x, y in zip(xs, ys)]
    else:
        dev = [abs(cdx * (y - ys[0]) - cdy * (x - xs[0])) / chord
               for x, y in zip(xs, ys)]

    ph = [math.atan2(ys[i + 1] - ys[i], xs[i + 1] - xs[i])
          for i in range(n - 1)]
    pa = []
    for i in range(n - 2):
        ux, uy = xs[i + 1] - xs[i], ys[i + 1] - ys[i]
        wx, wy = xs[i + 2] - xs[i + 1], ys[i + 2] - ys[i + 1]
        pa.append(math.atan2(ux * wy - uy * wx, ux * wx + uy * wy))
    av = [pa[i] / mid_dt_s[i] for i in range(n - 2)]
    prd = [pr[i + 1] - pr[i] for i in range(n - 1)]
    ard = [ar[i + 1] - ar[i] for i in range(n - 1)]

    traj = sum(seg)
    duration = float(t[-1] - t[0])
    ldp = _argmax(dev)

    def point_vel(i):
        return vel[min(i, n - 2)]

    put(1, xs[0]); put(2, ys[0]); put(3, xs[-1]); put(4, ys[-1])
    put(5, duration)
    put(6, chord)
    mid = (n - 1) // 2
    put(7, pr[mid]); put(8, ar[mid])
    put(9, traj)
    if prev_end_ms is None:
        put(10, 0.0, ok=False)
    else:
        put(10, t[0] - prev_end_ms)
    mc = o_mean([math.cos(a) for a in ph])
    ms = o_mean([math.sin(a) for a in ph])
    put(11, math.hypot(mc, ms))
    put(12, o_median(acc[:min(5, n) - 2]))
    put(13, o_median(vel[-2:]))
    put(14, o_mean(vel))

    ang = math.atan2(cdy, cdx)
    if -math.pi / 4 <= ang < math.pi / 4:
        put(15, 0.0)            # right
    elif math.pi / 4 <= ang < 3 * math.pi / 4:
        put(15, 1.0)            # down (screen y axis points down)
    elif -3 * math.pi / 4 <= ang < -math.pi / 4:
        put(15, 3.0)            # up
    else:
        put(15, 2.0)            # left
    put(16, ang)
    put(17, math.atan2(ms, mc))
    put(18, chord / traj if traj > 0 else 0.0, ok=traj > 0)

    put(19, o_percentile(vel, 20)); put(20, o_percentile(vel, 50))
    put(21, o_percentile(vel, 80))
    put(22, o_percentile(acc, 20)); put(23, o_percentile(acc, 50))
    put(24, o_percentile(acc, 80))
    put(25, o_percentile(dev, 20)); put(26, o_percentile(dev, 50))
    put(27, o_percentile(dev, 80))
    put(28, max(dev))
    put(29, pr[0]); put(30, ar[0])
    put(31, ph[0])
    put(32, o_mean(ph))
    put(33, o_mean([abs(a) for a in pa]) if pa else 0.0, ok=bool(pa))

    if n >= 3:
        cds = []
        for i in range(1, n - 1):
            ex = xs[i + 1] - xs[i - 1]
            ey = ys[i + 1] - ys[i - 1]
            nrm = math.hypot(ex, ey)
            if nrm == 0.0:
                cds.append(math.hypot(xs[i] - xs[i - 1], ys[i] - ys[i - 1]))
            else:
                cds.append(abs(ex * (ys[i] - ys[i - 1])
                               - ey * (xs[i] - xs[i - 1])) / nrm)
        put(34, o_mean(cds))
    else:
        put(34, 0.0, ok=False)

    put(35, o_mean(pr)); put(36, o_mean(ar))
    put(37, _argmax(ar) / (n - 1),
        ok=all(not math.isnan(v) for v in ar))
    put(38, _argmin(pr) / (n - 1),
        ok=all(not math.isnan(v) for v in pr))
    put(39, o_mean(acc))
    put(40, o_std(pr)); put(41, o_std(ar)); put(42, o_std(vel))
    put(43, o_std(acc))
    put(44, o_percentile(pr, 25)); put(45, o_percentile(ar, 25))
    put(46, o_percentile(vel, 25)); put(47, o_percentile(acc, 25))
    put(48, o_percentile(pr, 75)); put(49, o_percentile(ar, 75))
    put(50, o_percentile(vel, 75)); put(51, o_percentile(acc, 75))

    d_start = [math.hypot(x - xs[0], y - ys[0]) for x, y in zip(xs, ys)]
    d_stop = [math.hypot(x - xs[-1], y - ys[-1]) for x, y in zip(xs, ys)]
    e1 = _argmax(d_start)
    e2 = _argmax(d_stop)
    put(52, xs[e1]); put(53, ys[e1]); put(54, xs[e2]); put(55, ys[e2])
    put(56, ph[-1])
    put(57, vel[0])
    put(58, ar[-1]); put(59, pr[-1])
    put(60, vel[-1])
    put(61, ph[-1])
    put(62, o_mean(seg)); put(63, o_std(seg))

    put(64, xs[ldp]); put(65, ys[ldp]); put(66, ar[ldp]); put(67, pr[ldp])
    put(68, point_vel(ldp))
    put(69, t[ldp] - t[0])
    sl = math.hypot(xs[ldp] - xs[0], ys[ldp] - ys[0])
    ls = math.hypot(xs[-1] - xs[ldp], ys[-1] - ys[ldp])
    put(70, sl)
    put(71, math.atan2(ys[ldp] - ys[0], xs[ldp] - xs[0]))
    put(72, t[-1] - t[ldp])
    put(73, ls)
    put(74, math.atan2(ys[-1] - ys[ldp], xs[-1] - xs[ldp]))
    put(75, sl / chord if chord > 0 else 0.0, ok=chord > 0)

    put(76, chord)
    put(77, chord / traj if traj > 0 else 0.0, ok=traj > 0)
    put(78, o_median(seg)); put(79, o_iqr(seg))
    put(80, *o_skew(seg)); put(81, *o_kurt(seg))
    put(82, o_mean(dev)); put(83, o_std(dev)); put(84, o_iqr(dev))
    put(85, *o_skew(dev)); put(86, *o_kurt(dev))

    for base, series in ((87, pa), (93, ph)):
        put(base, o_mean(series) if series else 0.0, ok=bool(series))
        put(base + 1, o_median(series) if series else 0.0, ok=bool(series))
        put(base + 2, o_std(series) if series else 0.0, ok=bool(series))
        put(base + 3, o_iqr(series) if series else 0.0, ok=bool(series))
        put(base + 4, *o_skew(series))
        put(base + 5, *o_kurt(series))

    put(99, chord / (duration / 1000.0))
    put(100, o_iqr(vel))
    put(101, *o_skew(vel)); put(102, *o_kurt(vel))
    put(103, o_mean(av) if av else 0.0, ok=bool(av))
    put(104, o_median(av) if av else 0.0, ok=bool(av))
    put(105, o_std(av) if av else 0.0, ok=bool(av))
    put(106, o_iqr(av) if av else 0.0, ok=bool(av))
    put(107, *o_skew(av)); put(108, *o_kurt(av))
    put(109, o_iqr(acc))
    put(110, *o_skew(acc)); put(111, *o_kurt(acc))
    put(112, o_iqr(pr))
    put(113, *o_skew(pr)); put(114, *o_kurt(pr))
    put(115, min(pr)); put(116, max(pr))
    put(117, min(ar)); put(118, max(ar))
    put(119, min(vel)); put(120, max(vel))
    put(121, min(prd)); put(122, max(prd)); put(123, o_mean(prd))
    put(124, o_median(prd))
    put(125, min(ard)); put(126, max(ard)); put(127, o_mean(ard))
    put(128, o_median(ard))

    vmax = _argmax(vel)
    vmin = _argmin(vel)
    put(129, xs[vmax]); put(130, ys[vmax])
    put(131, xs[vmin]); put(132, ys[vmin])

    # quadratic pressure profile over normalized arc position
    if traj > 0:
        s = [0.0]
        run = 0.0
        for g in seg:
            run += g
            s.append(run / traj)
    else:
        s = [i / (n - 1) for i in range(n)]
    if len(set(s)) >= 3:
        # least squares via the normal equations, solved by Cramer's rule
        S = [sum(v ** k for v in s) for k in range(5)]
        A = [[S[4], S[3], S[2]], [S[3], S[2], S[1]], [S[2], S[1], S[0]]]
        b = [sum(p * v * v for p, v in zip(pr, s)),
             sum(p * v for p, v in zip(pr, s)),
             sum(pr)]
        coef = _solve3(A, b)
        if coef is None:
            put(133, 0.0, ok=False); put(134, 0.0, ok=False)
            put(135, 0.0, ok=False)
        else:
            put(133, coef[0]); put(134, coef[1]); put(135, coef[2])
    else:
        put(133, 0.0, ok=False); put(134, 0.0, ok=False)
        put(135, 0.0, ok=False)

    put(136, min(dt_ms)); put(137, max(dt_ms)); put(138, o_mean(dt_ms))

    xm = o_mean(xs)
    ym = o_mean(ys)
    axm = [abs(x - xm) for x in xs]
    aym = [abs(y - ym) for y in ys]
    put(139, max(axm)); put(140, max(aym))
    put(141, o_percentile(axm, 20)); put(142, o_percentile(aym, 20))
    put(143, o_median(axm)); put(144, o_median(aym))
    put(145, o_percentile(axm, 80)); put(146, o_percentile(aym, 80))

    if chord > 0:
        put(147, cdx / chord)
        put(148, cdy / chord)
    else:
        put(147, 0.0, ok=False)
        put(148, 0.0, ok=False)
    put(149, 1.0 if abs(cdx) >= abs(cdy) else 0.0)

    return vals[1:], defined[1:]
