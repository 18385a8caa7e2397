"""The three stepping loops of integrate.simulate: RK4 with the governor off,
RK4 with it on, and explicit Euler.

A loop is called as loop(substeps, omega, gov_series, delta_pf, t_j, gain,
time_constant). substeps yields, in order, one (i, h, k1, km, k4) per planned
substep: the output sample i it ends in, its length h, and the droop
coefficient at its start, midpoint and end. The loop writes omega[i] (and
gov_series[i], with the governor on) after every substep, so a sample's last
substep leaves its value. State accumulation is Kahan-compensated. With the
governor off, p stays exactly +0.0: its arithmetic is dropped, and so is
"+ p" in the omega derivative (x + 0.0 == x because dpf - k*w, with dpf
nonzero, is never -0.0), so the result is the governed loop's at gain 0 bit
for bit, and faster. Samples are written through memoryviews, as plain
floats. A non-finite state is left in the arrays for simulate to report.
"""


def rk4(substeps, omega, gov_series, dpf, t_j, g, tg):
    """RK4, governor off."""
    om = memoryview(omega)
    w = cw = 0.0
    for i, h, k1, km, k4 in substeps:
        half = 0.5 * h
        k1w = (dpf - k1 * w) / t_j
        k2w = (dpf - km * (w + half * k1w)) / t_j
        k3w = (dpf - km * (w + half * k2w)) / t_j
        k4w = (dpf - k4 * (w + h * k3w)) / t_j
        y = (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) - cw
        s = w + y
        cw = (s - w) - y
        w = s
        om[i] = w


def rk4_governed(substeps, omega, gov_series, dpf, t_j, g, tg):
    """RK4, governor on: the state is (omega, p), p the governor's lag output."""
    om, gm = memoryview(omega), memoryview(gov_series)
    ng = -g
    w = cw = p = cp = 0.0
    for i, h, k1, km, k4 in substeps:
        half = 0.5 * h
        k1w = (dpf - k1 * w + p) / t_j
        k1p = (ng * w - p) / tg
        w2 = w + half * k1w
        p2 = p + half * k1p
        k2w = (dpf - km * w2 + p2) / t_j
        k2p = (ng * w2 - p2) / tg
        w3 = w + half * k2w
        p3 = p + half * k2p
        k3w = (dpf - km * w3 + p3) / t_j
        k3p = (ng * w3 - p3) / tg
        w4 = w + h * k3w
        p4 = p + h * k3p
        k4w = (dpf - k4 * w4 + p4) / t_j
        k4p = (ng * w4 - p4) / tg
        h6 = h / 6.0
        y = h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) - cw
        s = w + y
        cw = (s - w) - y
        w = s
        y = h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) - cp
        s = p + y
        cp = (s - p) - y
        p = s
        om[i] = w
        gm[i] = p


def euler(substeps, omega, gov_series, dpf, t_j, g, tg):
    """Explicit Euler, governor on or off (off is gain 0, time constant 1)."""
    om, gm = memoryview(omega), memoryview(gov_series)
    w = cw = p = cp = 0.0
    for i, h, k1, _, _ in substeps:
        inc = h * ((dpf - k1 * w + p) / t_j)
        incp = h * ((-g * w - p) / tg)
        y = inc - cw
        s = w + y
        cw = (s - w) - y
        w = s
        y = incp - cp
        s = p + y
        cp = (s - p) - y
        p = s
        om[i] = w
        gm[i] = p
