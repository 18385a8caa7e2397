"""The stepping loops of integrate.simulate: RK4 with the governor off and
on, a free twin of each for a zero law, and explicit Euler.

A loop is called as loop(substeps, omega, gov_series, delta_pf, t_j, gain,
time_constant, state), state being (omega, its Kahan term, p, its Kahan
term), and returns its end state, so that each plan block may take another
loop. substeps yields, in order, one (i, h, k1, km, k4) per planned substep,
or (i, h) to a free loop: the output sample i it ends in, its length h, and
the droop coefficient at its start, midpoint and end. The loop writes
omega[i] (and gov_series[i], with the governor on) after every substep, so a
sample's last substep leaves its value. State accumulation is
Kahan-compensated. With the governor off, p stays exactly +0.0, so its
arithmetic is dropped, and so is "+ p" in the omega derivative: dpf - k*w,
with dpf nonzero, is never -0.0. A free loop drops k*w, which is +-0.0 at
k = +-0.0 and a finite w. Each RK4 loop thus gives rk4_governed's bits at
gain 0 or k = 0, faster, up to a stage's overflow, with the same first
non-finite sample. Samples are written through memoryviews, as plain floats,
non-finite ones too, for simulate to report.
"""


def rk4(substeps, omega, gov_series, dpf, t_j, g, tg, state):
    """RK4, governor off."""
    om = memoryview(omega)
    w, cw, p, cp = state
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
    return w, cw, p, cp


def rk4_free(substeps, omega, gov_series, dpf, t_j, g, tg, state):
    """RK4, governor off, on a zero law: every stage is dpf / t_j."""
    om = memoryview(omega)
    w, cw, p, cp = state
    c = dpf / t_j
    stages = c + 2.0 * c + 2.0 * c + c
    for i, h in substeps:
        y = (h / 6.0) * stages - cw
        s = w + y
        cw = (s - w) - y
        w = s
        om[i] = w
    return w, cw, p, cp


def rk4_governed(substeps, omega, gov_series, dpf, t_j, g, tg, state):
    """RK4, governor on: the state is (omega, p), p the governor's lag output."""
    om, gm = memoryview(omega), memoryview(gov_series)
    ng = -g
    w, cw, p, cp = state
    for i, h, k1, km, k4 in substeps:
        half = 0.5 * h
        k1w = (dpf - k1 * w + p) / t_j
        k1p = (ng * w - p) / tg
        w2, p2 = w + half * k1w, p + half * k1p
        k2w = (dpf - km * w2 + p2) / t_j
        k2p = (ng * w2 - p2) / tg
        w3, p3 = w + half * k2w, p + half * k2p
        k3w = (dpf - km * w3 + p3) / t_j
        k3p = (ng * w3 - p3) / tg
        w4, p4 = w + h * k3w, p + h * k3p
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
    return w, cw, p, cp


def rk4_governed_free(substeps, omega, gov_series, dpf, t_j, g, tg, state):
    """RK4, governor on, on a zero law: rk4_governed without its k*w terms."""
    om, gm = memoryview(omega), memoryview(gov_series)
    ng = -g
    w, cw, p, cp = state
    for i, h in substeps:
        half = 0.5 * h
        k1w = (dpf + p) / t_j
        k1p = (ng * w - p) / tg
        w2, p2 = w + half * k1w, p + half * k1p
        k2w = (dpf + p2) / t_j
        k2p = (ng * w2 - p2) / tg
        w3, p3 = w + half * k2w, p + half * k2p
        k3w = (dpf + p3) / t_j
        k3p = (ng * w3 - p3) / tg
        w4, p4 = w + h * k3w, p + h * k3p
        k4w = (dpf + p4) / t_j
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
    return w, cw, p, cp


def euler(substeps, omega, gov_series, dpf, t_j, g, tg, state):
    """Explicit Euler, governor on or off (off is gain 0, time constant 1)."""
    om, gm = memoryview(omega), memoryview(gov_series)
    w, cw, p, cp = state
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
    return w, cw, p, cp
