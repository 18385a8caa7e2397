"""Specialised RK4 kernels for the built-in controllers.

Each kernel repeats the RK4 arithmetic of simulate._generic operation for
operation, so its trace is bit-identical to the generic loop's; a kernel
differs only in what it leaves out. With the governor off, p stays exactly
+0.0: its arithmetic is dropped, and so is "+ p" in the omega derivative
(x + 0.0 == x because dpf - k*w, with dpf nonzero, is never -0.0). The
coefficient at a substep's end is the next substep's start coefficient, so
it is computed once. The VDIC kernels inline simulate._vdic_pieces and
controllers.vdic_coefficient, writing each min() and max() as comparisons
that pick the same value; the coefficient at elapsed 0, where only the
first substep after the onset starts, is the upper bound. Samples are read
and written through memoryviews, as plain floats.

A kernel is called as kernel(*controller_params, elapsed, i_first, omega,
gov_series, delta_pf, t_j, gain, time_constant) and fills omega (and
gov_series, with the governor on) from sample i_first on. A non-finite state
is left in the arrays for simulate to report.
"""

import math


def rk4_constant(k, cap, elapsed, i_first, omega, gov_series, dpf, t_j, g, tg):
    """RK4 under a constant coefficient k, governor off."""
    el, om = memoryview(elapsed), memoryview(omega)
    w = cw = a = 0.0
    for j in range(i_first, len(el)):
        b = el[j]
        if b > a:
            d = b - a
            if d <= cap:
                m, h = 1, d
            else:
                m = math.ceil(d / cap)
                h = d / m
            half = 0.5 * h
            h6 = h / 6.0
            for _ in range(m):
                k1w = (dpf - k * w) / t_j
                k2w = (dpf - k * (w + half * k1w)) / t_j
                k3w = (dpf - k * (w + half * k2w)) / t_j
                k4w = (dpf - k * (w + h * k3w)) / t_j
                y = h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) - cw
                s = w + y
                cw = (s - w) - y
                w = s
            a = b
        om[j] = w


def rk4_constant_governed(k, cap, elapsed, i_first, omega, gov_series, dpf, t_j, g, tg):
    """RK4 under a constant coefficient k, governor on."""
    el, om, gm = memoryview(elapsed), memoryview(omega), memoryview(gov_series)
    ng = -g
    w = cw = p = cp = a = 0.0
    for j in range(i_first, len(el)):
        b = el[j]
        if b > a:
            d = b - a
            if d <= cap:
                m, h = 1, d
            else:
                m = math.ceil(d / cap)
                h = d / m
            half = 0.5 * h
            h6 = h / 6.0
            for _ in range(m):
                k1w = (dpf - k * w + p) / t_j
                k1p = (ng * w - p) / tg
                w2 = w + half * k1w
                p2 = p + half * k1p
                k2w = (dpf - k * w2 + p2) / t_j
                k2p = (ng * w2 - p2) / tg
                w3 = w + half * k2w
                p3 = p + half * k2p
                k3w = (dpf - k * w3 + p3) / t_j
                k3p = (ng * w3 - p3) / tg
                w4 = w + h * k3w
                p4 = p + h * k3p
                k4w = (dpf - k * w4 + p4) / t_j
                k4p = (ng * w4 - p4) / tg
                y = h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) - cw
                s = w + y
                cw = (s - w) - y
                w = s
                y = h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) - cp
                s = p + y
                cp = (s - p) - y
                p = s
            a = b
        om[j] = w
        gm[j] = p


def rk4_vdic(T, U, L, t_sat, t_floor, cap_sat, cap_floor, q,
             elapsed, i_first, omega, gov_series, dpf, t_j, g, tg):
    """RK4 under the bounded VDIC coefficient clamp(T/t, L, U), governor off,
    on the substeps of simulate._vdic_pieces."""
    el, om = memoryview(elapsed), memoryview(omega)
    w = cw = a = 0.0
    for j in range(i_first, len(el)):
        b = el[j]
        if b > a:
            tail = 1e-15 * b
            t = a
            x = T / t if t else U
            x = x if x > L else L
            k0 = x if x < U else U
            while t < b:
                h = b - t
                if t < t_sat:
                    if t_sat - t < h:
                        h = t_sat - t
                    if cap_sat < h:
                        h = cap_sat
                elif t < t_floor:
                    if t_floor - t < h:
                        h = t_floor - t
                    if q * t < h:
                        h = q * t
                elif cap_floor < h:
                    h = cap_floor
                if b - (t + h) < tail:
                    h = b - t
                half = 0.5 * h
                x = T / (t + half)
                x = x if x > L else L
                km = x if x < U else U
                t = t + h
                x = T / t
                x = x if x > L else L
                k4 = x if x < U else U
                k1w = (dpf - k0 * w) / t_j
                k2w = (dpf - km * (w + half * k1w)) / t_j
                k3w = (dpf - km * (w + half * k2w)) / t_j
                k4w = (dpf - k4 * (w + h * k3w)) / t_j
                y = (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) - cw
                s = w + y
                cw = (s - w) - y
                w = s
                k0 = k4
            a = b
        om[j] = w


def rk4_vdic_governed(T, U, L, t_sat, t_floor, cap_sat, cap_floor, q,
                      elapsed, i_first, omega, gov_series, dpf, t_j, g, tg):
    """RK4 under the bounded VDIC coefficient clamp(T/t, L, U), governor on,
    on the substeps of simulate._vdic_pieces."""
    el, om, gm = memoryview(elapsed), memoryview(omega), memoryview(gov_series)
    ng = -g
    w = cw = p = cp = a = 0.0
    for j in range(i_first, len(el)):
        b = el[j]
        if b > a:
            tail = 1e-15 * b
            t = a
            x = T / t if t else U
            x = x if x > L else L
            k0 = x if x < U else U
            while t < b:
                h = b - t
                if t < t_sat:
                    if t_sat - t < h:
                        h = t_sat - t
                    if cap_sat < h:
                        h = cap_sat
                elif t < t_floor:
                    if t_floor - t < h:
                        h = t_floor - t
                    if q * t < h:
                        h = q * t
                elif cap_floor < h:
                    h = cap_floor
                if b - (t + h) < tail:
                    h = b - t
                half = 0.5 * h
                x = T / (t + half)
                x = x if x > L else L
                km = x if x < U else U
                t = t + h
                x = T / t
                x = x if x > L else L
                k4 = x if x < U else U
                k1w = (dpf - k0 * w + p) / t_j
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
                k0 = k4
            a = b
        om[j] = w
        gm[j] = p
