"""The integrator's vectorised substep plans against the scalar generators in
oracles.py: owner, start and length bit for bit, over seeded draws of
inexact breakpoints, stiff multi-piece caps, coarse steps with many
1/t-band pieces, and steps that end a few ulps past a cut (the tail rule)."""

import numpy as np
import pytest

from droopinertia import DroopSchedule, Vdic
from droopinertia.integrate import (_BAND_STEP_FRACTION as Q, _SAT_STEP_LIMIT, _uniform_plan,
                                    _vdic_plan)
from oracles import uniform_pieces, vdic_pieces

SEEDS = range(25)
INEXACT = ((37.3, 111.1, 13.7), (56.9, 123.7, 24.6))


def vdic_args(target, upper, lower, t_j, stability=2.0):
    """(t_sat, t_floor, cap_sat, cap_floor, q) of a schedule, as simulate
    derives them from its segments."""
    (_, t_sat, _, upper), (_, t_floor, _, _), (_, _, _, lower) = Vdic(
        DroopSchedule(target, upper, lower)).segments()
    return (t_sat, t_floor, _SAT_STEP_LIMIT * t_j / upper, stability * t_j / lower, Q)


def grid_steps(dt, onset, n):
    """The steps [a, b] of an n-sample grid after the onset, as simulate
    plans them: a = 0 at the first, and a step of zero length dropped."""
    elapsed = np.arange(n) * dt - onset
    elapsed[np.abs(elapsed) <= 1e-9 * dt] = 0.0
    b = elapsed[elapsed >= 0.0]
    a = np.concatenate(([0.0], b[:-1]))
    keep = b > a
    return a[keep], b[keep]


def reference(pieces, a, b):
    """(owner, start, length) of pieces(a_i, b_i) over every step i, in order."""
    rows = [(i, t, h) for i, (lo, hi) in enumerate(zip(a.tolist(), b.tolist()))
            for t, h in pieces(lo, hi)]
    owner, start, length = zip(*rows) if rows else ((), (), ())
    return np.array(owner, dtype=np.int64), np.array(start, float), np.array(length, float)


def check(plan, pieces, args, a, b):
    """Assert plan(*args, a, b) equals the generator's plan bit for bit, and
    return the generator's owners."""
    owner, start, length = plan(*args, a, b)
    want = reference(lambda lo, hi: pieces(*args, lo, hi), a, b)
    assert np.array_equal(owner, want[0])
    for got, exp in ((start, want[1]), (length, want[2])):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), exp.view(np.int64))
    return want[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_vdic_inexact_breakpoints(seed):
    rng = np.random.default_rng(seed)
    target, upper, lower = INEXACT[seed % 2]
    args = vdic_args(target, upper, lower, rng.uniform(10.0, 60.0), rng.choice([1.0, 2.0]))
    dt = rng.choice([1e-3, 4e-3, 1e-2])
    onset = rng.uniform(0.0, 1.0)
    a, b = grid_steps(dt, onset, int((onset + 1.5 * args[1]) / dt) + 2)
    check(_vdic_plan, vdic_pieces, args, a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_stiff_multi_piece_caps(seed):
    rng = np.random.default_rng(seed)
    dt = rng.choice([1e-3, 1e-2, 0.1])
    a, b = grid_steps(dt, rng.uniform(0.0, 5.0 * dt), 400)
    owner = check(_uniform_plan, uniform_pieces, (dt / rng.uniform(1.0, 40.0),), a, b)
    assert np.bincount(owner).max() > 1
    # a saturated segment several steps long, and both caps a fraction of dt
    target = rng.uniform(10.0, 60.0)
    upper = target / (dt * rng.uniform(2.0, 20.0))
    lower = upper / rng.uniform(1.5, 4.0)
    args = (target / upper, target / lower, dt / rng.uniform(1.5, 30.0),
            dt / rng.uniform(1.5, 30.0), Q)
    a, b = grid_steps(dt, rng.uniform(0.0, 5.0 * dt), int(1.5 * args[1] / dt) + 2)
    owner = check(_vdic_plan, vdic_pieces, args, a, b)
    assert np.bincount(owner).max() > 1


@pytest.mark.parametrize("seed", SEEDS)
def test_coarse_steps_many_band_pieces(seed):
    rng = np.random.default_rng(seed)
    dt = rng.choice([0.05, 0.1, 0.25])
    target = rng.uniform(10.0, 60.0)
    args = vdic_args(target, rng.choice([1e6, 1e12]), rng.uniform(1.0, 10.0),
                     rng.uniform(10.0, 60.0))
    a, b = grid_steps(dt, rng.uniform(0.0, 1.0), int(1.5 * args[1] / dt) + 2)
    owner = check(_vdic_plan, vdic_pieces, args, a, b)
    assert np.bincount(owner).max() > 20


@pytest.mark.parametrize("seed", SEEDS)
def test_tail_rule(seed):
    # each step ends k ulps past where its first piece would: at the
    # saturation end, at a band piece, at the floor start, at a floor cap
    rng = np.random.default_rng(seed)
    target, upper, lower = INEXACT[seed % 2]
    t_sat, t_floor, cap_sat, cap_floor, q = args = vdic_args(
        target, upper, lower, rng.uniform(10.0, 60.0))
    band = rng.uniform(t_sat, t_floor / (1.0 + q) ** 2)
    starts = [t_sat - rng.uniform(0.1, 0.9) * min(cap_sat, t_sat), band,
              t_floor - rng.uniform(0.1, 0.9) * (t_floor - t_floor / (1.0 + q)),
              t_floor + rng.uniform(0.0, 10.0)]
    ends = [t_sat, band + q * band, t_floor, starts[3] + cap_floor]
    ulps = np.array([-2, 0, 1, 2, 3, 10, 12])
    a = np.repeat(starts, ulps.size)
    b = np.array([end + k * np.spacing(end) for end in ends for k in ulps])
    owner = check(_vdic_plan, vdic_pieces, args, a, b)
    pieces = np.bincount(owner).reshape(len(ends), ulps.size)
    # up to 3 ulps past the cut is within 1e-15 * b, so the piece takes the
    # rest; 10 ulps or more is not
    assert (pieces[:, ulps <= 3] == 1).all()
    assert (pieces[:, ulps >= 10] == 2).all()


def test_subnormal_band_starts():
    # below 8 times the smallest normal float, q * t rounds, and t + q * t
    # no longer rounds as t * (1 + q) does
    args = (1e-310, 1e-300, 1e-311, 1.0, Q)
    owner = check(_vdic_plan, vdic_pieces, args, np.array([0.0, 5e-309]),
                  np.array([1e-307, 1e-306]))
    assert np.bincount(owner).min() > 20


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_plan_grid(seed):
    rng = np.random.default_rng(seed)
    dt = rng.choice([1e-3, 7e-3, 0.1])
    a, b = grid_steps(dt, rng.uniform(0.0, 1.0), 300)
    for cap in (np.inf, dt, dt * rng.uniform(1.0, 3.0), dt / 3.0, dt / rng.uniform(1.0, 9.0)):
        check(_uniform_plan, uniform_pieces, (cap,), a, b)


def test_no_steps_plan_nothing():
    empty = np.array([])
    for plan in (_uniform_plan(1.0, empty, empty),
                 _vdic_plan(*vdic_args(40.0, 128.0, 32.0, 39.2), empty, empty)):
        assert [x.size for x in plan] == [0, 0, 0]
