"""The integrator's vectorised substep plans against the scalar generators in
oracles.py: owner, start and length bit for bit, over seeded draws of
inexact breakpoints, stiff multi-piece caps, coarse steps with many
1/t-band pieces, and steps that end a few ulps past a cut (the tail rule).
A VDIC plan applies its rule in numpy rounds while two or more steps are
unfinished and in scalar form to the last one left; three block shapes
reach the scalar form at once, after the rounds, and never.

check_plans(n) runs every seeded check over seeds 0 .. n - 1."""

from unittest import mock

import numpy as np
import pytest

from droopinertia import DroopSchedule, Vdic, integrate
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


def test_tail_piece_ends_its_step():
    # floor steps one cap and 1 to 3 ulps long whose rest b - a rounds, so
    # that a + (b - a) falls short of b: the piece the tail rule lengthens
    # still ends its step, in the rounds and in the scalar rule alike
    rng = np.random.default_rng(0)
    args = (0.5, 1.0, 0.1, 8.0, Q)
    a = rng.uniform(1.0, 7.0, 1000)
    b = a + 8.0
    b += rng.integers(1, 4, a.size) * np.spacing(b)
    short = a + (b - a) < b
    a, b = a[short], b[short]
    assert a.size >= 10
    for lo, hi in [(a, b)] + [(a[i:i + 1], b[i:i + 1]) for i in range(10)]:
        owner = check(_vdic_plan, vdic_pieces, args, lo, hi)
        assert (np.bincount(owner) == 1).all()


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


def long_steps(seed):
    """(t_sat, t_floor, cap_sat, cap_floor, q) with 110 to 130 band pieces
    between the crossovers and q not always 1/8, a start lo in the
    saturated segment, and the ends of steps [lo, end] that each finish 1 to
    3 ulps past the third floor piece, so that the tail rule takes the rest."""
    rng = np.random.default_rng(seed)
    q = (Q, 0.1, 0.3)[seed % 3]
    t_sat = rng.uniform(1e-5, 1e-4)
    t_floor = t_sat * (1.0 + q) ** rng.uniform(110.0, 130.0)
    args = (t_sat, t_floor, t_sat / rng.uniform(1.5, 5.0), t_floor * rng.uniform(0.01, 0.1), q)
    lo = rng.uniform(0.0, 0.5) * t_sat
    floor = [(t, h) for t, h in vdic_pieces(*args, lo, 2.0 * t_floor) if t >= t_floor]
    end = floor[2][0] + floor[2][1]
    return args, lo, np.array([end + k * np.spacing(end) for k in (1, 2, 3)])


def check_rule_cases(args, a, b):
    """Check _vdic_plan on the steps [a, b], assert its pieces hold a cut at
    t_sat, a cut at t_floor and a floor piece the tail rule lengthened past
    cap_floor, and return the owners and the pieces each call of the scalar
    _vdic_pieces gave."""
    t_sat, t_floor, _, cap_floor, _ = args
    real, scalar = integrate._vdic_pieces, []

    def counted(*call):
        pieces = list(real(*call))
        scalar.append(len(pieces))
        return iter(pieces)

    with mock.patch.object(integrate, "_vdic_pieces", counted):
        check(_vdic_plan, vdic_pieces, args, a, b)
    owner, start, length = reference(lambda lo, hi: vdic_pieces(*args, lo, hi), a, b)
    assert (length == t_sat - start).any()
    assert (length == t_floor - start).any()
    assert (length[start >= t_floor] > cap_floor).any()
    return owner, scalar


@pytest.mark.parametrize("seed", SEEDS)
def test_one_step_goes_to_the_scalar_rule(seed):
    args, lo, ends = long_steps(seed)
    owner, scalar = check_rule_cases(args, np.array([lo]), ends[:1])
    assert scalar == [owner.size]
    starts = np.array([t for t, _ in vdic_pieces(*args, lo, ends[0])])
    assert ((starts >= args[0]) & (starts < args[1])).sum() >= 100


@pytest.mark.parametrize("seed", SEEDS)
def test_rounds_leave_one_long_step(seed):
    # a step ending in the band beside a long one: once it is done, the long
    # one's last 30 or more pieces come from the scalar rule
    args, lo, ends = long_steps(seed)
    short = args[0] * np.random.default_rng(seed).uniform(1.5, 4.0)
    owner, scalar = check_rule_cases(args, np.array([lo, lo]), np.array([short, ends[1]]))
    pieces = np.bincount(owner)
    assert len(scalar) == 1 and scalar[0] == pieces[1] - pieces[0] >= 30


@pytest.mark.parametrize("seed", SEEDS)
def test_steps_finishing_together_stay_in_the_rounds(seed):
    # the three steps differ only in the ulps past their last cut, so they
    # take the same pieces and finish in the same round
    args, lo, ends = long_steps(seed)
    owner, scalar = check_rule_cases(args, np.full(ends.size, lo), ends)
    assert scalar == []
    assert np.bincount(owner).min() >= 30


SEEDED = (test_vdic_inexact_breakpoints, test_stiff_multi_piece_caps,
          test_coarse_steps_many_band_pieces, test_tail_rule, test_uniform_plan_grid,
          test_one_step_goes_to_the_scalar_rule, test_rounds_leave_one_long_step,
          test_steps_finishing_together_stay_in_the_rounds)


def check_plans(n: int) -> None:
    """Run every seeded check of this file over seeds 0 .. n - 1, and assert
    that none failed; tier-1 runs len(SEEDS) of them."""
    failed = []
    for seed in range(n):
        for seeded in SEEDED:
            try:
                seeded(seed)
            except AssertionError:
                failed.append(f"{seeded.__name__}[{seed}]")
    assert not failed, failed
