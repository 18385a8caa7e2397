"""Hypothesis properties of Trace.per_ffr_power over random small fleets that
repeat some (margin, cap) pairs, under the three controllers and two kinds of
custom law (piecewise constant with breakpoints off the grid, and
a * exp(-t / tau) + b), governor on and off, onset at 0 and later, for 0.5 to
2 s runs. simulate defers per_ffr_power, so each property reads it through
the deferred path.

The oracle is the margin-weighted fixpoint run at full width, on every
sample of the coefficient series, which simulate avoids by allocating each
distinct coefficient once and keeping one row for identical FFRs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droopinertia import (
    ConstantDroop,
    Controller,
    DroopSchedule,
    FfrSpec,
    GeneratorSpec,
    GovernorSpec,
    ImbalanceEvent,
    NoControl,
    SimConfig,
    SystemModel,
    ValidationError,
    Vdic,
    simulate,
)

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

MARGINS = (0.0, 0.25, 1.0, 3.0)
CAPS = (8.0, 20.0, 32.0)


def full_width_allocation(k_total, ffrs):
    """Each FFR's coefficient at every sample: the split by margin, a share
    over its cap pinned there and the surplus split again among the rest."""
    margins = np.array([f.regulation_margin for f in ffrs])
    caps = np.array([f.droop_upper_bound for f in ffrs])
    n = len(ffrs)
    out = np.zeros((n, k_total.size))
    active = np.ones((n, k_total.size), dtype=bool)
    remaining = k_total.copy()
    for _ in range(n + 1):
        weight = np.where(active, margins[:, None], 0.0).sum(axis=0)
        safe_weight = np.where(weight > 0.0, weight, 1.0)
        share = np.where(
            active, remaining[None, :] * margins[:, None] / safe_weight[None, :], 0.0
        )
        over = active & (share > caps[:, None])
        if not over.any():
            out = np.where(active, share, out)
            break
        out = np.where(over, caps[:, None], out)
        remaining = remaining - np.where(over, caps[:, None], 0.0).sum(axis=0)
        active &= ~over
    return out


def oracle_per_ffr_power(trace, ffrs):
    if not ffrs or trace.droop_active.max() <= 0.0:
        return np.zeros((len(ffrs), trace.sample_times.size))
    return full_width_allocation(trace.droop_active, ffrs) * (-trace.omega)[None, :]


class Piecewise(Controller):
    """levels[0] up to breaks[0], then levels[j] from breaks[j - 1] on."""

    def __init__(self, breaks, levels):
        self.breaks, self.levels = np.array(breaks), np.array(levels)

    def coefficients(self, elapsed):
        return self.levels[np.searchsorted(self.breaks, elapsed, side="right")]


class Smooth(Controller):
    """a * exp(-elapsed / tau) + b."""

    def __init__(self, a, tau, b):
        self.a, self.tau, self.b = a, tau, b

    def coefficients(self, elapsed):
        return self.a * np.exp(-elapsed / self.tau) + self.b


@st.composite
def piecewise_laws(draw, peak):
    """Up to four jumps among levels of 0 to peak, each at an elapsed time
    between two samples of the 1 ms grid (no further than 2 s)."""
    steps = draw(st.lists(st.integers(0, 1999), max_size=4, unique=True))
    breaks = sorted((j + draw(st.floats(0.05, 0.95))) * 1e-3 for j in steps)
    fractions = st.sampled_from([0.0, 0.2, 0.6, 0.95, 1.0])
    return Piecewise(breaks, [draw(fractions) * peak for _ in range(len(breaks) + 1)])


@st.composite
def cases(draw):
    """(ffrs, controller, event, sim, governor) of one feasible run."""
    pair = st.tuples(st.sampled_from(MARGINS), st.sampled_from(CAPS))
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        pairs = [draw(pair)] * n  # one pair for the whole fleet
    else:
        pairs = draw(st.lists(pair, min_size=n, max_size=n))
    if not any(margin > 0.0 for margin, _ in pairs):
        pairs[draw(st.integers(0, n - 1))] = (draw(st.sampled_from(MARGINS[1:])),
                                              pairs[0][1])
    ffrs = [FfrSpec(f"f{i}", cap, cap / 4.0, margin)
            for i, (margin, cap) in enumerate(pairs)]
    room = sum(f.droop_upper_bound for f in ffrs if f.regulation_margin > 0.0)
    peak = draw(st.sampled_from([0.2, 0.6, 0.95, 1.0])) * room
    kind = draw(st.sampled_from(["no_control", "constant_droop", "vdic", "piecewise",
                                 "smooth"]))
    if kind == "constant_droop":
        controller = ConstantDroop(peak)
    elif kind == "vdic":
        target = draw(st.floats(1.0, 60.0))
        controller = Vdic(DroopSchedule(target, peak, draw(st.floats(0.05, 0.5)) * peak))
    elif kind == "piecewise":
        controller = draw(piecewise_laws(peak))
    elif kind == "smooth":
        b = draw(st.floats(0.0, 0.5)) * peak
        controller = Smooth(draw(st.floats(0.0, 1.0)) * (peak - b), draw(st.floats(0.01, 2.0)), b)
    else:
        controller = NoControl()
    duration = draw(st.sampled_from([0.5, 1.0, 2.0]))
    onset = draw(st.sampled_from([0.0, 0.1, 0.3]))
    governor = GovernorSpec(enabled=draw(st.booleans()))
    return ffrs, controller, ImbalanceEvent(-0.3, onset), SimConfig(1e-3, duration), governor


def run(case):
    ffrs, controller, event, sim, governor = case
    model = SystemModel(1000.0, [GeneratorSpec(1000.0, 19.6)], ffrs)
    return simulate(model, event, controller, sim, governor=governor)


@SETTINGS
@given(cases())
def test_rows_sum_to_ffr_power(case):
    trace = run(case)
    total = trace.per_ffr_power.sum(axis=0)
    assert np.all(np.abs(total - trace.ffr_power) <= 1e-12 * np.abs(trace.ffr_power))


@SETTINGS
@given(cases())
def test_rows_within_caps_with_sign_of_minus_omega(case):
    trace = run(case)
    rows, omega = trace.per_ffr_power, trace.omega
    caps = np.array([f.droop_upper_bound for f in case[0]])[:, None]
    assert np.all(np.abs(rows) <= caps * np.abs(omega))
    assert np.all((rows == 0.0) | (np.sign(rows) == -np.sign(omega)))


@SETTINGS
@given(cases())
def test_ffr_power_is_minus_coefficient_times_omega(case):
    trace = run(case)
    assert np.array_equal(trace.ffr_power, -trace.droop_active * trace.omega)


@SETTINGS
@given(cases(), st.randoms(use_true_random=False))
def test_permuting_the_roster_permutes_the_rows(case, rng):
    ffrs, *rest = case
    perm = list(range(len(ffrs)))
    rng.shuffle(perm)
    base = run(case).per_ffr_power
    shuffled = run(([ffrs[i] for i in perm], *rest)).per_ffr_power
    scale = float(np.max(np.abs(base), initial=0.0))
    assert np.allclose(shuffled, base[perm], rtol=1e-12, atol=1e-12 * scale)


@SETTINGS
@given(cases())
def test_rows_match_full_width_allocation_bit_for_bit(case):
    trace = run(case)
    expected = oracle_per_ffr_power(trace, case[0])
    rows = np.asarray(trace.per_ffr_power)
    assert rows.shape == expected.shape and rows.dtype == expected.dtype
    assert rows.tobytes() == expected.tobytes()


@SETTINGS
@given(cases())
def test_per_ffr_power_is_read_only(case):
    trace = run(case)
    assert not trace.per_ffr_power.flags.writeable
    with pytest.raises(ValueError):
        trace.per_ffr_power[0, -1] = 1.0


def test_identical_fleet_shares_one_row():
    ffrs = [FfrSpec(f"f{i}", 32.0, 8.0, 0.25) for i in range(4)]
    trace = run((ffrs, ConstantDroop(100.0), ImbalanceEvent(-0.3), SimConfig(1e-3, 1.0),
                 GovernorSpec()))
    assert trace.per_ffr_power.strides[0] == 0
    assert trace.per_ffr_power[0].any()


def test_zero_margin_caps_do_not_count():
    # a (cap 10, margin 1) and b (cap 30, margin 0): the split gives b no
    # share, so a peak of 30 cannot be carried and is refused
    ffrs = [FfrSpec("a", 10.0, 1.0, 1.0), FfrSpec("b", 30.0, 1.0, 0.0)]
    case = (ffrs, ConstantDroop(30.0), ImbalanceEvent(-0.3), SimConfig(1e-3, 3.0),
            GovernorSpec())
    with pytest.raises(ValidationError, match=r"exceeds the summed per-FFR bounds 10\.0"):
        run(case)
    trace = run((ffrs, ConstantDroop(10.0), *case[2:]))
    assert np.allclose(trace.per_ffr_power.sum(axis=0), trace.ffr_power, rtol=1e-12, atol=0.0)



@SETTINGS
@given(st.lists(st.sampled_from(CAPS), min_size=1, max_size=3),
       st.lists(st.sampled_from(CAPS), min_size=1, max_size=3), st.floats(0.01, 0.99))
def test_peak_beyond_the_margined_caps_refused(margined, idle, within):
    # FFRs without margin take no share, so a peak above the other caps
    # cannot be carried, however much cap the idle ones have
    ffrs = ([FfrSpec(f"m{i}", cap, 1.0, 1.0) for i, cap in enumerate(margined)]
            + [FfrSpec(f"z{i}", cap, 1.0, 0.0) for i, cap in enumerate(idle)])
    room = sum(margined)
    peak = room + within * sum(idle)
    with pytest.raises(ValidationError, match="exceeds the summed per-FFR bounds"):
        run((ffrs, ConstantDroop(peak), ImbalanceEvent(-0.3), SimConfig(1e-3, 0.5),
             GovernorSpec()))


def test_many_distinct_coefficients_match_full_width_allocation():
    # an unbounded schedule gives every sample its own coefficient, more
    # than simulate allocates at once
    ffrs = [FfrSpec("a", 1e12, 1.0, 1.0), FfrSpec("b", 1e12, 1.0, 3.0),
            FfrSpec("c", 5e11, 1.0, 0.5)]
    controller = Vdic(DroopSchedule(40.0, 2e12, 1e-12))
    case = (ffrs, controller, ImbalanceEvent(-0.3, 0.5), SimConfig(1e-3, 6.0),
            GovernorSpec(enabled=True))
    trace = run(case)
    assert np.unique(trace.droop_active).size > 5000
    expected = oracle_per_ffr_power(trace, ffrs)
    assert np.asarray(trace.per_ffr_power).tobytes() == expected.tobytes()
