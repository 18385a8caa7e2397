"""The free loops, which step a zero law without its droop term, against the
full loops fed that law as k = +0.0 or -0.0: omega, gov_series and the
returned state bit for bit, from a drawn state carried in, up to the first
non-finite sample of a governed run that overflows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from droopinertia import kernels

EXAMPLES = 200


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def runs(draw):
    """(substeps as (i, h), dpf, t_j, gain, time constant, k, state in)."""
    samples = draw(st.lists(st.lists(_floats(1e-6, 0.5), min_size=1, max_size=8),
                            min_size=1, max_size=12))
    substeps = [(i, h) for i, hs in enumerate(samples, 1) for h in hs]
    dpf = draw(st.sampled_from([1.0, -1.0])) * draw(_floats(1e-6, 1e3))
    # a state a run could carry out of an earlier block: omega and p as
    # large as a step of dpf makes them, each Kahan term below its ulp
    w, p = draw(_floats(-1e3, 1e3)), draw(_floats(-1e3, 1e3))
    state = (w, draw(_floats(-1e-13, 1e-13)) * w, p, draw(_floats(-1e-13, 1e-13)) * p)
    return (substeps, dpf, draw(_floats(1e-3, 1e3)), draw(_floats(0.0, 1e3)),
            draw(_floats(1e-2, 1e2)), draw(st.sampled_from([0.0, -0.0])), state)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def _step(loop, substeps, dpf, t_j, g, tg, state):
    omega, gov_series = np.zeros(substeps[-1][0] + 1), np.zeros(substeps[-1][0] + 1)
    end = loop(iter(substeps), omega, gov_series, dpf, t_j, g, tg, state)
    return omega, gov_series, end


def check_free_loops(examples: int) -> None:
    """Assert, over examples derandomized draws, that rk4_free and
    rk4_governed_free give the bits of rk4 and rk4_governed at k = +-0.0: the
    samples and the end state, or, where a governed run overflows, the
    samples before the first non-finite one and non-finite there."""

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(runs())
    def compare(run):
        substeps, dpf, t_j, g, tg, k, state = run
        zero = [(i, h, k, k, k) for i, h in substeps]
        for full, free in ((kernels.rk4, kernels.rk4_free),
                           (kernels.rk4_governed, kernels.rk4_governed_free)):
            omega, gov_series, end = _step(free, substeps, dpf, t_j, g, tg, state)
            want = _step(full, zero, dpf, t_j, g, tg, state)
            finite = np.isfinite(want[0]) & np.isfinite(want[1])
            j = int(np.argmin(finite)) if not finite.all() else finite.size
            assert _bits(omega[:j]) == _bits(want[0][:j]), free.__name__
            assert _bits(gov_series[:j]) == _bits(want[1][:j]), free.__name__
            if j < finite.size:
                assert not (np.isfinite(omega[j]) and np.isfinite(gov_series[j]))
            else:
                assert _bits(end) == _bits(want[2]), free.__name__

    compare()


def test_free_loops_match_full_loops_at_zero_law():
    check_free_loops(EXAMPLES)


def test_free_loop_of_no_substeps_returns_its_state():
    state = (1.5, 1e-17, -0.25, 3e-18)
    for loop in (kernels.rk4_free, kernels.rk4_governed_free):
        assert loop(iter(()), np.zeros(1), np.zeros(1), -0.3, 10.0, 25.0, 8.0, state) == state
