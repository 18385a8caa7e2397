"""The inverse-time droop schedule (VDIC) and its inertia equivalence.

If the droop coefficient decays like target_inertia / t, the fleet's
regulation reproduces, exactly, the frequency ramp of a grid whose inertia
is larger by target_inertia: same trajectory, no synthetic machine
dynamics. This demo shows

  1. the bounded schedule's three segments and breakpoints,
  2. the unbounded schedule tracking the added-inertia ramp to ~1e-17 p.u.,
  3. the estimator reading a constant 40 s off the resulting trace.

Run:  python demos/03_vdic_schedule.py
"""

import numpy as np

from droopinertia import (
    DroopSchedule,
    FfrSpec,
    GeneratorSpec,
    ImbalanceEvent,
    NoControl,
    SimConfig,
    SystemModel,
    Vdic,
    estimate_from_trace,
    simulate,
)

T_J = 39.2
TARGET = 40.0

bounded = DroopSchedule(target_inertia=TARGET, upper_bound=128.0, lower_bound=32.0)
print("bounded schedule (target 40 s, cap 128 p.u., floor 32 p.u.):")
for start, end, kind, value in Vdic(bounded).segments():
    law = f"{value:g}/t" if kind == "inverse" else f"{value:g}"
    print(f"  k = {law:<9} from {start} s to {end} s")
times = np.array([0.0, 0.1, 0.3125, 0.5, 1.0, 1.25, 5.0])
for t, k in zip(times, Vdic(bounded).coefficients(times)):
    print(f"  k({t:6.4f} s) = {k:8.3f} p.u.")

# unbounded variant: clamp levels pushed far outside the window
unbounded = DroopSchedule(target_inertia=TARGET, upper_bound=1e12, lower_bound=1e-12)
fleet = SystemModel(
    system_base=1000.0,
    generators=[GeneratorSpec(1000.0, T_J)],
    ffrs=[FfrSpec("fleet", 1e12, 1.0, 1.0)],
)
event = ImbalanceEvent(-0.3)
cfg = SimConfig(time_step=1e-3, duration=10.0)

vdic_trace = simulate(fleet, event, Vdic(unbounded), cfg)
heavy = fleet.with_added_inertia(TARGET)
inertia_trace = simulate(heavy, event, NoControl(), cfg)

gap = float(np.max(np.abs(vdic_trace.omega - inertia_trace.omega)))
slope = np.polyfit(vdic_trace.sample_times, vdic_trace.omega, 1)[0]
print()
print("unbounded 1/t schedule vs physically added 40 s of inertia:")
print(f"  max pointwise |omega gap| over 10 s : {gap:.3e} p.u.")
print(f"  fitted slope                        : {slope:.9e} p.u./s")
print(f"  analytic delta_pf/(t_j + 40)        : {-0.3 / 79.2:.9e} p.u./s")

est = estimate_from_trace(vdic_trace, T_J, -0.3)
sel = est.valid_mask & (vdic_trace.sample_times >= 0.01)
print(f"  estimator reads back                : {float(np.mean(est.delta_tj[sel])):.6f} s "
      f"(spread {float(np.ptp(est.delta_tj[sel])):.2e} s)")
