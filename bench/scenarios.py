"""Seeded scenario draws for the benchmark and the closed-form oracles that
check the program's outputs on them.

Draws use the standard library's `random.Random(seed)`, so one seed gives
the same scenarios whatever the numpy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from droopinertia import (
    ConstantDroop,
    DroopSchedule,
    FfrSpec,
    GeneratorSpec,
    GovernorSpec,
    ImbalanceEvent,
    NoControl,
    SimConfig,
    SystemModel,
    Vdic,
    closed_form_omega_constant_droop,
    closed_form_omega_constant_inertia,
)

KINDS = ("no_control", "added_inertia", "constant_droop", "vdic", "vdic_unbounded")
FLEET_SIZES = (1, 4, 16)
SYSTEM_BASE = 1000.0
# bounds this far out realise the pure 1/t law over any simulated window
UNBOUNDED = 1e12
GOVERNOR = {"droop_gain_pu": 25.0, "time_constant_s": 8.0}

# max |omega_sim - omega_closed_form|, p.u.: acceptance criterion 1
CLOSED_FORM_TOL = 1e-8
# max relative error of the estimated inertia on unbounded VDIC: criterion 3
ESTIMATOR_TOL = 1e-4
# samples this close to the onset are left out of the estimator check, as in criterion 3
ESTIMATOR_SKIP_S = 0.01
# max |sum of per-FFR power - ffr_power| relative to max |ffr_power|
ALLOCATION_TOL = 1e-12


@dataclass(frozen=True)
class Draw:
    """One scenario: a single-machine grid, a step imbalance, an FFR fleet
    and one controller kind from KINDS."""

    kind: str
    t_j: float
    delta_pf: float
    onset: float
    duration: float
    governor: bool
    caps: tuple[float, ...]
    margins: tuple[float, ...]
    k_total: float = 0.0
    schedule: tuple[float, float, float] | None = None  # target, upper, lower
    added: float = 0.0
    time_step: float = 1e-3

    @property
    def samples(self) -> int:
        return int(round(self.duration / self.time_step)) + 1

    @property
    def has_closed_form(self) -> bool:
        return not self.governor and self.kind != "vdic"

    @property
    def oracle(self) -> str:
        """Accuracy bucket: the closed form this draw is checked against."""
        if self.kind == "constant_droop":
            return "constant_droop"
        return "vdic_unbounded" if self.kind == "vdic_unbounded" else "added_inertia"

    def _ffrs(self):
        return [FfrSpec(f"ffr{i}", c, c / 4.0, m)
                for i, (c, m) in enumerate(zip(self.caps, self.margins))]

    def objects(self):
        """(model, event, controller, sim, governor) for `simulate`."""
        model = SystemModel(SYSTEM_BASE, [GeneratorSpec(SYSTEM_BASE, self.t_j)], self._ffrs())
        if self.kind == "added_inertia":
            model, controller = model.with_added_inertia(self.added), NoControl()
        elif self.kind == "constant_droop":
            controller = ConstantDroop(self.k_total)
        elif self.kind in ("vdic", "vdic_unbounded"):
            controller = Vdic(DroopSchedule(*self.schedule))
        else:
            controller = NoControl()
        governor = GovernorSpec(
            enabled=self.governor,
            droop_gain=GOVERNOR["droop_gain_pu"],
            time_constant=GOVERNOR["time_constant_s"],
        )
        return (model, ImbalanceEvent(self.delta_pf, self.onset), controller,
                SimConfig(self.time_step, self.duration), governor)

    def config_doc(self) -> dict:
        """The same scenario as a schema-v1 config for the CLI."""
        doc = {
            "schema_version": 1,
            "model": {
                "system_base_mva": SYSTEM_BASE,
                "generators": [{"nominal_power_mva": SYSTEM_BASE,
                                "inertia_constant_s": self.t_j}],
                "ffrs": [{"id": f.id, "droop_upper_bound": f.droop_upper_bound,
                          "droop_optimal": f.droop_optimal,
                          "regulation_margin": f.regulation_margin}
                         for f in self._ffrs()],
            },
            "event": {"delta_pf_pu": self.delta_pf, "onset_time_s": self.onset},
            "sim": {"time_step_s": self.time_step, "duration_s": self.duration,
                    "integrator": "rk4"},
            "subcase": "vdic" if self.kind == "vdic_unbounded" else self.kind,
            "governor": {"enabled": self.governor, **GOVERNOR},
        }
        if self.kind == "constant_droop":
            doc["constant_droop"] = {"k_total_pu": self.k_total}
        if self.schedule is not None:
            target, upper, lower = self.schedule
            doc["vdic_schedule"] = {"target_inertia_s": target,
                                    "upper_bound_pu": upper, "lower_bound_pu": lower}
        if self.kind == "added_inertia":
            doc["added_inertia"] = {"delta_tj_s": self.added}
        return doc


def draw(rng, kind: str, n_ffr: int, governor: bool, delayed: bool,
         duration: float) -> Draw:
    """A scenario of the given shape with seeded continuous parameters."""
    t_j = rng.uniform(10.0, 60.0)
    delta_pf = -rng.uniform(0.05, 0.5)
    onset = round(rng.uniform(1.0, 1.5), 3) if delayed else 0.0
    if kind == "vdic_unbounded":
        caps, margins = (UNBOUNDED,) * n_ffr, (1.0,) * n_ffr
    else:
        total = rng.uniform(32.0, 160.0)
        weights = [rng.uniform(0.5, 1.5) for _ in range(n_ffr)]
        caps = tuple(total * w / sum(weights) for w in weights)
        margins = tuple(rng.uniform(0.05, 0.5) for _ in range(n_ffr))
    fields = {}
    if kind == "constant_droop":
        fields["k_total"] = rng.uniform(0.1, 1.0) * sum(caps)
    elif kind == "vdic":
        upper = rng.uniform(0.5, 1.0) * sum(caps)
        fields["schedule"] = (rng.uniform(10.0, 60.0), upper, rng.uniform(0.1, 0.4) * upper)
    elif kind == "vdic_unbounded":
        fields["schedule"] = (rng.uniform(10.0, 60.0), UNBOUNDED, 1.0 / UNBOUNDED)
    elif kind == "added_inertia":
        fields["added"] = rng.uniform(10.0, 60.0)
    return Draw(kind, t_j, delta_pf, onset, duration, governor, caps, margins, **fields)


def sweep_cycle(rng, duration: float = 10.0) -> list[Draw]:
    """Every combination of kind, fleet size, governor and onset once, in
    seeded order, so whole cycles give every run the same mix of op costs."""
    shapes = [(k, n, g, d) for k in KINDS for n in FLEET_SIZES
              for g in (False, True) for d in (False, True)]
    rng.shuffle(shapes)
    return [draw(rng, *shape, duration) for shape in shapes]


def oracle_set(rng) -> list[Draw]:
    """One governor-free draw per closed-form kind, for the accuracy metrics
    of workloads that do not simulate such scenarios themselves."""
    return [draw(rng, kind, 4, False, True, 10.0)
            for kind in ("no_control", "added_inertia", "constant_droop", "vdic_unbounded")]


def _elapsed(d: Draw, t: np.ndarray) -> np.ndarray:
    elapsed = t - d.onset
    elapsed[np.abs(elapsed) <= 1e-9 * d.time_step] = 0.0
    return elapsed


def closed_form_error(d: Draw, trace) -> float:
    """Max |omega_sim - omega_closed_form| over the whole trace, p.u."""
    elapsed = _elapsed(d, trace.sample_times)
    post = elapsed >= 0.0
    if d.kind == "constant_droop":
        ref = closed_form_omega_constant_droop(d.delta_pf, d.k_total, d.t_j, elapsed[post])
    else:
        delta = d.schedule[0] if d.kind == "vdic_unbounded" else d.added
        ref = closed_form_omega_constant_inertia(d.delta_pf, d.t_j, delta, elapsed[post])
    pre = np.abs(trace.omega[~post])
    return max(float(np.max(np.abs(trace.omega[post] - ref))),
               float(pre.max()) if pre.size else 0.0)


def estimator_error(d: Draw, estimate) -> float:
    """Max relative error of the estimated inertia increment against the
    unbounded-VDIC target, on valid samples at least ESTIMATOR_SKIP_S past onset."""
    target = d.schedule[0]
    mask = estimate.valid_mask & (_elapsed(d, estimate.sample_times) >= ESTIMATOR_SKIP_S)
    if not mask.any():
        return math.inf
    return float(np.max(np.abs(estimate.delta_tj[mask] - target)) / target)


def allocation_error(per_ffr_power: np.ndarray, ffr_power: np.ndarray) -> float:
    """Max |sum of per-FFR power - ffr_power|, relative to max |ffr_power|."""
    scale = float(np.max(np.abs(ffr_power))) if ffr_power.size else 0.0
    gap = float(np.max(np.abs(per_ffr_power.sum(axis=0) - ffr_power))) if ffr_power.size else 0.0
    return gap / scale if scale > 0.0 else gap
