"""Aggregated single-frequency grid model.

All powers are per-unit on the system MVA base, frequency deviation is
per-unit of nominal frequency, and inertia constants are in seconds.
A positive power imbalance means surplus generation; negative means
shortage (frequency falls).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .errors import ValidationError


def _require_finite(name: str, value: float) -> float:
    """value as a float; anything but a finite real number (a bool included)
    raises ValidationError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _require_label(name: str, value: str) -> str:
    """value if it is a non-empty string a CSV header can carry as is:
    printable (so no line break and no lone surrogate), with no comma, quote
    or space; anything else raises ValidationError."""
    if (not isinstance(value, str) or not value or not value.isprintable()
            or any(c in ' ,"\'' for c in value)):
        raise ValidationError(f"{name} must be a non-empty printable string without "
                              f"commas, quotes or whitespace, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    _require_finite(name, value)
    if value <= 0.0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GeneratorSpec:
    """One synchronous machine contributing rotating inertia.

    Attributes:
        nominal_power: machine MVA rating.
        inertia_constant: stored kinetic energy over rating, in seconds.
    """

    nominal_power: float
    inertia_constant: float

    def __post_init__(self):
        _require_positive("GeneratorSpec.nominal_power", self.nominal_power)
        _require_positive("GeneratorSpec.inertia_constant", self.inertia_constant)


@dataclass(frozen=True)
class FfrSpec:
    """One fast frequency regulation resource (storage, HVDC link, ...).

    Attributes:
        id: label used for per-resource trace columns: a non-empty
            printable string without commas, quotes or whitespace.
        droop_upper_bound: hard cap on this resource's droop coefficient
            (p.u. power per p.u. frequency deviation).
        droop_optimal: steady-state-optimal droop coefficient, <= the cap.
        regulation_margin: spare regulating power (p.u.), used to weight
            the allocation of a total droop coefficient across resources.
    """

    id: str
    droop_upper_bound: float
    droop_optimal: float
    regulation_margin: float = 0.0

    def __post_init__(self):
        _require_label("FfrSpec.id", self.id)
        _require_positive("FfrSpec.droop_upper_bound", self.droop_upper_bound)
        _require_positive("FfrSpec.droop_optimal", self.droop_optimal)
        if self.droop_optimal > self.droop_upper_bound:
            raise ValidationError(
                f"FfrSpec.droop_optimal ({self.droop_optimal}) exceeds "
                f"droop_upper_bound ({self.droop_upper_bound})"
            )
        _require_finite("FfrSpec.regulation_margin", self.regulation_margin)
        if self.regulation_margin < 0.0:
            raise ValidationError(
                f"FfrSpec.regulation_margin must be >= 0, got {self.regulation_margin}"
            )


def aggregate_inertia(generators: list[GeneratorSpec] | tuple[GeneratorSpec, ...],
                      system_base: float) -> float:
    """Total inertia constant: sum(S_i * T_i) / system_base, in seconds.

    Raises:
        ValidationError: empty generator list or non-positive base.
    """
    if not generators:
        raise ValidationError("cannot aggregate inertia of an empty generator list")
    _require_positive("system_base", system_base)
    return sum(g.nominal_power * g.inertia_constant for g in generators) / system_base


@dataclass(frozen=True)
class SystemModel:
    """Aggregated grid: one bus, one frequency, lumped inertia.

    total_inertia is derived from the generator roster and cached at
    construction so repeated reads are cheap and always consistent.
    """

    system_base: float
    generators: tuple[GeneratorSpec, ...]
    ffrs: tuple[FfrSpec, ...] = ()
    total_inertia: float = field(init=False)

    def __init__(self, system_base: float, generators, ffrs=()):
        object.__setattr__(self, "system_base",
                           _require_finite("SystemModel.system_base", system_base))
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "ffrs", tuple(ffrs))
        object.__setattr__(
            self, "total_inertia", aggregate_inertia(self.generators, self.system_base)
        )
        ids = [f.id for f in self.ffrs]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate FFR ids: {ids}")

    def with_added_inertia(self, delta_tj: float) -> "SystemModel":
        """Return a copy whose total inertia is exactly delta_tj seconds larger.

        Realized by appending a synthetic machine rated at the system base,
        so (S_sys * delta_tj) / S_sys adds delta_tj without rounding.
        """
        _require_positive("delta_tj", delta_tj)
        extra = GeneratorSpec(nominal_power=self.system_base, inertia_constant=delta_tj)
        return SystemModel(self.system_base, self.generators + (extra,), self.ffrs)


@dataclass(frozen=True)
class ImbalanceEvent:
    """Step power imbalance: delta_pf p.u. applied from onset_time onward.

    delta_pf < 0 is a generation shortage (frequency falls), > 0 a surplus.
    The imbalance is held constant for the rest of the scenario.
    """

    delta_pf: float
    onset_time: float = 0.0

    def __post_init__(self):
        _require_finite("ImbalanceEvent.delta_pf", self.delta_pf)
        if self.delta_pf == 0.0:
            raise ValidationError("ImbalanceEvent.delta_pf must be nonzero")
        _require_finite("ImbalanceEvent.onset_time", self.onset_time)
        if self.onset_time < 0.0:
            raise ValidationError(
                f"ImbalanceEvent.onset_time must be >= 0, got {self.onset_time}"
            )


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration settings.

    time_step must leave at least ten steps in the run; coarser grids make
    the sampled trace meaningless. duration must be a whole multiple of
    time_step (to a relative 1e-9), so the last sample falls on it.
    """

    time_step: float = 1e-3
    duration: float = 20.0
    integrator: str = "rk4"

    def __post_init__(self):
        _require_positive("SimConfig.time_step", self.time_step)
        _require_positive("SimConfig.duration", self.duration)
        if self.time_step > self.duration / 10.0:
            raise ValidationError(
                f"SimConfig.time_step ({self.time_step}) must be <= duration/10 "
                f"({self.duration / 10.0})"
            )
        steps = self.duration / self.time_step
        if math.isfinite(steps) and abs(steps - round(steps)) > 1e-9 * steps:
            raise ValidationError(f"SimConfig.duration ({self.duration}) must be a whole "
                                  f"multiple of SimConfig.time_step ({self.time_step})")
        if self.integrator not in ("rk4", "euler"):
            raise ValidationError(
                f"SimConfig.integrator must be 'rk4' or 'euler', got {self.integrator!r}"
            )
