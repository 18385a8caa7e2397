"""Shared builders for the reference test system: a 1000 MVA single-machine
grid with 39.2 s of inertia and four identical HVDC-style FFRs (per-unit
droop cap 32, optimal 8, equal regulation margins)."""

import numpy as np
import pytest

from droopinertia import FfrSpec, GeneratorSpec, ImbalanceEvent, SystemModel, Vdic

T_J = 39.2
DELTA_PF = -0.3
TARGET_INERTIA = 40.0
K_UPPER_TOTAL = 128.0
K_OPT_TOTAL = 32.0


def make_ffrs(n=4, cap=32.0, optimal=8.0, margin=0.25):
    return [FfrSpec(f"hvdc{i}", cap, optimal, margin) for i in range(1, n + 1)]


def make_model(ffrs=None):
    return SystemModel(
        system_base=1000.0,
        generators=[GeneratorSpec(1000.0, T_J)],
        ffrs=make_ffrs() if ffrs is None else ffrs,
    )


@pytest.fixture
def model():
    return make_model()


@pytest.fixture
def event():
    return ImbalanceEvent(DELTA_PF, onset_time=0.0)


def vdic_at(schedule, elapsed):
    """Vdic(schedule)'s coefficient at one elapsed time, as a float."""
    return float(Vdic(schedule).coefficients(np.array([elapsed]))[0])
