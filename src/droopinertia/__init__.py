"""Swing-equation simulation and equivalent-inertia analytics for
droop-controlled fast frequency regulation resources (FFRs).

The package quantifies how much inertia a droop-controlled FFR fleet
effectively adds to a grid, verifies the simulator against closed-form
frequency solutions, and provides the bounded inverse-time droop schedule
(VDIC) that delivers a constant equivalent inertia target.
"""

from .analytics import (
    CONDITIONING_FLOOR,
    InertiaEstimate,
    closed_form_omega_constant_droop,
    closed_form_omega_constant_inertia,
    equivalent_inertia_constant_droop,
    estimate_from_trace,
)
from .controllers import (
    ConstantDroop,
    Controller,
    DroopSchedule,
    GovernorSpec,
    NoControl,
    Vdic,
)
from .errors import ConfigError, SimulationDivergedError, ValidationError
from .model import (
    FfrSpec,
    GeneratorSpec,
    ImbalanceEvent,
    SimConfig,
    SystemModel,
)
from .scenario import (
    SUBCASES,
    CaseStudyResult,
    ScenarioConfig,
    SummaryMetrics,
    default_config_path,
    emit_case_study_csv,
    emit_trace_csv,
    load_config,
    read_trace_csv,
    run_case_study,
    run_subcase,
    summarize,
)
from .integrate import Trace, simulate

__version__ = "0.1.0"

__all__ = [
    "CONDITIONING_FLOOR",
    "CaseStudyResult",
    "ConfigError",
    "ConstantDroop",
    "Controller",
    "DroopSchedule",
    "FfrSpec",
    "GeneratorSpec",
    "GovernorSpec",
    "ImbalanceEvent",
    "InertiaEstimate",
    "NoControl",
    "SUBCASES",
    "ScenarioConfig",
    "SimConfig",
    "SimulationDivergedError",
    "SummaryMetrics",
    "SystemModel",
    "Trace",
    "ValidationError",
    "Vdic",
    "closed_form_omega_constant_droop",
    "closed_form_omega_constant_inertia",
    "default_config_path",
    "emit_case_study_csv",
    "emit_trace_csv",
    "equivalent_inertia_constant_droop",
    "estimate_from_trace",
    "load_config",
    "read_trace_csv",
    "run_case_study",
    "run_subcase",
    "simulate",
    "summarize",
]
