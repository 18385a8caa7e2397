import math

import pytest

from droopinertia import (
    FfrSpec,
    GeneratorSpec,
    ImbalanceEvent,
    SimConfig,
    SystemModel,
    ValidationError,
    aggregate_inertia,
)


class TestAggregateInertia:
    def test_reference_system(self):
        gens = [GeneratorSpec(1000.0, 39.2)]
        assert aggregate_inertia(gens, 1000.0) == 39.2

    def test_identity_when_rated_at_base(self):
        assert aggregate_inertia([GeneratorSpec(500.0, 7.5)], 500.0) == 7.5

    def test_two_generator_weighted_sum(self):
        gens = [GeneratorSpec(500.0, 20.0), GeneratorSpec(500.0, 60.0)]
        # hand sum: (500*20 + 500*60) / 1000
        assert aggregate_inertia(gens, 1000.0) == pytest.approx(40.0, rel=1e-15)

    def test_empty_roster_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_inertia([], 1000.0)

    def test_nonpositive_base_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_inertia([GeneratorSpec(100.0, 5.0)], 0.0)
        with pytest.raises(ValidationError):
            aggregate_inertia([GeneratorSpec(100.0, 5.0)], -10.0)


class TestGeneratorSpec:
    @pytest.mark.parametrize("power,inertia", [(0.0, 5.0), (-1.0, 5.0), (100.0, 0.0),
                                               (100.0, -2.0), (math.nan, 5.0),
                                               (100.0, math.inf)])
    def test_rejects_nonpositive_or_nonfinite(self, power, inertia):
        with pytest.raises(ValidationError):
            GeneratorSpec(power, inertia)


class TestFfrSpec:
    def test_optimal_above_cap_rejected(self):
        with pytest.raises(ValidationError):
            FfrSpec("a", droop_upper_bound=8.0, droop_optimal=32.0)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValidationError):
            FfrSpec("a", 32.0, 8.0, regulation_margin=-0.1)

    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError):
            FfrSpec("", 32.0, 8.0)

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a'b", "a b", "a\nb", "a\r", "\tb",
                                       "a\u2028b", "a\u00a0b", "\ud800", "a\x00", 5, None, b"ab"])
    def test_id_a_csv_header_cannot_carry_rejected(self, label):
        with pytest.raises(ValidationError, match="FfrSpec.id"):
            FfrSpec(label, 32.0, 8.0)

    @pytest.mark.parametrize("label", ["hvdc1", "a-b_c.d", "p_x", "\u00e9olien"])
    def test_header_safe_id_accepted(self, label):
        assert FfrSpec(label, 32.0, 8.0).id == label


class TestSystemModel:
    def test_total_inertia_matches_aggregate(self, model):
        assert model.total_inertia == aggregate_inertia(model.generators, model.system_base)

    def test_requires_generators(self):
        with pytest.raises(ValidationError):
            SystemModel(1000.0, [])

    def test_duplicate_ffr_ids_rejected(self):
        ffrs = [FfrSpec("x", 32.0, 8.0), FfrSpec("x", 32.0, 8.0)]
        with pytest.raises(ValidationError):
            SystemModel(1000.0, [GeneratorSpec(1000.0, 39.2)], ffrs)

    def test_with_added_inertia(self, model):
        bumped = model.with_added_inertia(40.0)
        assert bumped.total_inertia == pytest.approx(79.2, rel=1e-15)
        assert model.total_inertia == 39.2  # original untouched
        assert bumped.ffrs == model.ffrs


class TestImbalanceEvent:
    def test_zero_imbalance_rejected(self):
        with pytest.raises(ValidationError):
            ImbalanceEvent(0.0)

    def test_negative_onset_rejected(self):
        with pytest.raises(ValidationError):
            ImbalanceEvent(-0.3, onset_time=-1.0)

    def test_sign_carries(self):
        assert ImbalanceEvent(-0.3).delta_pf < 0 < ImbalanceEvent(0.2).delta_pf


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.time_step == 1e-3
        assert cfg.duration == 20.0
        assert cfg.integrator == "rk4"

    def test_step_must_leave_ten_samples(self):
        with pytest.raises(ValidationError):
            SimConfig(time_step=3.0, duration=20.0)

    def test_unknown_integrator_rejected(self):
        with pytest.raises(ValidationError):
            SimConfig(integrator="rk45")
