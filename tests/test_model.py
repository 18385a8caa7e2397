import math

import pytest

from droopinertia import (
    FfrSpec,
    GeneratorSpec,
    ImbalanceEvent,
    SimConfig,
    SystemModel,
    ValidationError,
)


class TestAggregateInertia:
    """SystemModel.total_inertia: sum(S_i * T_i) / system_base, in seconds."""

    def test_reference_system(self):
        gens = [GeneratorSpec(1000.0, 39.2)]
        assert SystemModel(1000.0, gens).total_inertia == 39.2

    def test_identity_when_rated_at_base(self):
        assert SystemModel(500.0, [GeneratorSpec(500.0, 7.5)]).total_inertia == 7.5

    def test_two_generator_weighted_sum(self):
        gens = [GeneratorSpec(500.0, 20.0), GeneratorSpec(500.0, 60.0)]
        # hand sum: (500*20 + 500*60) / 1000
        assert SystemModel(1000.0, gens).total_inertia == pytest.approx(40.0, rel=1e-15)

    def test_empty_roster_rejected(self):
        with pytest.raises(ValidationError, match="empty generator list"):
            SystemModel(1000.0, [])

    def test_nonpositive_base_rejected(self):
        with pytest.raises(ValidationError, match="system_base must be > 0"):
            SystemModel(0.0, [GeneratorSpec(100.0, 5.0)])
        with pytest.raises(ValidationError, match="system_base must be > 0"):
            SystemModel(-10.0, [GeneratorSpec(100.0, 5.0)])


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
        hand = sum(g.nominal_power * g.inertia_constant for g in model.generators)
        assert model.total_inertia == hand / model.system_base

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

    def test_duration_must_be_whole_multiple_of_step(self):
        with pytest.raises(ValidationError, match="whole multiple"):
            SimConfig(time_step=0.007, duration=11.0)
        # 3.3 / 0.1 is 32.99999999999999 and 0.9 / 0.03 is 30.000000000000004
        # in floating point: whole multiples to the relative tolerance
        assert SimConfig(time_step=0.1, duration=3.3).duration == 3.3
        assert SimConfig(time_step=0.03, duration=0.9).duration == 0.9

    def test_sample_count_must_be_finite(self):
        # 60 / 1e-320 overflows to inf, whose round() raised OverflowError
        with pytest.raises(ValidationError, match=r"SimConfig\.duration / "
                                                  r"SimConfig\.time_step \(60\.0 / 1e-320\) "
                                                  r"must be a finite number, got inf"):
            SimConfig(1e-320, 60.0)

    def test_unknown_integrator_rejected(self):
        with pytest.raises(ValidationError):
            SimConfig(integrator="rk45")
