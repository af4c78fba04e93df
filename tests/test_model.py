import dataclasses
import math

import numpy as np
import pytest

from microgrid_ems.model import (
    ConstraintViolationError,
    Control,
    InvalidStateError,
    ModelError,
    R6C2Params,
    State,
    SystemParams,
    Uncertainty,
    admissible_controls,
    continuous_dynamics,
    linear_dynamics,
    recourse,
    split_flow,
    stage_cost,
    step,
    terminal_cost,
)

from helpers import battery_params, battery_x0


def thermal_params(**overrides) -> SystemParams:
    T = 8
    base = dict(
        delta=0.25, horizon_steps=T, rho_c=0.95, rho_d=0.95,
        b_min=0.9, b_max=3.0, f_b_max=3.0, h_max=5.58, f_h_max=3.0,
        f_t_max=6.0, beta_h=0.9,
        r6c2=R6C2Params(r_i=0.5, r_s=0.5, r_m=2.0, r_e=2.0, r_v=25.0,
                        r_f=40.0, c_i=3.3, c_m=50.0, gamma=0.1),
        theta_o=np.full(T + 1, 10.0), p_int=np.zeros(T + 1),
        p_ext=np.zeros(T + 1), pi_e=np.full(T + 1, 0.18),
        pi_d=np.full(T + 1, 0.1), theta_set=np.full(T + 1, 20.0),
        kappa=1.0, h_floor=0.0,
    )
    base.update(overrides)
    return SystemParams(**base)


class TestSplitFlow:
    def test_positive(self):
        assert split_flow(2.5) == (2.5, 0.0)

    def test_negative(self):
        assert split_flow(-1.5) == (0.0, 1.5)

    def test_zero(self):
        assert split_flow(0.0) == (0.0, 0.0)

    def test_non_finite(self):
        with pytest.raises(ModelError):
            split_flow(float("nan"))


class TestDynamics:
    def test_battery_charge_rate(self):
        # db/dt = rho_c * f_b+ for pure charging
        p = thermal_params()
        x = State(1.5, 2.0, 15.0, 18.0)
        rate = continuous_dynamics(0, x, Control(2.0, 0.0, 0.0),
                                   Uncertainty(0.0, 0.0), p)
        assert rate[0] == pytest.approx(0.95 * 2.0, abs=1e-12)

    def test_battery_discharge_rate(self):
        p = thermal_params()
        x = State(1.5, 2.0, 15.0, 18.0)
        rate = continuous_dynamics(0, x, Control(-2.0, 0.0, 0.0),
                                   Uncertainty(0.0, 0.0), p)
        assert rate[0] == pytest.approx(-2.0 / 0.95, abs=1e-12)

    def test_tank_rate(self):
        p = thermal_params()
        x = State(1.5, 2.0, 15.0, 18.0)
        rate = continuous_dynamics(0, x, Control(0.0, 0.0, 2.0),
                                   Uncertainty(0.0, 1.3), p)
        assert rate[1] == pytest.approx(0.9 * 2.0 - 1.3, abs=1e-12)

    def test_thermal_equilibrium(self):
        # all temperatures equal to outdoor, no flows, no gains -> no drift
        p = thermal_params()
        x = State(1.5, 2.0, 10.0, 10.0)
        rate = continuous_dynamics(0, x, Control(0.0, 0.0, 0.0),
                                   Uncertainty(0.0, 0.0), p)
        assert rate[2] == pytest.approx(0.0, abs=1e-12)
        assert rate[3] == pytest.approx(0.0, abs=1e-12)

    def test_heater_split(self):
        # gamma to the wall node, 1 - gamma to the indoor node
        p = thermal_params()
        x = State(1.5, 2.0, 10.0, 10.0)
        rate = continuous_dynamics(0, x, Control(0.0, 4.0, 0.0),
                                   Uncertainty(0.0, 0.0), p)
        r = p.r6c2
        assert rate[2] == pytest.approx(r.gamma * 4.0 / r.c_m, abs=1e-12)
        assert rate[3] == pytest.approx((1 - r.gamma) * 4.0 / r.c_i, abs=1e-12)

    def test_linear_form_matches_reference(self):
        # the affine decomposition must reproduce continuous_dynamics exactly
        p = thermal_params(p_int=np.full(9, 0.3), p_ext=np.full(9, 0.5))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = State(*rng.uniform([0.9, 0, 0, 0], [3, 5.5, 25, 25]))
            u = Control(rng.uniform(-3, 3), rng.uniform(0, 6), rng.uniform(0, 3))
            w = Uncertainty(rng.uniform(-2, 3), rng.uniform(0, 2.5))
            m, n, pw, g = linear_dynamics(2, p)
            pos, neg = split_flow(u.f_b)
            uv = np.array([pos, neg, u.f_t, u.f_h])
            lin = m @ x.as_array() + n @ uv + pw @ w.as_array() + g
            ref = continuous_dynamics(2, x, u, w, p)
            np.testing.assert_allclose(lin, ref, atol=1e-12)

    def test_bad_stage_index(self):
        p = thermal_params()
        with pytest.raises(ModelError):
            continuous_dynamics(p.horizon_steps, State(1.5, 2, 15, 18),
                                Control(0, 0, 0), Uncertainty(0, 0), p)


class TestAdmissibility:
    def test_full_battery_cannot_charge(self):
        p = thermal_params()
        box = admissible_controls(State(3.0, 2.0, 15.0, 18.0), p)
        assert box.f_b_max == 0.0

    def test_empty_battery_cannot_discharge(self):
        p = thermal_params()
        box = admissible_controls(State(0.9, 2.0, 15.0, 18.0), p)
        assert box.f_b_min == 0.0

    def test_power_limited_midrange(self):
        p = thermal_params()
        box = admissible_controls(State(1.5, 2.0, 15.0, 18.0), p)
        # charge cap: (3 - 1.5)/(0.25 * 0.95) = 6.32 kW > 3 kW power limit
        assert box.f_b_max == pytest.approx(3.0)
        assert box.f_b_min == pytest.approx(-min(3.0, 0.95 * 0.6 / 0.25))

    def test_full_tank_blocks_heating(self):
        p = thermal_params()
        box = admissible_controls(State(1.5, p.h_max, 15.0, 18.0), p)
        assert box.f_h_max == 0.0

    def test_box_contains_and_clip(self):
        p = thermal_params()
        box = admissible_controls(State(1.5, 2.0, 15.0, 18.0), p)
        u = Control(10.0, -1.0, 99.0)
        assert not box.contains(u)
        clipped = box.clip(u)
        assert box.contains(clipped)


class TestStep:
    def test_euler_identity(self):
        p = thermal_params()
        x = State(1.5, 2.0, 15.0, 18.0)
        u = Control(1.0, 2.0, 1.0)
        w = Uncertainty(0.5, 0.2)
        x_next = step(0, x, u, w, p)
        rate = continuous_dynamics(0, x, u, w, p)
        assert x_next.as_array().tobytes() == (x.as_array() + 0.25 * rate).tobytes()

    def test_rejects_inadmissible(self):
        p = thermal_params()
        with pytest.raises(ConstraintViolationError) as err:
            step(0, State(3.0, 2.0, 15.0, 18.0), Control(1.0, 0.0, 0.0),
                 Uncertainty(0.0, 0.0), p)
        assert err.value.bound == "f_b upper bound"
        assert err.value.value == 1.0

    # f_t_max is 6 and h_max 5.58; the battery holds 0.6 above b_min
    @pytest.mark.parametrize("x, u, bound, value, limit", [
        (State(3.0, 2.0, 15.0, 18.0), Control(0.5, 0.0, 0.0), "f_b upper bound", 0.5, 0.0),
        (State(1.5, 2.0, 15.0, 18.0), Control(math.inf, 0.0, 0.0), "f_b upper bound",
         math.inf, 3.0),
        (State(0.9, 2.0, 15.0, 18.0), Control(-0.5, 0.0, 0.0), "f_b lower bound", -0.5, 0.0),
        (State(1.5, 2.0, 15.0, 18.0), Control(-2.5, 0.0, 0.0), "f_b lower bound", -2.5,
         -0.95 * 0.6 / 0.25),
        (State(1.5, 2.0, 15.0, 18.0), Control(0.0, 6.5, 0.0), "f_t bound", 6.5, 6.0),
        (State(1.5, 2.0, 15.0, 18.0), Control(0.0, -0.5, 0.0), "f_t bound", -0.5, 6.0),
        (State(1.5, 2.0, 15.0, 18.0), Control(0.0, math.nan, 0.0), "f_t bound", math.nan, 6.0),
        (State(1.5, 5.58, 15.0, 18.0), Control(0.0, 0.0, 0.5), "f_h bound", 0.5, 0.0),
        (State(1.5, 2.0, 15.0, 18.0), Control(0.0, 0.0, -0.5), "f_h bound", -0.5, 3.0),
    ], ids=["fb-full", "fb-inf", "fb-empty", "fb-power", "ft-high", "ft-negative", "ft-nan",
            "fh-full", "fh-negative"])
    def test_each_box_violation_names_its_bound(self, x, u, bound, value, limit):
        with pytest.raises(ConstraintViolationError) as err:
            step(0, x, u, Uncertainty(0.0, 0.0), thermal_params())
        assert err.value.bound == bound
        assert err.value.value == value or math.isnan(value) and math.isnan(err.value.value)
        assert err.value.limit == pytest.approx(limit, abs=1e-15)

    @pytest.mark.parametrize("t, u, w", [
        (8, Control(0.0, 0.0, 0.0), Uncertainty(0.0, 0.0)),
        (-1, Control(0.0, 0.0, 0.0), Uncertainty(0.0, 0.0)),
        (0, Control(math.nan, 0.0, 0.0), Uncertainty(0.0, 0.0)),
        (0, Control(0.0, 0.0, 0.0), Uncertainty(math.nan, 0.0)),
        (0, Control(0.0, 0.0, 0.0), Uncertainty(0.0, math.inf)),
    ], ids=["t-past-horizon", "t-negative", "fb-nan", "d_el-nan", "d_hw-inf"])
    def test_bad_step_or_non_finite_input(self, t, u, w):
        # plain ModelError: not a box violation, not a bad state
        with pytest.raises(ModelError) as err:
            step(t, State(1.5, 2.0, 15.0, 18.0), u, w, thermal_params())
        assert type(err.value) is ModelError

    def test_rejects_bad_state(self):
        p = thermal_params()
        with pytest.raises(InvalidStateError):
            step(0, State(5.0, 2.0, 15.0, 18.0), Control(0, 0, 0),
                 Uncertainty(0, 0), p)

    @pytest.mark.parametrize("x", [State(0.5, 2.0, 15.0, 18.0), State(1.5, -0.1, 15.0, 18.0),
                                   State(1.5, 6.0, 15.0, 18.0)], ids=["b-low", "h-low", "h-high"])
    def test_rejects_each_stock_out_of_bounds(self, x):
        with pytest.raises(InvalidStateError):
            step(0, x, Control(0, 0, 0), Uncertainty(0, 0), thermal_params())

    @pytest.mark.parametrize("field", ["b", "h", "theta_w", "theta_i"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_state_is_an_invalid_state(self, field, value):
        # through check_state, step, continuous_dynamics and terminal_cost:
        # exactly InvalidStateError, never a plain ModelError
        p = thermal_params()
        x = dataclasses.replace(State(1.5, 2.0, 15.0, 18.0), **{field: value})
        u, w = Control(0.0, 0.0, 0.0), Uncertainty(0.0, 0.0)
        calls = [lambda: p.check_state(x), lambda: step(0, x, u, w, p),
                 lambda: continuous_dynamics(0, x, u, w, p)]
        if field in ("b", "h"):
            calls.append(lambda: terminal_cost(x, battery_x0(), p.kappa))
        for call in calls:
            with pytest.raises(InvalidStateError) as err:
                call()
            assert type(err.value) is InvalidStateError


class TestRecourseAndCosts:
    def test_deficit_imports(self):
        rec = recourse(Control(1.0, 0.0, 0.0), Uncertainty(0.5, 0.0))
        assert rec.f_ne == pytest.approx(1.5)
        assert rec.spill == 0.0

    def test_surplus_spills(self):
        rec = recourse(Control(0.0, 0.0, 0.0), Uncertainty(-2.0, 0.0))
        assert rec.f_ne == 0.0
        assert rec.spill == pytest.approx(2.0)

    def test_balance_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = Control(*rng.uniform(-3, 3, 3))
            w = Uncertainty(rng.uniform(-4, 4), rng.uniform(0, 2))
            rec = recourse(u, w)
            residual = (rec.f_ne - rec.spill
                        - u.f_b - u.f_t - u.f_h - w.d_el_net)
            assert abs(residual) <= 1e-12
            assert rec.f_ne >= 0 and rec.spill >= 0
            assert rec.f_ne * rec.spill == 0.0

    def test_forced_import_price(self):
        # 2 kW over a quarter hour at 0.18: 0.18 * 0.25 * 2 = 0.09
        p = thermal_params()
        cost = stage_cost(0, State(1.5, 2.0, 15.0, 25.0),
                          Control(0.0, 0.0, 0.0), Uncertainty(2.0, 0.0), p)
        assert cost == pytest.approx(0.09, abs=1e-15)

    def test_discomfort_on_incoming_state(self):
        p = thermal_params()
        cost = stage_cost(0, State(1.5, 2.0, 15.0, 18.0),
                          Control(0.0, 0.0, 0.0), Uncertainty(0.0, 0.0), p)
        assert cost == pytest.approx(0.1 * (20.0 - 18.0), abs=1e-12)

    def test_terminal_one_sided(self):
        x0 = State(1.5, 2.0, 15.0, 18.0)
        assert terminal_cost(State(1.0, 1.5, 0, 0), x0, 2.0) == pytest.approx(
            2.0 * (0.5 + 0.5))
        assert terminal_cost(State(2.0, 3.0, 0, 0), x0, 2.0) == 0.0

    def test_battery_only_instance_valid(self):
        p = battery_params()
        p.check_state(battery_x0())


class TestValidation:
    def test_series_length(self):
        with pytest.raises(ModelError, match="theta_o"):
            thermal_params(theta_o=np.zeros(5))

    def test_price_positive(self):
        with pytest.raises(ModelError):
            thermal_params(pi_e=np.zeros(9))

    def test_bad_efficiency(self):
        with pytest.raises(ModelError):
            thermal_params(rho_c=1.5)

    def test_h_floor_range(self):
        with pytest.raises(ModelError):
            thermal_params(h_floor=10.0)

    def test_r6c2_positive(self):
        with pytest.raises(ModelError):
            R6C2Params(r_i=-1, r_s=0.5, r_m=2, r_e=2, r_v=25, r_f=40,
                       c_i=3.3, c_m=50, gamma=0.1)
