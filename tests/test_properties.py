"""Property tests of the physical model on the winter system, of the tank
floors an MPC chain holds across re-solves, and of SDDP's lower bound on
tiny instances against the scenario-tree optimum."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgrid_ems.config import day_config, parse_config
from microgrid_ems.model import (
    Control,
    State,
    Uncertainty,
    admissible_controls,
    continuous_dynamics,
    linear_dynamics,
    recourse,
    split_flow,
    step,
)
from microgrid_ems.policies import StoppingRule, sddp_train
from microgrid_ems.scenarios import DiscreteDistribution
from microgrid_ems.stagelp import ChainTemplate, DeterministicChain

from helpers import battery_params, battery_x0, tree_optimal_value

WINTER = parse_config(day_config("winter"))
P = WINTER.system
unit = st.floats(0.0, 1.0)
temperature = st.floats(-10.0, 40.0)


@st.composite
def states(draw, h_min=0.0):
    return State(b=P.b_min + draw(unit) * (P.b_max - P.b_min),
                 h=h_min + draw(unit) * (P.h_max - h_min),
                 theta_w=draw(temperature), theta_i=draw(temperature))


@st.composite
def admissible(draw, x):
    """A control inside the admissible box at x."""
    box = admissible_controls(x, P)
    return Control(f_b=box.f_b_min + draw(unit) * (box.f_b_max - box.f_b_min),
                   f_t=draw(unit) * box.f_t_max, f_h=draw(unit) * box.f_h_max)


demands = st.builds(Uncertainty, d_el_net=st.floats(-5.0, 5.0),
                    d_hw=st.floats(0.0, WINTER.generator.d_hw_cap))
steps = st.integers(0, P.horizon_steps - 1)


@settings(max_examples=300, deadline=None)
@given(t=steps, x=states(), w=demands, f_b=st.floats(-P.f_b_max, P.f_b_max),
       f_t=st.floats(0.0, P.f_t_max), f_h=st.floats(0.0, P.f_h_max))
def test_linear_dynamics_is_continuous_dynamics(t, x, w, f_b, f_t, f_h):
    u = Control(f_b, f_t, f_h)
    m, n, pw, g = linear_dynamics(t, P)
    affine = m @ x.as_array() + n @ [*split_flow(f_b), f_t, f_h] + pw @ w.as_array() + g
    np.testing.assert_allclose(affine, continuous_dynamics(t, x, u, w, P),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t=steps, x=states(), w=demands)
def test_step_keeps_battery_in_bounds(data, t, x, w):
    nxt = step(t, x, data.draw(admissible(x)), w, P)
    assert P.b_min - 1e-9 <= nxt.b <= P.b_max + 1e-9


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t=steps, w=demands)
def test_step_keeps_tank_in_bounds_above_one_draw(data, t, w):
    # a tank holding at least one step's draw cannot be emptied by it
    x = data.draw(states(h_min=P.delta * w.d_hw))
    nxt = step(t, x, data.draw(admissible(x)), w, P)
    assert -1e-9 <= nxt.h <= P.h_max + 1e-9


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t=steps, x=states(), w=demands)
def test_step_is_the_euler_identity_bit_for_bit(data, t, x, w):
    u = data.draw(admissible(x))
    euler = x.as_array() + P.delta * continuous_dynamics(t, x, u, w, P)
    assert step(t, x, u, w, P).as_array().tobytes() == euler.tobytes()


@given(f_b=st.floats(-3.0, 3.0), f_t=st.floats(0.0, 6.0), f_h=st.floats(0.0, 3.0), w=demands)
def test_recourse_closes_load_balance(f_b, f_t, f_h, w):
    rec = recourse(Control(f_b, f_t, f_h), w)
    assert rec.f_ne >= 0.0 and rec.spill >= 0.0 and rec.f_ne * rec.spill == 0.0
    assert rec.f_ne - rec.spill == pytest.approx(f_b + f_t + f_h + w.d_el_net, abs=1e-12)


# ---------------------------------------------------------------------------
# Tank floors of an MPC chain across re-solves

CHAIN_STEPS = 12
CHAIN_P = dataclasses.replace(P, h_floor=0.5 * P.h_max)  # floors often out of reach
# draws on both sides of full-rate reheating, so planned reach rises and falls
draws = st.floats(0.0, 2.0 * P.beta_h * P.f_h_max)


def sequential_floors(p, x, demands):
    """Each planned tank floor: h_floor, relaxed to the level full-rate
    reheating reaches, step after step, capped at h_max."""
    reach = x.h + p.delta * (p.beta_h * admissible_controls(x, p).f_h_max - demands[0, 1])
    floors = [min(p.h_floor, reach)]
    for d in demands[1:, 1]:
        reach = min(p.h_max, reach + p.delta * (p.beta_h * p.f_h_max - d))
        floors.append(min(p.h_floor, reach))
    return floors


# tank level moves between re-solves: across the tank, or a nudge
moves = st.lists(st.floats(-1.0, 1.0) | st.floats(-0.05, 0.05), min_size=2, max_size=12)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), path=st.lists(draws, min_size=CHAIN_STEPS, max_size=CHAIN_STEPS),
       x=states(h_min=0.3 * P.h_max), moves=moves)
def test_chain_floors_are_the_sequential_reach(data, path, x, moves):
    # across re-solves of one chain the tank level, and with it the first
    # planned reach, rises and falls, and now and then the first step's
    # draw changes; the chain rewrites its floors only below the lowest
    # first reach seen to leave them all at h_floor, or after a relaxed
    # solve, and must hold the sequential ones after every solve
    t0 = P.horizon_steps - CHAIN_STEPS
    hw = np.zeros(P.horizon_steps)
    hw[t0:] = path
    template = ChainTemplate(CHAIN_P, WINTER.initial_state,
                             np.column_stack([np.ones(P.horizon_steps), hw]))
    chain = DeterministicChain(template, t0)
    d_hw = path[0]
    for move in moves:
        if data.draw(st.integers(0, 4)) == 0:  # now and then another first draw
            d_hw = data.draw(draws)
        x = dataclasses.replace(x, h=min(max(x.h + move, 0.0), P.h_max))
        chain.solve(x, (1.0, d_hw))
        floors = chain._persistent._lower[chain._h_cols]
        demands = np.column_stack([np.ones(CHAIN_STEPS), [d_hw, *path[1:]]])
        assert np.array_equal(floors, sequential_floors(CHAIN_P, x, demands))


# ---------------------------------------------------------------------------
# SDDP's stage LPs against a scenario-tree oracle on tiny instances


@st.composite
def tiny_instances(draw):
    """A battery-only system of 2-3 steps with random import prices and
    terminal weight, and per stage a law of 1-3 net-demand points."""
    steps = draw(st.integers(2, 3))
    pi_e = draw(st.lists(st.floats(0.05, 0.5), min_size=steps + 1, max_size=steps + 1))
    p = battery_params(np.array(pi_e), kappa=draw(st.floats(0.0, 1.0)))
    dists = []
    for _ in range(steps):
        size = draw(st.integers(1, 3))
        points = draw(st.lists(st.floats(-2.0, 3.0), min_size=size, max_size=size, unique=True))
        weights = np.array(draw(st.lists(st.floats(0.05, 4.0), min_size=size, max_size=size)))
        dists.append(DiscreteDistribution(points=np.column_stack([points, np.zeros(size)]),
                                          weights=weights / weights.sum()))
    return p, dists


@settings(max_examples=200, deadline=None)
@given(instance=tiny_instances(), seed=st.integers(0, 2**16))
def test_sddp_lower_bound_meets_the_tree_optimum(instance, seed):
    # every lower bound is below the optimum of the whole scenario tree, and
    # once training stalls it is that optimum
    p, dists = instance
    x0 = battery_x0()
    _, log = sddp_train(p, dists, x0, StoppingRule(max_iters=200, lb_tol=1e-12, patience=10),
                        seed=seed)
    opt = tree_optimal_value(p, dists, 0, x0.b)
    assert max(log.lower_bounds) <= opt + 1e-9
    assert log.iterations < 200
    assert log.lower_bounds[-1] == pytest.approx(opt, abs=1e-6)
