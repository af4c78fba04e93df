"""Property tests of the physical model on the winter system, of the tank
floors an MPC chain holds across re-solves, of the chain's rows against
simulated paths, and of SDDP's lower bound on tiny instances against the
scenario-tree optimum."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
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

from helpers import (battery_params, battery_x0, chain_labels, reference_step,
                     strided_day_config, tree_optimal_value)

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
    labels = chain_labels(CHAIN_P, t0)[0]
    tank_cols = [labels.index(("x", t, 1)) for t in range(t0 + 1, P.horizon_steps + 1)]
    d_hw = path[0]
    for move in moves:
        if data.draw(st.integers(0, 4)) == 0:  # now and then another first draw
            d_hw = data.draw(draws)
        x = dataclasses.replace(x, h=min(max(x.h + move, 0.0), P.h_max))
        chain.solve(x, (1.0, d_hw))
        floors = chain._persistent._lower[tank_cols]
        demands = np.column_stack([np.ones(CHAIN_STEPS), [d_hw, *path[1:]]])
        assert np.array_equal(floors, sequential_floors(CHAIN_P, x, demands))


# ---------------------------------------------------------------------------
# The compact chain's rows are the model's dynamics

CHAIN_DAYS = {"summer": parse_config(day_config("summer")),
              "winter": WINTER,
              "spring/2": parse_config(strided_day_config("spring", 2))}
# per channel (f_b, f_t, f_h, d_el, d_hw), where in its range each step's
# value lies: drawn, or pinned at either end
channel = st.sampled_from(["drawn", "low", "high"])


@pytest.mark.parametrize("day", CHAIN_DAYS)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       channels=st.lists(channel, min_size=5, max_size=5))
def test_compact_rows_hold_on_a_simulated_path(day, data, seed, channels):
    # a path rolled through the model, written into the chain's columns
    # (the indoor temperature as theta_set - dcomf + s), meets every
    # equality row of the template and of a chain at a random t0: a slip in
    # a recurrence coefficient or an index leaves a residual
    cfg = CHAIN_DAYS[day]
    p = cfg.system
    T, delta = p.horizon_steps, p.delta
    fracs = np.random.default_rng(seed).uniform(size=(T, 5))
    for k, where in enumerate(channels):
        if where != "drawn":
            fracs[:, k] = float(where == "high")
    x = State(b=p.b_min + data.draw(unit) * (p.b_max - p.b_min), h=data.draw(unit) * p.h_max,
              theta_w=data.draw(st.floats(5.0, 35.0)), theta_i=data.draw(st.floats(5.0, 35.0)))
    traj, controls, path = [x], [], np.zeros((T, 2))
    for t in range(T):
        box = admissible_controls(x, p)
        u = Control(box.f_b_min + fracs[t, 0] * (box.f_b_max - box.f_b_min),
                    fracs[t, 1] * box.f_t_max, fracs[t, 2] * box.f_h_max)
        # a draw the tank can meet, so every state stays in bounds
        d_hw = fracs[t, 4] * min(cfg.generator.d_hw_cap, x.h / delta + p.beta_h * u.f_h)
        path[t] = 10.0 * fracs[t, 3] - 5.0, d_hw
        x = reference_step(t, x, u, Uncertainty(*path[t]), p)
        traj.append(x)
        controls.append(u)
    # the template's columns and the chain's, labelled by absolute step
    values = {("zb",): 0.0, ("zh",): 0.0}
    for t, u in enumerate(controls):
        net = u.f_b + u.f_t + u.f_h + path[t, 0]
        for j, v in enumerate((max(0.0, u.f_b), max(0.0, -u.f_b), u.f_t, u.f_h,
                               max(0.0, net), max(0.0, -net))):
            values[("u", t, j)] = v
    for t, x in enumerate(traj):
        gap = p.theta_set[t] - x.theta_i
        for i, v in enumerate((x.b, x.h, max(0.0, gap), max(0.0, -gap))):
            values[("x", t, i)] = v
    template = ChainTemplate(p, cfg.initial_state, path)
    indptr, indices, vals = template.rows
    a = sp.csr_matrix((vals, indices, indptr), shape=(4 * T + 1, 10 * T))[:4 * T - 1]
    z = np.array([values[label] for label in chain_labels(p, 0)[0]])
    # rows 0-7 hold x_0's terms only in a chain's per-solve rhs
    assert np.abs(a @ z - template.b_eq)[8:].max() < 1e-9
    t0 = data.draw(st.integers(0, T - 1))
    chain = DeterministicChain(template, t0)
    chain.solve(traj[t0], path[t0].tolist())
    indptr, indices, vals = chain._rows
    n_eq = 4 * chain.ns - 1
    a = sp.csr_matrix((vals, indices, indptr), shape=(n_eq + 2, chain.c.size))[:n_eq]
    z = np.array([values[label] for label in chain_labels(p, t0)[0]])
    assert np.abs(a @ z - chain._persistent._rhs).max() < 1e-9


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
