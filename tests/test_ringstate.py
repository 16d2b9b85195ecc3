"""Multi-block states: conservation of block weights and agreement of
the blockwise and assembled evolution routes."""

import math
import warnings

import numpy as np
import pytest

from geomphase import (
    RingState,
    StaticRingBlock,
    assembled_evolve,
    blockwise_evolve,
    circular_distance,
    evolve,
)

RT = 1 / math.sqrt(2)


def two_block_setup(cone=math.pi / 6):
    models = {n: StaticRingBlock(n=n, cone=cone) for n in (0, 1)}
    state = RingState({
        0: RT * models[0].state("+"),
        1: RT * models[1].state("+"),
    })
    return models, state


def test_ring_state_validation():
    with pytest.raises(ValueError):
        RingState({})
    with pytest.raises(ValueError):
        RingState({0: np.array([1.0, 0.0, 0.0])})
    with pytest.raises(ValueError):
        RingState({0: np.array([1.0, 1.0])})


def test_ring_state_refuses_nan_amplitude():
    # a NaN weight compares false with any bound, so the guard must not
    # read "weight off by more than the bound"
    with pytest.raises(ValueError, match="total weight"):
        RingState({0: [math.nan, 0.0]})
    with pytest.raises(ValueError, match="total weight"):
        RingState({0: RT * np.array([1.0, 0.0]), 1: [0.0, math.nan]})


@pytest.mark.parametrize("route", [blockwise_evolve, assembled_evolve])
def test_empty_block_refused_before_either_route(route):
    # blockwise_evolve would divide by the zero norm and assembled_evolve
    # would report an undefined phase of 0.0; the state itself refuses
    models, _ = two_block_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="block 1 must carry weight > 0"):
            route(models, RingState({0: models[0].state("+"), 1: [0.0, 0.0]}),
                  steps=64)


def test_ring_state_accessors():
    s = RingState({2: [0.6, 0.0], 0: [0.0, 0.8]})
    assert s.occupied == (0, 2)
    assert abs(s.weight(2) - 0.36) < 1e-15
    assert abs(sum(s.weights().values()) - 1.0) < 1e-15
    v = s.as_vector()
    assert v.shape == (4,)
    assert np.allclose(v, [0.0, 0.8, 0.6, 0.0])


def test_blockwise_requires_models():
    models, state = two_block_setup()
    with pytest.raises(ValueError):
        blockwise_evolve({0: models[0]}, state)


def test_missing_block_model_refused_alike_by_either_route():
    # both routes take the occupied blocks and their window from one
    # place; the assembled route once raised a bare KeyError: 0
    models, state = two_block_setup()
    messages = []
    for route in (blockwise_evolve, assembled_evolve):
        with pytest.raises(ValueError) as exc:
            route({1: models[1]}, state, steps=64)
        messages.append(str(exc.value))
    assert messages == ["no model supplied for blocks [0]"] * 2


def test_blockwise_phases_match_single_runs():
    models, state = two_block_setup()
    ev = blockwise_evolve(models, state, steps=1024)
    assert ev.weights.keys() == {0, 1}
    assert all(abs(w - 0.5) < 1e-14 for w in ev.weights.values())
    phases = ev.phases()
    # each block run from its own eigenstate must agree with a dedicated
    # single-block run over the same window
    for n in (0, 1):
        states = evolve(models[n].hamiltonian, models[n].state("+"), steps=1024,
                        duration=ev.duration).states
        single = float(np.angle(np.vdot(states[0], states[-1])))
        assert circular_distance(phases[n], single) < 1e-12


def test_assembled_matches_blockwise():
    models, state = two_block_setup()
    ev = blockwise_evolve(models, state, steps=1024)
    _traj, drift, phases = assembled_evolve(models, state, steps=1024)
    assert drift < 1e-10
    for n in (0, 1):
        assert circular_distance(phases[n], ev.phases()[n]) < 1e-10


def test_assembled_weights_conserved_uneven_split():
    models, _ = two_block_setup()
    amp0 = math.sqrt(0.2)
    amp1 = math.sqrt(0.8)
    state = RingState({
        0: amp0 * models[0].state("-"),
        1: amp1 * models[1].state("+"),
    })
    _traj, drift, _phases = assembled_evolve(models, state, steps=1024)
    assert drift < 1e-10
