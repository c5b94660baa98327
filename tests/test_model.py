import struct

import pytest
from hypothesis import example, given, strategies as st

from coopsim import (
    ModelParams,
    PowerSet,
    UnstableChainError,
    update_virtual_queue,
)
from spec import step_pu_queue, step_su_queue


def test_step_pu_queue_examples():
    assert step_pu_queue(3, True, 1) == 3
    assert step_pu_queue(0, False, 1) == 1
    assert step_pu_queue(1, True, 0) == 0


def test_step_su_queue_examples():
    assert step_su_queue(5, 1, 0) == 4
    assert step_su_queue(0, 1, 2) == 2
    assert step_su_queue(10, 0, 1) == 11


def test_update_virtual_queue_examples():
    assert update_virtual_queue(0.0, 10, 5.0, 0.5) == 0.0
    assert update_virtual_queue(2.0, 4, 4.0, 0.5) == 4.0
    assert update_virtual_queue(1.0, 10, 2.0, 0.5) == 0.0


@given(
    q=st.integers(min_value=0, max_value=10**6),
    success=st.booleans(),
    arrival=st.integers(min_value=0, max_value=5),
)
def test_pu_queue_never_negative(q, success, arrival):
    assert step_pu_queue(q, success, arrival) >= 0


@given(
    q=st.integers(min_value=0, max_value=10**6),
    served=st.integers(min_value=0, max_value=1),
    admitted=st.integers(min_value=0, max_value=8),
)
def test_su_queue_never_negative(q, served, admitted):
    assert step_su_queue(q, served, admitted) >= 0


@given(
    x=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    frame_len=st.integers(min_value=1, max_value=1000),
    power=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    p_avg=st.floats(min_value=0.01, max_value=10, allow_nan=False),
)
def test_virtual_queue_lower_bound(x, frame_len, power, p_avg):
    out = update_virtual_queue(x, frame_len, power, p_avg)
    assert out >= 0.0
    assert out >= x + power - frame_len * p_avg - 1e-9
    if power <= frame_len * p_avg - x:
        assert out == 0.0


@given(x=st.floats(), frame_len=st.integers(min_value=0, max_value=10**6),
       power=st.floats(), p_avg=st.floats())
@example(x=-0.0, frame_len=0, power=-0.0, p_avg=0.0)       # x - n * p_avg + power is -0.0
@example(x=0.0, frame_len=3, power=0.0, p_avg=0.0)
@example(x=float("nan"), frame_len=1, power=0.0, p_avg=0.5)
@example(x=float("inf"), frame_len=1, power=0.0, p_avg=0.5)
@example(x=float("-inf"), frame_len=1, power=1.0, p_avg=0.5)
@example(x=float("inf"), frame_len=1, power=float("-inf"), p_avg=0.5)   # nan
@example(x=5e-324, frame_len=0, power=0.0, p_avg=1.0)       # subnormal
@example(x=-5e-324, frame_len=0, power=0.0, p_avg=1.0)
@example(x=2.2250738585072014e-308, frame_len=1, power=0.0, p_avg=1e-308)
def test_update_virtual_queue_is_max_bit_for_bit(x, frame_len, power, p_avg):
    # the clamp returns the very float max(., 0.0) returns, sign of zero and nan included
    got = update_virtual_queue(x, frame_len, power, p_avg)
    want = max(x - frame_len * p_avg + power, 0.0)
    assert struct.pack("<d", got) == struct.pack("<d", want)


@given(
    q0=st.integers(min_value=0, max_value=50),
    trace=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=40,
    ),
)
def test_frame_aggregate_backlog_bound(q0, trace):
    # Slot-by-slot evolution never exceeds the frame-aggregated recursion:
    # q_end <= max(q0 - total service, 0) + total admitted.
    q = q0
    for served, admitted in trace:
        q = step_su_queue(q, served, admitted)
    total_served = sum(s for s, _ in trace)
    total_admitted = sum(a for _, a in trace)
    assert q <= max(q0 - total_served, 0) + total_admitted


def test_power_set_invariants():
    ps = PowerSet.make_two_point(1.0)
    assert ps.levels == (0.0, 1.0) and ps.two_point and ps.p_max == 1.0
    grid = PowerSet.make_grid([0.0, 0.25, 0.5, 1.0])
    assert grid.levels[0] == 0.0 and not grid.two_point
    with pytest.raises(ValueError):
        PowerSet(levels=(0.5, 1.0))        # missing zero
    with pytest.raises(ValueError):
        PowerSet(levels=(0.0, 0.5, 0.5))   # not strictly increasing


@pytest.mark.parametrize("build", [
    lambda: PowerSet.make_two_point(float("inf")),
    lambda: PowerSet.make_two_point(float("nan")),
    lambda: PowerSet.make_grid([0.0, 0.5, float("inf")]),
], ids=["inf", "nan", "inf_grid"])
def test_power_set_refuses_non_finite_levels(build):
    with pytest.raises(ValueError, match="power levels must be finite"):
        build()


def test_model_params_validation():
    good = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5)
    assert good.phi_nc == 0.6 and good.phi_c == 0.8 and good.mu_max == 1.0
    with pytest.raises(UnstableChainError, match="unstable primary queue"):
        ModelParams.two_point(0.7, 0.5, 0.6, 0.8, 0.5)
    # a_max is checked before the lambda_su range, whose message also names it
    with pytest.raises(ValueError, match="^a_max must be at least 1$"):
        ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5, a_max=0)
    with pytest.raises(ValueError):
        ModelParams.two_point(0.5, 0.5, 0.6, 0.8, p_avg=0.0)
    with pytest.raises(ValueError):
        ModelParams.two_point(0.5, 0.5, 0.8, 0.6, 0.5)   # phi decreasing
    # degenerate but allowed: primary never arrives
    quiet = ModelParams.two_point(0.0, 0.5, 0.6, 0.8, 0.5)
    assert quiet.lambda_pu == 0.0
