"""Unit tests for action-space descriptors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.envs import Cheetah1D, GridPong, Hopper1D
from repro.rl.spaces import Box, Discrete

from .oracles import np_clip_box, np_clip_scalar, np_clip_thrust


class TestDiscrete:
    def test_sample_in_range(self):
        space = Discrete(5)
        rng = np.random.default_rng(0)
        samples = [space.sample(rng) for _ in range(100)]
        assert all(0 <= s < 5 for s in samples)
        assert len(set(samples)) > 1

    def test_contains(self):
        space = Discrete(3)
        assert space.contains(0)
        assert space.contains(np.int64(2))
        assert not space.contains(3)
        assert not space.contains(-1)
        assert not space.contains(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Discrete(0)


class TestBox:
    def test_sample_within_bounds(self):
        space = Box(dim=3, low=-2.0, high=2.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            sample = space.sample(rng)
            assert space.contains(sample)

    def test_contains_checks_shape_and_bounds(self):
        space = Box(dim=2)
        assert space.contains(np.zeros(2))
        assert not space.contains(np.zeros(3))
        assert not space.contains(np.array([0.0, 2.0]))

    def test_clip(self):
        space = Box(dim=2, low=-1.0, high=1.0)
        clipped = space.clip(np.array([5.0, -5.0]))
        np.testing.assert_array_equal(clipped, [1.0, -1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Box(dim=0)
        with pytest.raises(ValueError):
            Box(dim=1, low=1.0, high=-1.0)


# ---------------------------------------------------------------------------
# Clips without np.clip (PR 21): every replacement against the np.clip
# expression it replaced (tests/oracles.py), bit for bit.
# ---------------------------------------------------------------------------

#: Finite floats, both zeros, both infinities, NaN, denormals.
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _with_bounds(low, high):
    """Any float, biased towards the bounds, their neighbours and zeros."""
    edges = [low, high, np.nextafter(low, -np.inf), np.nextafter(low, np.inf),
             np.nextafter(high, -np.inf), np.nextafter(high, np.inf), 0.0, -0.0]
    return st.one_of(_ANY_FLOAT, st.sampled_from([float(e) for e in edges]))


class TestBoxClipEqualsNpClip:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_for_nonzero_bounds(self, data):
        low = data.draw(st.floats(-1e6, 1e6).filter(lambda v: v != 0.0))
        high = data.draw(
            st.floats(-1e6, 1e6).filter(lambda v: v != 0.0 and v > low)
        )
        space = Box(dim=3, low=low, high=high)
        action = np.array(data.draw(st.lists(_with_bounds(low, high), min_size=3, max_size=3)))
        ours, theirs = space.clip(action), np_clip_box(space, action)
        assert ours.dtype == theirs.dtype == np.float64
        assert ours.tobytes() == theirs.tobytes()

    @given(action=st.lists(_with_bounds(-1.0, 1.0), min_size=1, max_size=4),
           as_float32=st.booleans(), rows=st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_on_the_repo_boxes(self, action, as_float32, rows):
        """The default [-1, 1] box of Hopper1D / Cheetah1D, 1-D and (K, dim)."""
        space = Box(dim=len(action))
        with np.errstate(over="ignore"):  # 1e300 -> float32 inf: wanted
            arr = np.array(action, dtype=np.float32 if as_float32 else np.float64)
        if rows:
            arr = np.tile(arr, (rows, 1))
        assert space.clip(arr).tobytes() == np_clip_box(space, arr).tobytes()
        assert space.clip(arr).shape == arr.shape

    @given(action=st.lists(_with_bounds(0.0, 1.0), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_zero_bound_is_equal_up_to_the_sign_of_zero(self, action):
        """The one input where the two differ on this NumPy: a zero whose
        sign is opposite to a zero-valued bound (np.clip keeps the input's
        -0.0, maximum/minimum return the bound's +0.0).  Equal as values
        everywhere; no Box in the repo has a zero bound."""
        space = Box(dim=2, low=0.0, high=1.0)
        ours, theirs = space.clip(np.array(action)), np_clip_box(space, np.array(action))
        np.testing.assert_array_equal(ours, theirs)  # NaN == NaN, -0.0 == 0.0
        differ = ours.view(np.uint64) != theirs.view(np.uint64)
        assert not differ.any() or (ours[differ] == 0.0).all()

    def test_nan_passes_through_and_infinities_saturate(self):
        clipped = Box(dim=4).clip(np.array([np.nan, np.inf, -np.inf, -0.0]))
        assert np.isnan(clipped[0])
        assert clipped[1:].tobytes() == np.array([1.0, -1.0, -0.0]).tobytes()


class TestScalarClipSites:
    """``min(max(x, low), high)`` at the env sites that clip one float."""

    @pytest.mark.parametrize(
        "low,high",
        [(0.0, 1.0), (-0.09, 0.09), (-1.2, 1.2), (-1.0, 1.0)],
        ids=["pong-unit", "pong-deflection", "cheetah-pitch", "hopper-thrust"],
    )
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_python_min_max_is_np_clip(self, low, high, data):
        value = data.draw(_with_bounds(low, high))
        for typed in (value, np.float64(value)):
            assert _bits(min(max(float(typed), low), high)) == _bits(
                np_clip_scalar(typed, low, high)
            )

    @given(value=_with_bounds(-1.0, 1.0), form=st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_hopper_clips_the_action_it_is_handed(self, value, form):
        """Through the env itself: a raw action and the same action clipped
        first with ``np.clip`` land on the same step, bit for bit."""
        raw, pre = Hopper1D(seed=4), Hopper1D(seed=4)
        raw.reset(), pre.reset()
        raw._height = pre._height = 0.0  # in contact: thrust matters
        with np.errstate(all="ignore"):
            action = [
                lambda v: v,
                lambda v: np.float64(v),
                lambda v: np.array([v]),
                lambda v: np.array([v], dtype=np.float32),
                lambda v: [v],
                lambda v: np.array(v),
            ][form](value)
            got = raw.step(action)
            want = pre.step(np_clip_thrust(pre.action_space, action))
        assert got[0].tobytes() == want[0].tobytes()
        assert _bits(got[1]) == _bits(want[1]) and got[2:] == want[2:]

    @given(pitch=_with_bounds(-1.2, 1.2), rate=st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_cheetah_pitch(self, pitch, rate):
        env = Cheetah1D(seed=4)
        env.reset()
        env._pitch, env._pitch_rate = pitch, rate
        with np.errstate(all="ignore"):
            env.step(np.zeros(2))
        damped = (rate + env.PITCH_COUPLING * 0.0 * env.DT) * 0.9
        assert _bits(env._pitch) == _bits(
            np_clip_scalar(pitch + damped * env.DT, -1.2, 1.2)
        )

    @given(paddle=st.floats(-0.2, 1.2), action=st.integers(0, 2),
           ball_x=st.floats(-0.1, 1.1), vel_x=st.floats(-0.09, 0.09))
    @settings(max_examples=300, deadline=None)
    def test_gridpong_paddle_wall_and_deflection(self, paddle, action, ball_x, vel_x):
        env = GridPong(seed=4)
        env.reset()
        env._paddle_x = paddle
        env._ball[:] = (ball_x, 0.01)  # crosses the paddle line this step
        env._vel[:] = (vel_x, -0.05)
        env.step(action)
        want_paddle = np_clip_scalar(paddle + (action - 1) * env.PADDLE_SPEED, 0.0, 1.0)
        assert _bits(env._paddle_x) == _bits(want_paddle)
        moved = np.float64(ball_x) + np.float64(vel_x)
        bounced = moved < 0.0 or moved > 1.0
        want_ball = np_clip_scalar(moved, 0.0, 1.0) if bounced else moved
        assert _bits(env._ball[0]) == _bits(want_ball)
        want_vel = -np.float64(vel_x) if bounced else np.float64(vel_x)
        if abs(want_ball - want_paddle) <= env.PADDLE_HALF_WIDTH:
            offset = (want_ball - want_paddle) / env.PADDLE_HALF_WIDTH
            want_vel = np_clip_scalar(want_vel + 0.03 * offset, -0.09, 0.09)
        assert _bits(env._vel[0]) == _bits(want_vel)
