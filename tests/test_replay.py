"""Unit tests for the replay buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.replay import ReplayBuffer, Transition

from .oracles import LegacyReplayBuffer


def make_transition(i):
    return Transition(
        state=np.array([float(i)]),
        action=i % 3,
        reward=float(i),
        next_state=np.array([float(i + 1)]),
        done=i % 5 == 0,
    )


class TestReplayBuffer:
    def test_push_and_len(self):
        buf = ReplayBuffer(10, np.random.default_rng(0))
        for i in range(5):
            buf.push(make_transition(i))
        assert len(buf) == 5

    def test_capacity_ring(self):
        buf = ReplayBuffer(3, np.random.default_rng(0))
        for i in range(7):
            buf.push(make_transition(i))
        assert len(buf) == 3
        rewards = {t.reward for t in buf._storage}
        assert rewards == {4.0, 5.0, 6.0}

    def test_sample_shapes(self):
        buf = ReplayBuffer(100, np.random.default_rng(0))
        for i in range(50):
            buf.push(make_transition(i))
        batch = buf.sample(16)
        assert batch.states.shape == (16, 1)
        assert batch.actions.shape == (16,)
        assert batch.rewards.shape == (16,)
        assert batch.next_states.shape == (16, 1)
        assert batch.dones.shape == (16,)

    def test_sample_without_replacement_when_possible(self):
        buf = ReplayBuffer(100, np.random.default_rng(0))
        for i in range(20):
            buf.push(make_transition(i))
        batch = buf.sample(20)
        assert len(set(batch.rewards.tolist())) == 20

    def test_sample_with_replacement_when_small(self):
        buf = ReplayBuffer(100, np.random.default_rng(0))
        buf.push(make_transition(0))
        batch = buf.sample(4)
        assert batch.states.shape == (4, 1)

    def test_sample_empty_raises(self):
        buf = ReplayBuffer(10, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            buf.sample(1)

    def test_invalid_batch_size(self):
        buf = ReplayBuffer(10, np.random.default_rng(0))
        buf.push(make_transition(0))
        with pytest.raises(ValueError):
            buf.sample(0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, np.random.default_rng(0))

    def test_dones_as_float(self):
        buf = ReplayBuffer(10, np.random.default_rng(0))
        buf.push(make_transition(0))  # done=True
        batch = buf.sample(1)
        assert batch.dones.dtype == np.float64
        assert batch.dones[0] == 1.0


class TestRingProperties:
    """Property tests (hypothesis) for the preallocated ring.

    The list-of-tuples oracle (``tests/oracles.py``) is the executable spec: for any
    push/sample schedule the ring must hold the same transitions in the
    same slot order and draw the same batches from the same rng stream.
    """

    @given(capacity=st.integers(1, 25), n_pushes=st.integers(0, 80))
    @settings(max_examples=60, deadline=None)
    def test_wraparound_keeps_newest_in_slot_order(self, capacity, n_pushes):
        ring = ReplayBuffer(capacity, np.random.default_rng(0))
        legacy = LegacyReplayBuffer(capacity, np.random.default_rng(0))
        for i in range(n_pushes):
            ring.push(make_transition(i))
            legacy.push(make_transition(i))
        assert [t.reward for t in ring._storage] == [
            t.reward for t in legacy._storage
        ]
        if n_pushes > capacity:
            # Every survivor is one of the newest `capacity` transitions.
            survivors = {t.reward for t in ring._storage}
            assert survivors == {float(i) for i in range(n_pushes - capacity, n_pushes)}

    @given(capacity=st.integers(1, 25), n_pushes=st.integers(0, 80))
    @settings(max_examples=60, deadline=None)
    def test_len_saturates_at_capacity(self, capacity, n_pushes):
        ring = ReplayBuffer(capacity, np.random.default_rng(0))
        for i in range(n_pushes):
            ring.push(make_transition(i))
        assert len(ring) == min(capacity, n_pushes)

    @given(
        capacity=st.integers(2, 30),
        n_pushes=st.integers(1, 60),
        batch_size=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_indices_cover_only_live_slots(
        self, capacity, n_pushes, batch_size
    ):
        ring = ReplayBuffer(capacity, np.random.default_rng(1))
        for i in range(n_pushes):
            ring.push(make_transition(i))
        batch = ring.sample(batch_size)
        live = {t.reward for t in ring._storage}
        assert set(batch.rewards.tolist()) <= live
        if batch_size <= len(ring):
            # Drawn without replacement: no slot repeats.
            assert len(set(batch.rewards.tolist())) == batch_size

    @given(
        capacity=st.integers(1, 25),
        schedule=st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 8)), max_size=8
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_rng_stream_matches_legacy(self, capacity, schedule, seed):
        """Interleaved push/sample: both buffers stay on one rng stream."""
        ring = ReplayBuffer(capacity, np.random.default_rng(seed))
        legacy = LegacyReplayBuffer(capacity, np.random.default_rng(seed))
        i = 0
        for n_push, batch_size in schedule:
            for _ in range(n_push):
                ring.push(make_transition(i))
                legacy.push(make_transition(i))
                i += 1
            a = ring.sample(batch_size)
            b = legacy.sample(batch_size)
            assert a.states.tobytes() == b.states.tobytes()
            assert a.actions.tolist() == b.actions.tolist()
            assert a.rewards.tobytes() == b.rewards.tobytes()
            assert a.next_states.tobytes() == b.next_states.tobytes()
            assert a.dones.tobytes() == b.dones.tobytes()
