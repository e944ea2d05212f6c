"""The host-level aggregation rules of the baselines (``core.baselines``):
the rank-order round sum, the ring / halving-doubling schedules and the
async-PS apply order, each checked on its own and through the simulator
that drives it (the live drivers are checked in ``test_live_conformance``).
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core.baselines import (
    RankCyclicOrder,
    RoundSums,
    hd_schedule,
    ring_schedule,
)
from repro.distributed.sync import SyncStrategy

from .helpers import built_clusters, train

#: float32 values whose float64 sum depends on the order: rank order
#: (1e30 − 1e30) + 1 is 1, while 1 + 1e30 − 1e30 is 0.
ORDER_SENSITIVE = [1e30, -1e30, 1.0]


# ---------------------------------------------------------------------------
# The round sum
# ---------------------------------------------------------------------------
class TestRoundSums:
    def vectors(self):
        return [np.full(3, value, dtype=np.float32) for value in ORDER_SENSITIVE]

    def test_sum_is_rank_order_whatever_the_add_order(self):
        vectors = self.vectors()
        arrival = [np.float64(vectors[r][0]) for r in (2, 0, 1)]
        assert arrival[0] + arrival[1] + arrival[2] == 0.0  # arrival order
        sums = RoundSums(3)
        assert sums.add(7, 2, vectors[2]) is None
        assert sums.add(7, 0, vectors[0]) is None
        total = sums.add(7, 1, vectors[1])
        assert total.dtype == np.float64
        np.testing.assert_array_equal(total, [1.0, 1.0, 1.0])
        assert sums.results[7] is total and sums.pending == {}

    def test_zero_sum_is_positive_zero(self):
        sums = RoundSums(2)
        sums.add(0, 0, np.array([-0.0], dtype=np.float32))
        total = sums.add(0, 1, np.array([-0.0], dtype=np.float32))
        assert not np.signbit(total[0])  # summed from +0.0

    def test_repeats_and_late_contributions_are_dropped_and_counted(self):
        counters = {"duplicates_dropped": 0}
        sums = RoundSums(2, counters)
        one = np.ones(2, dtype=np.float32)
        assert sums.add("k", 0, one) is None
        assert sums.add("k", 0, 5 * one) is None  # the same rank again
        assert counters["duplicates_dropped"] == 1
        np.testing.assert_array_equal(sums.add("k", 1, one), [2.0, 2.0])
        assert sums.add("k", 1, one) is None  # the key is summed already
        assert sums.add("k", 0, one) is None
        assert counters["duplicates_dropped"] == 3
        assert sums.pending == {}

    def test_results_stay_until_released(self):
        sums = RoundSums(1)
        sums.add((0, 0), 0, np.ones(1, dtype=np.float32))
        sums.add((1, 0), 0, np.ones(1, dtype=np.float32))
        sums.release((0, 0))
        assert list(sums.results) == [(1, 0)]
        sums.release((5, 5))  # unknown: a no-op
        assert list(sums.results) == [(1, 0)]


class TestSimulatedRoundsSumInRankOrder:
    """The simulator's host-level fold is the store's: a ps round whose
    workers finish their LGCs out of rank order still sums in rank order."""

    @pytest.mark.parametrize("strategy", ["ps", "ar", "ar-hd", "ps-shard"])
    def test_lgcs_finishing_in_reverse_rank_order(self, strategy):
        n = 4
        values = ORDER_SENSITIVE + [0.0]
        recorded, updates = [], []

        def prepare(net, workers):
            for worker in workers:
                # Rank 3 finishes its LGC first, rank 0 last.
                worker.compute.slowdown = float(n - worker.index)
                vector = np.full(
                    worker.algorithm.get_weights().size,
                    values[worker.index],
                    dtype=np.float32,
                )
                worker.algorithm.compute_gradient = lambda v=vector: v.copy()
                if worker.index == 0:
                    worker.algorithm.apply_update = updates.append

        def record(self, worker, gradient, iteration):
            recorded.append(worker.index)
            inner(self, worker, gradient, iteration)

        inner = SyncStrategy._record_gradient
        with built_clusters(prepare), pytest.MonkeyPatch.context() as patch:
            patch.setattr(SyncStrategy, "_record_gradient", record)
            train(strategy, "synth", n_workers=n, iterations=1, seed=7)
        assert recorded == [3, 2, 1, 0]
        # Rank order: (1e30 − 1e30) + 1 + 0 = 1; recording order gives 0.
        (update,) = updates
        np.testing.assert_array_equal(update, np.full(update.size, 1.0 / n))


# ---------------------------------------------------------------------------
# The exchange schedules
# ---------------------------------------------------------------------------
SCHEDULES = [(ring_schedule, n) for n in range(2, 10)] + [
    (hd_schedule, n) for n in (2, 4, 8)
]


def _ids(case):
    schedule, n = case
    return f"{schedule.__name__}-{n}"


@pytest.mark.parametrize("case", SCHEDULES, ids=_ids)
class TestSchedules:
    def tables(self, case):
        schedule, n = case
        return [schedule(n, rank) for rank in range(n)]

    def test_step_count(self, case):
        schedule, n = case
        steps = 2 * (n - 1) if schedule is ring_schedule else 2 * (n.bit_length() - 1)
        for table in self.tables(case):
            assert len(table) == steps
            assert [(row.phase, row.step) for row in table] == [
                (phase, step) for phase in (0, 1) for step in range(steps // 2)
            ]
        if schedule is ring_schedule:
            assert 2 * len(table) == 4 * n - 4  # hops: two per step

    def test_every_send_meets_its_receive(self, case):
        tables = self.tables(case)
        for rank, table in enumerate(tables):
            for row in table:
                (peer_row,) = [
                    r for r in tables[row.send_to]
                    if (r.phase, r.step) == (row.phase, row.step)
                ]
                assert peer_row.recv_from == rank
                assert peer_row.recv == row.send
                assert row.send_to != rank

    def test_replay_leaves_every_rank_every_contribution(self, case):
        _, n = case
        tables = self.tables(case)
        # Each rank starts holding its own contribution in every block.
        held = [[frozenset({rank}) for _ in range(n)] for rank in range(n)]
        for index in range(len(tables[0])):
            sent = [
                (table[index], held[rank][slice(*table[index].send)])
                for rank, table in enumerate(tables)
            ]
            for row, blocks in sent:
                target = held[row.send_to]
                (mine,) = [r for r in tables[row.send_to] if r[:2] == row[:2]]
                for offset, block in enumerate(range(*mine.recv)):
                    if row.phase == 0:
                        # A reduction never adds a contribution twice.
                        assert not target[block] & blocks[offset]
                        target[block] = target[block] | blocks[offset]
                    else:
                        target[block] = blocks[offset]
        everyone = frozenset(range(n))
        assert all(block == everyone for blocks in held for block in blocks)


def test_halving_doubling_needs_a_power_of_two():
    with pytest.raises(ValueError, match="power-of-two"):
        hd_schedule(6, 0)
    with pytest.raises(ValueError, match=">= 2 workers"):
        ring_schedule(1, 0)


# ---------------------------------------------------------------------------
# The async-PS apply order
# ---------------------------------------------------------------------------
class TestRankCyclicOrder:
    def test_drains_in_turn_order_whatever_the_arrival_order(self):
        order = RankCyclicOrder(3)
        order.offer(0, 2, "c")
        order.offer(1, 0, "d")
        assert list(order.drain()) == []  # (0, 0) has not arrived
        order.offer(0, 0, "a")
        assert list(order.drain()) == [(0, 0, "a")]
        order.offer(0, 1, "b")
        assert list(order.drain()) == [(0, 1, "b"), (0, 2, "c"), (1, 0, "d")]
        assert order.applied == 4 and order.buffered == {}

    def test_refuses_what_was_applied_or_is_buffered(self):
        order = RankCyclicOrder(2)
        order.offer(0, 0, "first")
        list(order.drain())
        assert not order.wants(0, 0)
        order.offer(0, 0, "again")  # applied already
        order.offer(1, 1, "early")
        order.offer(1, 1, "twice")  # buffered already
        assert order.buffered == {(1, 1): "early"}
        assert order.wants(0, 1) and order.wants(2, 0)


def test_async_ps_paced_run_applies_in_rank_cyclic_order():
    from repro.distributed.asynchronous import AsyncParameterServer

    drained = []
    inner = RankCyclicOrder.drain

    def spy(self):
        for due in inner(self):
            drained.append(due[:2])
            yield due

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RankCyclicOrder, "drain", spy)
        result = train(
            "ps", "synth", mode="async", n_workers=3, iterations=4, seed=2,
            deterministic_aggregation=True,
        )
    assert result.strategy == AsyncParameterServer.name
    assert drained == [divmod(k, 3) for k in range(12)]


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------
SRC = Path(__file__).parents[1] / "src/repro"


class TestStructure:
    def test_rules_module_is_wire_free(self):
        """The rules import no simulator, no live backend, no socket and
        no clock."""
        import repro.core.baselines as module

        imported = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        banned = {"netsim", "live", "socket", "time"}
        for name in imported:
            assert not set(name.lstrip(".").split(".")) & banned, name

    @pytest.mark.parametrize(
        "rule, drivers",
        [
            ("RoundSums(", ["distributed/sync.py", "live/ps.py"]),
            ("RankCyclicOrder(", ["distributed/asynchronous.py", "live/async_ps.py"]),
            ("hd_schedule", ["distributed/collectives/ring.py", "live/collective.py"]),
            ("ring_schedule", ["distributed/collectives/ring.py", "live/collective.py"]),
        ],
    )
    def test_both_backends_drive_each_rule(self, rule, drivers):
        for driver in drivers:
            assert rule in (SRC / driver).read_text(), driver

    def test_no_backend_keeps_a_rule_of_its_own(self):
        for driver, owned in [
            ("distributed/sync.py", ["_round_gradients"]),
            ("live/ps.py", ["_contribs", "_results", "_newest", "total +="]),
            ("live/collective.py", ["^ (1 <<", "% n", "bit_length"]),
            ("distributed/collectives/ring.py", ["^ (1 <<", "% n_workers"]),
            ("distributed/asynchronous.py", ["divmod(", "_pending"]),
            ("live/async_ps.py", ["divmod(", "_ready", "* self.n_workers"]),
        ]:
            source = (SRC / driver).read_text()
            for text in owned:
                assert text not in source, (driver, text)
