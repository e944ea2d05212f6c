"""Unit tests for optimizers."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Parameter, RMSProp


def quadratic_steps(optimizer_factory, steps=200):
    """Minimize f(x) = (x - 3)^2 from x = 0; return final x."""
    param = Parameter(np.array([0.0]))
    optimizer = optimizer_factory([param])
    for _ in range(steps):
        param.grad = 2.0 * (param.data - 3.0)
        optimizer.step()
    return float(param.data[0])


class TestSGD:
    def test_single_step(self):
        param = Parameter(np.array([1.0]))
        SGD([param], lr=0.1).step_if_grad = None
        optimizer = SGD([param], lr=0.1)
        param.grad = np.array([2.0])
        optimizer.step()
        assert param.data[0] == pytest.approx(0.8)

    def test_converges_on_quadratic(self):
        final = quadratic_steps(lambda p: SGD(p, lr=0.1))
        assert final == pytest.approx(3.0, abs=1e-4)

    def test_momentum_accelerates(self):
        slow = quadratic_steps(lambda p: SGD(p, lr=0.01), steps=50)
        fast = quadratic_steps(lambda p: SGD(p, lr=0.01, momentum=0.9), steps=50)
        assert abs(fast - 3.0) < abs(slow - 3.0)

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.0)

    def test_params_without_grad_skipped(self):
        param = Parameter(np.array([1.0]))
        optimizer = SGD([param], lr=0.1)
        optimizer.step()  # no grad — no movement, no crash
        assert param.data[0] == 1.0


class TestAdam:
    def test_converges_on_quadratic(self):
        final = quadratic_steps(lambda p: Adam(p, lr=0.1), steps=500)
        assert final == pytest.approx(3.0, abs=1e-3)

    def test_first_step_size_is_lr(self):
        # With bias correction, |Δx| of the first step equals lr.
        param = Parameter(np.array([0.0]))
        optimizer = Adam([param], lr=0.05)
        param.grad = np.array([123.0])
        optimizer.step()
        assert abs(param.data[0]) == pytest.approx(0.05, rel=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.999))

    def test_state_is_per_parameter(self):
        a = Parameter(np.array([0.0]))
        b = Parameter(np.array([0.0]))
        optimizer = Adam([a, b], lr=0.1)
        a.grad = np.array([1.0])
        b.grad = np.array([-1.0])
        optimizer.step()
        assert a.data[0] < 0 < b.data[0]


class TestRMSProp:
    def test_converges_on_quadratic(self):
        final = quadratic_steps(lambda p: RMSProp(p, lr=0.05), steps=500)
        assert final == pytest.approx(3.0, abs=1e-2)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            RMSProp([Parameter(np.zeros(1))], alpha=1.0)


class TestCommon:
    def test_positive_lr_required(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_zero_grad(self):
        param = Parameter(np.array([1.0]))
        optimizer = SGD([param], lr=0.1)
        param.grad = np.array([1.0])
        optimizer.zero_grad()
        assert param.grad is None

    def test_identical_update_sequences_identical_weights(self):
        """The determinism contract decentralized weight storage needs."""
        runs = []
        for _ in range(2):
            param = Parameter(np.full(4, 0.5))
            optimizer = Adam([param], lr=0.01)
            for step in range(20):
                param.grad = np.full(4, np.sin(step))
                optimizer.step()
            runs.append(param.data.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    @pytest.mark.parametrize(
        "factory",
        [
            lambda p: SGD(p, lr=0.1),
            lambda p: SGD(p, lr=0.1, momentum=0.9),
            lambda p: Adam(p, lr=0.01),
            lambda p: RMSProp(p, lr=0.01),
        ],
        ids=["sgd", "sgd-momentum", "adam", "rmsprop"],
    )
    def test_step_flat_only_reads_its_gradient(self, factory):
        """The strategies hand every replica the same read-only update
        (``Algorithm.apply_update`` takes it without a copy)."""
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(6)
        frozen = flat.copy()
        frozen.flags.writeable = False
        stepped = []
        for gradient in (flat, frozen):
            params = [Parameter(np.full((2, 2), 0.5)), Parameter(np.zeros(2))]
            optimizer = factory(params)
            for _ in range(3):
                optimizer.step_flat(gradient)
            stepped.append(np.concatenate([p.data.ravel() for p in params]))
        assert frozen.tobytes() == flat.tobytes()
        assert stepped[0].tobytes() == stepped[1].tobytes()
