"""Test-only reference implementations (oracles) for the compute tier.

These are the straightforward versions of what ``src/`` implements with
preallocated rings, fused in-place math and closed-form gradient kernels:
a list-of-tuples replay buffer, textbook per-parameter optimizer steps,
the autograd-tape gradients of A2C, PPO and DDPG, and (from PR 21) the
per-step primitives of acting: the layer-by-layer forward walks,
``np.clip`` at every site that now clips with min/max, ``Generator.choice``
as A2C's sampler, the three ``act`` bodies and the int32-bs mantissa;
and the scalar rollout loops of DQN, A2C, PPO and DDPG, which stepped a
bare env before every algorithm rolled out through one ``VectorEnv``
(``install_scalar_rollout``).
They used to live in ``src/`` as the "legacy" compute path (the tape tails
were the algorithms' own ``compute_gradient`` until PR 19); the
differential suites (``test_compute_parity.py``, ``test_replay.py``,
``test_spaces.py``, ``test_compression.py``) pin the production code
bit-for-bit against them.
"""

from functools import partial

import numpy as np

from repro.nn import Tensor, entropy_from_logits, fused_mse_loss, nll_from_logits
from repro.nn.layers import Activation, Linear
from repro.rl import A2C, DDPG, DQN, PPO
from repro.rl.a2c import sample_index
from repro.rl.ddpg import OUNoise
from repro.rl.replay import Batch, Transition


class LegacyReplayBuffer:
    """A list of NamedTuples with Python-loop stacking on ``sample``."""

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rng = rng
        self._storage: list = []
        self._cursor = 0

    def push(self, transition: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int) -> Batch:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not self._storage:
            raise ValueError("cannot sample from an empty replay buffer")
        replace = batch_size > len(self._storage)
        indices = self.rng.choice(len(self._storage), size=batch_size, replace=replace)
        transitions = [self._storage[i] for i in indices]
        return Batch(
            states=np.stack([t.state for t in transitions]),
            actions=np.asarray([t.action for t in transitions]),
            rewards=np.asarray([t.reward for t in transitions], dtype=np.float64),
            next_states=np.stack([t.next_state for t in transitions]),
            dones=np.asarray([t.done for t in transitions], dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self._storage)


class _ReferenceOptimizer:
    """Steps each parameter that has a ``.grad``, keeping state per parameter."""

    def __init__(self, params, lr: float) -> None:
        self.params = list(params)
        self.lr = lr
        self._state: dict = {}

    def _grads(self):
        for param in self.params:
            if param.grad is not None:
                yield param, param.grad

    def _zeros(self, name: str, param) -> np.ndarray:
        return self._state.get((name, id(param)), np.zeros_like(param.data))


class ReferenceSGD(_ReferenceOptimizer):
    def __init__(self, params, lr: float, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = momentum

    def step(self) -> None:
        for param, grad in self._grads():
            update = grad
            if self.momentum:
                update = self.momentum * self._zeros("velocity", param) + grad
                self._state["velocity", id(param)] = update
            param.data -= self.lr * update


class ReferenceAdam(_ReferenceOptimizer):
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad in self._grads():
            m = self.beta1 * self._zeros("m", param) + (1.0 - self.beta1) * grad
            v = self.beta2 * self._zeros("v", param) + (1.0 - self.beta2) * grad**2
            self._state["m", id(param)], self._state["v", id(param)] = m, v
            param.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


class ReferenceRMSProp(_ReferenceOptimizer):
    def __init__(self, params, lr=1e-3, alpha=0.99, eps=1e-8) -> None:
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps

    def step(self) -> None:
        for param, grad in self._grads():
            sq = self.alpha * self._zeros("sq", param) + (1.0 - self.alpha) * grad**2
            self._state["sq", id(param)] = sq
            param.data -= self.lr * grad / (np.sqrt(sq) + self.eps)


def reference_adam_step_flat(self, flat_grad) -> None:
    """Drop-in for ``Adam.step_flat`` (monkeypatch it in): scatter the flat
    gradient into the ``.grad`` slots and take the per-parameter oracle step,
    so a whole training run executes on the reference optimizer math."""
    oracle = vars(self).get("_oracle")
    if oracle is None:
        oracle = self._oracle = ReferenceAdam(
            self.params, lr=self.lr, betas=(self.beta1, self.beta2), eps=self.eps
        )
    offset = 0
    for param in self.params:
        chunk = flat_grad[offset : offset + param.data.size]
        param.grad = np.asarray(chunk, dtype=np.float64).reshape(param.data.shape)
        offset += param.data.size
    oracle.step()


# ---------------------------------------------------------------------------
# Autograd-tape gradients: the graph-building tails A2C / PPO / DDPG trained
# through before the closed-form kernels (``repro.nn.functional.fused_*_grad``),
# lifted verbatim.  Each leaves the gradients in the container's ``.grad``
# slots and returns the loss value(s) as 0-d arrays.
# ---------------------------------------------------------------------------


def tape_a2c_gradient(
    container, states, actions, returns, value_coef, entropy_coef
) -> np.ndarray:
    """``A2C.compute_gradient``'s tail over an ``ActorCritic`` container."""
    container.zero_grad()
    values = container.value(Tensor(states)).reshape(-1)
    advantages = returns - values.numpy()  # stop-gradient advantage
    logits = container.policy(Tensor(states))
    pg_loss = (nll_from_logits(logits, actions) * Tensor(advantages)).mean()
    value_loss = fused_mse_loss(values, returns)
    entropy = entropy_from_logits(logits)
    loss = pg_loss + value_coef * value_loss - entropy_coef * entropy
    loss.backward()
    return loss.numpy()


def tape_ppo_gradient(
    container,
    states,
    actions,
    old_log_probs,
    advantages,
    returns,
    clip_epsilon,
    value_coef,
    entropy_coef,
) -> np.ndarray:
    """``PPO._surrogate_gradient`` over a ``GaussianActorCritic`` container."""
    states = np.asarray(states)
    container.zero_grad()
    log_probs = container.log_prob(Tensor(states), actions)
    ratio = (log_probs - Tensor(old_log_probs)).exp()
    adv = Tensor(advantages)
    unclipped = ratio * adv
    clipped = ratio.clip(1.0 - clip_epsilon, 1.0 + clip_epsilon) * adv
    # min(a, b) without a dedicated minimum op, by the standard identity
    # min(a, b) = 0.5*(a + b - |a - b|).
    surrogate = 0.5 * (unclipped + clipped - (unclipped - clipped).abs())
    policy_loss = -surrogate.mean()
    value_loss = fused_mse_loss(container.value(Tensor(states)).reshape(-1), returns)
    loss = policy_loss + value_coef * value_loss
    if entropy_coef:
        loss = loss - entropy_coef * container.entropy()
    loss.backward()
    return loss.numpy()


def tape_ddpg_gradient(container, states, actions, targets) -> tuple:
    """``DDPG.compute_gradient``'s tail over an ``ActorCriticPair``:
    critic pass, actor pass, then the critic slots restored."""
    states = Tensor(states)
    actions = Tensor(actions.astype(np.float64))

    # Critic gradient.
    container.zero_grad()
    critic_loss = fused_mse_loss(container.q_value(states, actions), targets)
    critic_loss.backward()
    critic_grads = {
        id(p): p.grad.copy()
        for p in container.critic.parameters()
        if p.grad is not None
    }

    # Actor gradient: maximize Q(s, π(s)); the chain rule pushes
    # gradients into the critic too, but DDPG only applies the actor's
    # share, so the critic slots are restored afterwards.
    container.zero_grad()
    actor_actions = container.actor(states)
    actor_loss = -container.q_value(states, actor_actions).mean()
    actor_loss.backward()
    for param in container.critic.parameters():
        param.grad = critic_grads.get(id(param))
    return critic_loss.numpy(), actor_loss.numpy()


# ---------------------------------------------------------------------------
# The per-step primitives of acting as they were before PR 21 compiled the
# forward walk and replaced np.clip / Generator.choice with exact equivalents.
# ---------------------------------------------------------------------------


def layerwise_infer(net, x) -> np.ndarray:
    """``Sequential.infer`` as a chain of per-layer ``infer`` calls found
    by ``getattr`` — one cast, then every child's own forward."""
    out = np.asarray(x, dtype=np.float64)
    for name in net._order:
        out = getattr(net, name).infer(out)
    return out


def isinstance_mlp_forward(net, x) -> tuple:
    """``mlp_forward`` as an ``isinstance`` chain over the children; returns
    the output and the per-layer caches (a Linear's input, the relu mask,
    the tanh/sigmoid output)."""
    x = np.asarray(x, dtype=np.float64)
    caches = []
    for layer in net:
        if isinstance(layer, Linear):
            caches.append(x)
            x = x @ layer.weight.data
            if layer.bias is not None:
                x = x + layer.bias.data
        elif isinstance(layer, Activation):
            if layer.kind == "relu":
                act_mask = x > 0
                x = x * act_mask
                caches.append(act_mask)
            elif layer.kind == "tanh":
                x = np.tanh(x)
                caches.append(x)
            else:
                x = 1.0 / (1.0 + np.exp(-x))
                caches.append(x)
        else:
            raise TypeError(
                f"mlp_forward supports Linear/Activation only, got {layer!r}"
            )
    return x, caches


def np_clip_box(space, action) -> np.ndarray:
    """``Box.clip`` through ``np.clip``."""
    return np.clip(np.asarray(action, dtype=np.float64), space.low, space.high)


def np_clip_scalar(value, low: float, high: float) -> float:
    """The scalar env sites (GridPong x3, Cheetah1D's pitch) through ``np.clip``."""
    return float(np.clip(value, low, high))


def np_clip_thrust(space, action) -> float:
    """``Hopper1D._step``'s clip of the action it is handed."""
    return float(np_clip_box(space, np.atleast_1d(action))[0])


def choice_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    """A2C's action draw through ``Generator.choice``."""
    return int(rng.choice(len(probs), p=probs))


def a2c_act(algo, obs, draw=choice_index) -> int:
    """A2C's act for one observation: softmax the logits, ``draw`` an index
    (the scalar rollout draws with ``sample_index``)."""
    logits = algo.container.policy.infer(obs[None, :])[0]
    logits = logits - logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return draw(algo.rng, probs)


def ppo_act(algo, obs) -> np.ndarray:
    mean = algo.container.mean.infer(obs[None, :])[0]
    std = np.exp(algo.container.log_std.data)
    action = mean + std * algo.rng.standard_normal(mean.shape)
    return np_clip_box(algo.env.action_space, action)


def ddpg_act(algo, obs, explore: bool = True) -> np.ndarray:
    action = algo.container.actor.infer(obs[None, :])[0]
    if explore:
        action = action + algo.noise.sample()
    return np_clip_box(algo.env.action_space, action)


def where_mantissa(vector, exponent: int, m_max: int = 32767) -> np.ndarray:
    """``Int32BlockScaledCodec._mantissa`` with one temporary per step."""
    x = np.asarray(vector, dtype=np.float32)
    scaled = np.where(np.isnan(x), 0.0, x).astype(np.float64)
    scaled *= float(1 << exponent)
    return np.clip(np.rint(scaled), -m_max, m_max).astype(np.int32)


# ---------------------------------------------------------------------------
# The scalar rollouts: each algorithm's loop over a bare env (one action,
# one ``env.step``, a reset on ``done``) as it ran beside the VectorEnv
# body, with its n-step fold and return recursions.
# ---------------------------------------------------------------------------


def numpy_discounted_returns(rewards, dones, bootstrap, gamma) -> np.ndarray:
    """``discounted_returns`` as a NumPy recursion over rows."""
    returns = np.zeros_like(rewards)
    running = bootstrap
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + gamma * running * (1.0 - dones[t])
        returns[t] = running
    return returns


def numpy_gae_advantages(rewards, values, dones, bootstrap, gamma, lam) -> np.ndarray:
    """``gae_advantages`` as a NumPy recursion over rows."""
    advantages = np.zeros_like(rewards)
    next_value = bootstrap
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        not_done = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * not_done - values[t]
        running = delta + gamma * lam * not_done * running
        advantages[t] = running
        next_value = values[t]
    return advantages


class NStepFold:
    """DQN's scalar n-step fold: pending (state, action) heads in a list,
    their reward sums and ages in two arrays of ``n_step`` slots, one
    vectorized multiply-add per step."""

    def __init__(self, algo) -> None:
        self.algo = algo
        self.gamma_powers = np.array([algo.gamma**j for j in range(algo.n_step)])
        self.rewards = np.zeros(algo.n_step)
        self.ages = np.zeros(algo.n_step, dtype=np.int64)
        self.heads = []

    def __call__(self, obs, action, reward, next_obs, done) -> None:
        heads, n_step = self.heads, self.algo.n_step
        count = len(heads)
        heads.append((obs, action))
        self.rewards[count] = 0.0
        self.ages[count] = 0
        count += 1
        self.rewards[:count] += reward * self.gamma_powers[self.ages[:count]]
        self.ages[:count] += 1
        mature = count if done else np.searchsorted(
            -self.ages[:count], -n_step, side="right"
        )
        for j in range(mature):
            head_obs, head_action = heads[j]
            self.algo.buffer.push(
                Transition(
                    head_obs, head_action, float(self.rewards[j]), next_obs, done
                )
            )
        if mature:
            del heads[:mature]
            remaining = count - mature
            self.rewards[:remaining] = self.rewards[mature:count]
            self.ages[:remaining] = self.ages[mature:count]


def scalar_episodes(algo):
    """The scalar loops' episode accounting: one running sum, appended to
    ``algo.episode_rewards`` when an episode ends."""
    running = 0.0

    def track(reward, done):
        nonlocal running
        running += reward
        if done:
            algo.episode_rewards.append(running)
            running = 0.0

    return track


def _replay_steps(algo, step) -> None:
    """Fill replay to ``warmup``, then ``env_steps_per_iter`` more steps."""
    obs = algo._obs
    while len(algo.buffer) < algo.warmup:
        obs = step(obs)
    for _ in range(algo.env_steps_per_iter):
        obs = step(obs)
    algo._obs = obs


def dqn_scalar_act(algo, obs, greedy: bool = False) -> int:
    """``DQN.act``'s ε-greedy body for one observation."""
    if not greedy and algo.rng.random() < algo.epsilon:
        return algo.env.action_space.sample(algo.rng)
    return int(np.argmax(algo.q_net.infer(obs[None, :])[0]))


def _dqn_env_steps(algo, fold, track) -> None:
    env_step, buffer, one_step = algo.env.step, algo.buffer, algo.n_step == 1
    act, reset, push = partial(dqn_scalar_act, algo), algo.env.reset, buffer.push

    def step(obs):
        action = act(obs)
        next_obs, reward, done, _ = env_step(action)
        if one_step:
            push(Transition(obs, action, reward, next_obs, done))
        else:
            fold(obs, action, reward, next_obs, done)
        track(reward, done)
        return reset() if done else next_obs

    _replay_steps(algo, step)


def ddpg_scalar_act(algo, obs, explore: bool = True) -> np.ndarray:
    """``DDPG.act`` for one observation, on a flat OU noise state."""
    actions = algo.container.actor.infer(obs[None, :])
    if explore:
        actions = actions + algo.noise.sample()
    return algo.env.action_space.clip(actions)[0]


def _ddpg_env_steps(algo, track) -> None:
    env_step, buffer, noise = algo.env.step, algo.buffer, algo.noise
    act, reset, push = partial(ddpg_scalar_act, algo), algo.env.reset, buffer.push

    def step(obs):
        action = act(obs)
        next_obs, reward, done, _ = env_step(action)
        push(Transition(obs, action, reward, next_obs, done))
        track(reward, done)
        if done:
            next_obs = reset()
            noise.reset()
        return next_obs

    _replay_steps(algo, step)


def _scalar_rollout(algo, act, track):
    """``rollout_steps`` scalar steps: the stacked states, the list of
    actions, and the float64 rewards and dones."""
    env_step, obs, reset = algo.env.step, algo._obs, algo.env.reset
    observations, actions, rewards, dones = [], [], [], []
    for _ in range(algo.rollout_steps):
        action = act(obs)
        next_obs, reward, done, _ = env_step(action)
        observations.append(obs)
        actions.append(action)
        rewards.append(reward)
        dones.append(done)
        track(reward, done)
        obs = reset() if done else next_obs
    algo._obs = obs
    return (
        np.stack(observations),
        actions,
        np.asarray(rewards, dtype=np.float64),
        np.asarray(dones, dtype=np.float64),
    )


def _a2c_rollout(algo, track):
    states, actions, rewards, dones = _scalar_rollout(
        algo, lambda obs: a2c_act(algo, obs, sample_index), track
    )
    bootstrap = float(algo._bootstrap_values(algo._obs[None, :])[0])
    returns = numpy_discounted_returns(rewards, dones, bootstrap, algo.gamma)
    return states, np.asarray(actions, dtype=np.int64), returns


def _ppo_rollout(algo, track):
    act = algo._act
    std = np.exp(algo.container.log_std.data)
    states, actions, rewards, dones = _scalar_rollout(
        algo, lambda obs: act(obs[None, :], std)[0], track
    )
    actions = np.stack(actions)
    values = algo._state_values(states)
    bootstrap = float(algo._state_values(algo._obs[None, :])[0])
    old_log_probs = algo.container.log_prob_infer(states, actions)
    advantages = numpy_gae_advantages(
        rewards, values, dones, bootstrap, algo.gamma, algo.lam
    )
    returns = advantages + values
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    return states, actions, old_log_probs, advantages, returns


def install_scalar_rollout(algo):
    """Step ``algo``, built on a bare env, through its scalar rollout.

    Overrides the rollout on the instance (DQN / DDPG ``_env_steps``,
    A2C / PPO ``_collect_rollout``); the rest of ``compute_gradient`` and
    the whole LWU stage stay the algorithm's own.  ``algo._obs`` becomes
    the scalar observation, and DDPG gets a flat ``OUNoise`` on the same
    rng.  Returns ``algo``.
    """
    assert algo.vec_env.envs == [algo.env], "the oracle steps a bare env"
    algo._obs = algo._obs[0]
    track = scalar_episodes(algo)
    if isinstance(algo, DQN):
        fold = NStepFold(algo)
        algo._env_steps = lambda: _dqn_env_steps(algo, fold, track)
    elif isinstance(algo, DDPG):
        algo.noise = OUNoise(algo.env.action_space.dim, algo.rng)
        algo._env_steps = lambda: _ddpg_env_steps(algo, track)
    elif isinstance(algo, A2C):
        algo._collect_rollout = lambda: _a2c_rollout(algo, track)
    elif isinstance(algo, PPO):
        algo._collect_rollout = lambda: _ppo_rollout(algo, track)
    else:
        raise TypeError(f"no scalar rollout for {type(algo).__name__}")
    return algo
