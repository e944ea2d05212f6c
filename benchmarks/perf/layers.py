"""The layer table: which public names of ``src/repro`` belong to which layer.

Layer names are module paths under ``src/repro``.  Each row is
``(layer, module, class or None, public attribute names)``; the tracer
(:mod:`tracing`) wraps every named attribute with a span.  Only
non-underscore names appear: private helpers run inside the span of the
public call that reached them, and callbacks handed to the event loop or
to ``Host.bind*`` are attributed through :func:`layer_of_module`.  One-line
accessors (``EthernetSwitch.lookup``, ``SegmentPlan.round_of_seg``,
``Host.send``, ...) are left out: a span costs more than they do, so their
time stays with the caller.

``test_perf_harness.py`` checks that every name resolves, so a rename in
``src/`` cannot silently zero a layer.
"""

from __future__ import annotations

import importlib
from typing import Iterator, List, Optional, Tuple

LAYERS = (
    "netsim.events",
    "netsim.link",
    "netsim.node",
    "netsim.switch",
    "core.switch",
    "core.accelerator",
    "core.client",
    "core.protocol",
    "core.compression",
    "distributed.strategy",
    "distributed.collectives",
    "rl.algo",
    "rl.replay",
    "rl.envs",
    "nn",
    "nn.optim",
    "multitenant",
    "faults",
    "telemetry",
    "live",
)

#: Methods that register a callback: ``(module, class, name, index of the
#: callback among the positional arguments after self, span label)``.  The
#: tracer wraps the callback at registration and opens no span for the
#: registration itself (a heap push costs less than a span), so
#: ``netsim.events`` self time is the dispatch loop and its heap pops;
#: pushes stay with the layer that scheduled.  A ``<callback>`` is
#: registered once per call, a ``<handler>`` once per run.
REGISTRARS = (
    ("repro.netsim.events", "Simulator", "schedule", 1, "<callback>"),
    ("repro.netsim.events", "Simulator", "schedule_at", 1, "<callback>"),
    ("repro.netsim.events", "Simulator", "schedule_fire", 1, "<callback>"),
    ("repro.netsim.events", "Simulator", "schedule_fire_at", 1, "<callback>"),
    ("repro.netsim.node", "Host", "bind", 1, "<handler>"),
    ("repro.netsim.node", "Host", "bind_default", 0, "<handler>"),
    ("repro.netsim.node", "Host", "bind_train", 1, "<handler>"),
)

_CODEC_METHODS = ("roundtrip", "encode_payload", "decode_payload")
_ALGORITHM_METHODS = ("act", "act_batch", "compute_gradient")

TABLE = (
    # -- netsim ---------------------------------------------------------
    ("netsim.events", "repro.netsim.events", "Simulator",
     ("step", "run", "reset")),
    ("netsim.events", "repro.netsim.events", None, ("make_simulator",)),
    ("netsim.link", "repro.netsim.link", "LinkEnd",
     ("send", "send_train")),
    ("netsim.link", "repro.netsim.link", "Link", ("attach", "add_train_barrier")),
    ("netsim.link", "repro.netsim.link", "GilbertElliott", ("should_drop",)),
    ("netsim.node", "repro.netsim.node", "Device",
     ("register_port", "handle_packet", "handle_train")),
    ("netsim.node", "repro.netsim.node", "Host",
     ("register_port", "unbind", "handle_packet", "handle_train")),
    ("netsim.switch", "repro.netsim.switch", "EthernetSwitch",
     ("add_route", "set_default_route", "handle_packet", "process",
      "handle_train")),
    # -- core -----------------------------------------------------------
    ("core.switch", "repro.core.switch", "ISwitch",
     ("add_member", "set_parent", "handle_packet", "handle_train")),
    ("core.switch", "repro.core.hierarchy", None,
     ("iswitch_factory", "dedup_iswitch_factory", "make_iswitch_factory",
      "configure_aggregation", "aggregation_switches")),
    ("core.switch", "repro.core.jobs", "JobTable", ("register", "remove")),
    ("core.switch", "repro.core.control_plane", "MembershipTable",
     ("join", "leave")),
    ("core.accelerator", "repro.core.accelerator", "AggregationEngine",
     ("set_threshold", "reset", "sweep_completed", "contribute",
      "contribute_batch", "force_broadcast", "cached_result")),
    ("core.accelerator", "repro.core.accelerator", "VectorGranularityEngine",
     ("contribute", "reset")),
    ("core.client", "repro.core.client", "AggregationClient",
     ("send_gradient", "join", "leave", "reset_switch", "set_threshold",
      "request_help", "cancel_recovery", "pending_rounds")),
    ("core.protocol", "repro.core.protocol", "SegmentPlan",
     ("split", "assemble")),
    ("core.protocol", "repro.core.protocol", None,
     ("encode_control", "encode_data", "decode_frame", "make_control_packet",
      "make_data_packet")),
    ("core.compression", "repro.core.compression", "GradientCodec",
     _CODEC_METHODS + ("finalize_sum",)),
    ("core.compression", "repro.core.compression", "Float32Codec", _CODEC_METHODS),
    ("core.compression", "repro.core.compression", "Float16Codec",
     _CODEC_METHODS + ("finalize_sum",)),
    ("core.compression", "repro.core.compression", "Int32BlockScaledCodec",
     _CODEC_METHODS + ("finalize_sum", "engine_ingest", "engine_emit")),
    ("core.compression", "repro.core.compression", "TopKCodec", _CODEC_METHODS),
    ("core.compression", "repro.core.compression", None,
     ("get_codec", "codec_for_tag")),
    # -- distributed ----------------------------------------------------
    ("distributed.strategy", "repro.distributed.runner", None,
     ("run", "build_cluster")),
    ("distributed.strategy", "repro.distributed.sync", "SyncStrategy",
     ("create", "run")),
    ("distributed.strategy", "repro.distributed.sync", "SyncISwitch", ("create",)),
    ("distributed.strategy", "repro.distributed.sharded",
     "ShardedParameterServer", ("create",)),
    ("distributed.strategy", "repro.distributed.asynchronous",
     "AsyncParameterServer", ("create", "run")),
    ("distributed.strategy", "repro.distributed.asynchronous", "AsyncISwitch",
     ("create", "run")),
    ("distributed.strategy", "repro.distributed.worker", "SimWorker",
     ("record_reward_sample", "finish_iteration")),
    ("distributed.strategy", "repro.distributed.metrics", "IterationBreakdown",
     ("add", "add_compute", "finish_iteration")),
    ("distributed.strategy", "repro.distributed.metrics", "BusyQueue", ("submit",)),
    ("distributed.collectives", "repro.distributed.collectives.base",
     "CollectiveHandle", ("mark_started", "mark_completed")),
    ("distributed.collectives", "repro.distributed.collectives.base",
     "HandleLedger", ("complete",)),
    ("distributed.collectives", "repro.distributed.collectives.base",
     "RoundBarrier", ("arrive",)),
    ("distributed.collectives", "repro.distributed.collectives.iswitch",
     "ISwitchStream", ("submit",)),
    ("distributed.collectives", "repro.distributed.collectives.iswitch", None,
     ("make_plan", "iswitch_stream")),
    ("distributed.collectives", "repro.distributed.collectives.ps", "PsGather",
     ("submit", "submit_local")),
    ("distributed.collectives", "repro.distributed.collectives.ps", "PsScatter",
     ("broadcast", "send_to")),
    ("distributed.collectives", "repro.distributed.collectives.ps", None,
     ("ps_gather", "ps_scatter")),
    ("distributed.collectives", "repro.distributed.collectives.ring",
     "RingExchange", ("start",)),
    ("distributed.collectives", "repro.distributed.collectives.ring", None,
     ("ring_reduce_scatter", "ring_all_gather", "hd_reduce_scatter",
      "hd_all_gather")),
    ("distributed.collectives", "repro.distributed.transport", None,
     ("send_vector",)),
    # -- rl / nn --------------------------------------------------------
    ("rl.algo", "repro.distributed.runner", None, ("make_algorithm",)),
    ("rl.algo", "repro.rl.base", "Algorithm",
     ("compute_gradient", "apply_update", "get_weights", "set_weights",
      "on_weights_pulled", "gradient_vector", "final_average_reward")),
    ("rl.algo", "repro.rl.synthetic", "SyntheticAlgorithm",
     ("compute_gradient", "apply_update", "get_weights", "set_weights")),
    ("rl.algo", "repro.rl.dqn", "DQN",
     _ALGORITHM_METHODS + ("on_weights_pulled", "sync_target_now")),
    ("rl.algo", "repro.rl.a2c", "A2C", _ALGORITHM_METHODS),
    ("rl.algo", "repro.rl.a2c", None, ("discounted_returns",)),
    ("rl.algo", "repro.rl.ppo", "PPO", _ALGORITHM_METHODS),
    ("rl.algo", "repro.rl.ppo", "GaussianActorCritic",
     ("log_prob", "log_prob_infer", "entropy")),
    ("rl.algo", "repro.rl.ppo", None, ("gae_advantages",)),
    ("rl.algo", "repro.rl.ddpg", "DDPG",
     _ALGORITHM_METHODS + ("on_weights_pulled",)),
    ("rl.algo", "repro.rl.ddpg", "ActorCriticPair", ("q_value", "q_value_infer")),
    ("rl.algo", "repro.rl.ddpg", "OUNoise", ("reset", "sample")),
    ("rl.replay", "repro.rl.replay", "ReplayBuffer",
     ("push", "push_batch", "sample")),
    ("rl.replay", "repro.rl.replay", None, ("make_replay_buffer",)),
    ("rl.envs", "repro.rl.envs.base", "Environment", ("seed", "reset", "step")),
    ("rl.envs", "repro.rl.envs.vector", "VectorEnv", ("reset", "step")),
    ("rl.envs", "repro.rl.envs.vector", None, ("make_vector_env",)),
    ("rl.envs", "repro.rl.envs.wrappers", "Wrapper",
     ("seed", "observation", "reward")),
    ("nn", "repro.nn.tensor", "Tensor",
     ("numpy", "item", "detach", "backward", "zero_grad", "exp", "log", "sqrt",
      "tanh", "sigmoid", "relu", "abs", "clip", "sum", "mean", "reshape",
      "transpose", "gather", "log_softmax", "softmax")),
    ("nn", "repro.nn.tensor", None, ("concat",)),
    ("nn", "repro.nn.functional", None,
     ("mse_loss", "huber_loss", "fused_mse_loss", "fused_huber_loss",
      "fused_qnet_grad", "td_targets", "nll_from_logits",
      "entropy_from_logits")),
    ("nn", "repro.nn.layers", "Module",
     ("parameters", "named_parameters", "zero_grad", "forward", "infer")),
    ("nn", "repro.nn.layers", "Linear", ("forward", "infer")),
    ("nn", "repro.nn.layers", "Activation", ("forward", "infer")),
    ("nn", "repro.nn.layers", "Sequential", ("forward", "infer")),
    ("nn", "repro.nn.layers", None, ("mlp",)),
    ("nn", "repro.nn.serialize", None,
     ("param_vector_size", "model_wire_bytes", "flatten_params",
      "load_flat_params", "flatten_grads", "flatten_grads_into",
      "load_flat_grads")),
    ("nn.optim", "repro.nn.optim", "Optimizer",
     ("zero_grad", "step", "step_flat")),
    # -- the rest -------------------------------------------------------
    ("multitenant", "repro.multitenant.soak", None, ("run_soak", "generate_jobs")),
    ("multitenant", "repro.multitenant.fabric", "SwitchFabric",
     ("submit", "run", "final_weights")),
    ("multitenant", "repro.multitenant.scheduler", "SlotScheduler",
     ("enqueue", "next_candidate", "admit")),
    ("multitenant", "repro.multitenant.scheduler", "FairSharePolicy", ("select",)),
    ("multitenant", "repro.multitenant.admission", "AdmissionController",
     ("used", "utilization", "decide", "fits", "reserve", "release")),
    ("faults", "repro.faults.injector", "FaultInjector", ("install", "finalize")),
    ("telemetry", "repro.telemetry.hub", "TelemetryHub",
     ("now", "bind_clock", "inc", "set_gauge", "observe", "begin_span",
      "end_span", "span_at", "event", "add_collector", "snapshot")),
    ("live", "repro.live.runner", None, ("run_live",)),
)

#: Callback attribution: module-name prefix -> layer, longest prefix wins.
#: Modules with no entry (``repro.netsim.topology``, ``repro.workloads``,
#: ...) have no layer of their own; their time stays with the caller.
_MODULE_PREFIXES = (
    ("repro.netsim.events", "netsim.events"),
    ("repro.netsim.link", "netsim.link"),
    ("repro.netsim.node", "netsim.node"),
    ("repro.netsim.switch", "netsim.switch"),
    ("repro.core.switch", "core.switch"),
    ("repro.core.hierarchy", "core.switch"),
    ("repro.core.jobs", "core.switch"),
    ("repro.core.control_plane", "core.switch"),
    ("repro.core.accelerator", "core.accelerator"),
    ("repro.core.client", "core.client"),
    ("repro.core.protocol", "core.protocol"),
    ("repro.core.compression", "core.compression"),
    ("repro.distributed.collectives", "distributed.collectives"),
    ("repro.distributed.transport", "distributed.collectives"),
    ("repro.distributed", "distributed.strategy"),
    ("repro.rl.replay", "rl.replay"),
    ("repro.rl.envs", "rl.envs"),
    ("repro.rl", "rl.algo"),
    ("repro.nn.optim", "nn.optim"),
    ("repro.nn", "nn"),
    ("repro.multitenant", "multitenant"),
    ("repro.faults", "faults"),
    ("repro.telemetry", "telemetry"),
    ("repro.live", "live"),
)


def layer_of_module(module_name: Optional[str]) -> Optional[str]:
    """The layer that code defined in ``module_name`` belongs to."""
    if not module_name:
        return None
    for prefix, layer in _MODULE_PREFIXES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


def _owner(module_name: str, class_name: Optional[str]):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


def resolve() -> Tuple[List[Tuple[str, object, str]], List[str]]:
    """Resolve the table against the importable ``repro``.

    Returns ``(targets, missing)``: ``targets`` are ``(layer, owner, name)``
    with ``owner`` the module or class whose own namespace defines ``name``;
    ``missing`` lists every ``module:Class.name`` that no longer resolves.
    """
    targets: List[Tuple[str, object, str]] = []
    missing: List[str] = []
    for layer, module_name, class_name, names in TABLE:
        for label, owner, name in _named(module_name, class_name, names):
            if owner is None:
                missing.append(label)
            else:
                targets.append((layer, owner, name))
    for module_name, class_name, name, _, _ in REGISTRARS:
        for label, owner, _name in _named(module_name, class_name, (name,)):
            if owner is None:
                missing.append(label)
    return targets, missing


def _named(module_name, class_name, names) -> Iterator[Tuple[str, object, str]]:
    try:
        owner = _owner(module_name, class_name)
    except (ImportError, AttributeError):
        owner = None
    for name in names:
        label = f"{module_name}:{class_name + '.' if class_name else ''}{name}"
        defined = owner is not None and callable(_raw(owner, name))
        yield label, owner if defined else None, name


def _raw(owner, name):
    """``owner``'s own attribute, unwrapping static/class methods."""
    raw = vars(owner).get(name)
    return getattr(raw, "__func__", raw)
