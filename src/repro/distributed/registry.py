"""Decorator-based strategy registry.

Strategy classes self-register at import time::

    @register_strategy("sync", "isw", requires_iswitch=True)
    class SyncISwitch(SyncStrategy):
        ...

:func:`repro.distributed.run` looks strategies up here instead of in
hard-coded dicts, so adding a strategy is one decorator — no runner
edits.  Each spec records what the strategy needs from the topology
builder (a parameter-server host, iSwitch fabric) and exposes the
class's ``create(net, workers, profile, config)`` factory.

Registration order is preserved: ``strategy_names("sync")`` returns the
names in the order the classes were declared, which keeps error messages
and CLI help stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

__all__ = [
    "StrategySpec",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "strategy_specs",
    "unregister_strategy",
    "MODES",
]

MODES = ("sync", "async")


@dataclass(frozen=True)
class StrategySpec:
    """One registered strategy: its class plus topology requirements."""

    mode: str
    name: str
    cls: Type
    #: Topology must include a parameter-server host.
    requires_server: bool = False
    #: Topology must be built with iSwitch fabric (and the strategy is
    #: loss-tolerant: it can recover from dropped packets).
    requires_iswitch: bool = False
    #: The live UDP backend (:mod:`repro.live`) can execute this strategy
    #: for real over loopback sockets.
    supports_live: bool = False
    #: The multi-tenant fabric (:mod:`repro.multitenant`) can multiplex
    #: many concurrent instances of this strategy over one switch tree.
    supports_multijob: bool = False


_REGISTRY: Dict[Tuple[str, str], StrategySpec] = {}


def register_strategy(
    mode: str,
    name: str,
    *,
    requires_server: bool = False,
    requires_iswitch: bool = False,
    supports_live: bool = False,
    supports_multijob: bool = False,
):
    """Class decorator registering a strategy under ``(mode, name)``.

    The class must provide ``create(cls, net, workers, profile, config)``
    (a classmethod) returning a runner with a ``run(n)`` method.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")

    def decorate(cls):
        key = (mode, name.lower())
        existing = _REGISTRY.get(key)
        if existing is not None and existing.cls is not cls:
            raise ValueError(
                f"strategy {name!r} already registered for mode {mode!r} "
                f"by {existing.cls.__name__}"
            )
        if not callable(getattr(cls, "create", None)):
            raise TypeError(
                f"{cls.__name__} must define a create() classmethod to be "
                "registered as a strategy"
            )
        _REGISTRY[key] = StrategySpec(
            mode=mode,
            name=name.lower(),
            cls=cls,
            requires_server=requires_server,
            requires_iswitch=requires_iswitch,
            supports_live=supports_live,
            supports_multijob=supports_multijob,
        )
        return cls

    return decorate


def get_strategy(mode: str, name: str) -> StrategySpec:
    """Look up a registered strategy; KeyError lists the valid names."""
    spec = _REGISTRY.get((mode, name.lower()))
    if spec is None:
        raise KeyError(
            f"unknown {mode} strategy {name!r}; choose {strategy_names(mode)}"
        )
    return spec


def strategy_names(mode: str) -> tuple:
    """Registered names for ``mode``, in registration order."""
    return tuple(n for (m, n) in _REGISTRY if m == mode)


def strategy_specs(mode: Optional[str] = None) -> tuple:
    """All registered specs (optionally one mode's), in registration order."""
    return tuple(
        spec
        for (m, _), spec in _REGISTRY.items()
        if mode is None or m == mode
    )


def unregister_strategy(mode: str, name: str) -> None:
    """Remove a registration (primarily for tests adding throwaway ones)."""
    _REGISTRY.pop((mode, name.lower()), None)
