"""Span tracer installed from outside ``src/``: one span per layer crossing.

:class:`Tracer` wraps the names in :data:`layers.TABLE` with
``perf_counter`` spans.  A span records its name, start, end and parent
(the span open when it began); a call that stays inside the layer already
on top of the stack opens no span, so ``calls`` counts entries *into* a
layer and ``self`` time is the span's duration minus its child spans.
Callbacks handed to ``Simulator.schedule*`` and ``Host.bind*`` are wrapped
when registered and attributed to the layer of ``callback.__module__``.

Spans live in flat in-memory lists.  :meth:`Tracer.finish_pass` folds one
pass into per-layer totals and keeps only the latest pass's spans for
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import layers

ROOT = "pass"
CALLBACK = "<callback>"
#: Spans in a real run cost about twice what :meth:`Tracer.calibrate`
#: measures in its tight loop (cold caches, growing lists).
MAX_COST_SCALE = 3.0


@dataclass
class SpanCost:
    """What one span costs the traced run, in seconds (from
    :meth:`Tracer.calibrate`); only the ratios are used."""

    #: Between the span's two clock reads: lands in its own self time.
    inside: float
    #: The rest of the wrapper: lands in the parent's self time.
    outside: float
    #: Wrapping a callback at registration: lands in the registering layer.
    register: float


@dataclass
class PassProfile:
    """Totals of one traced pass, per layer; key :data:`ROOT` is the pass
    span itself, the time inside no layer."""

    wall: float
    self_seconds: Dict[str, float]
    #: Spans opened in the layer / spans whose parent is in the layer /
    #: callback spans of the layer.
    calls: Dict[str, int]
    children: Dict[str, int]
    callbacks: Dict[str, int]
    #: span name -> spans opened.
    name_calls: Dict[str, int]

    def subtract_overhead(self, cost: SpanCost, untraced_wall: float) -> None:
        """Take the tracer's own cost out of the self times.

        What the pass cost beyond ``untraced_wall`` is spread over the
        layers in proportion to the spans each one paid for, so that the
        self times add up to the untraced wall instead of skewing toward
        layers made of many small calls.  At most
        :data:`MAX_COST_SCALE` times the calibrated cost is taken out: a
        pass that is slow for another reason keeps that time where it fell.
        """
        overhead = self.wall - untraced_wall
        if overhead <= 0:
            return
        share = {
            layer: cost.inside * self.calls[layer]
            + cost.outside * self.children[layer]
            # A callback is nearly always registered by its own layer.
            + cost.register * self.callbacks[layer]
            for layer in self.self_seconds
        }
        scale = min(overhead / (sum(share.values()) or 1.0), MAX_COST_SCALE)
        for layer, weight in share.items():
            self.self_seconds[layer] = max(
                self.self_seconds[layer] - scale * weight, 0.0
            )

    @property
    def unattributed_frac(self) -> float:
        return self.self_seconds[ROOT] / sum(self.self_seconds.values())


class Tracer:
    def __init__(self) -> None:
        self.layer_names: List[str] = list(layers.LAYERS)
        #: Span-name table: index -> "layer:Owner.attr"; 0 is the pass span.
        self.names: List[str] = [ROOT]
        self._name_layer: List[int] = [-1]
        self._span_name: List[int] = []
        self._span_parent: List[int] = []
        self._span_start: List[float] = []
        self._span_end: List[float] = []
        self._stack: List[int] = [-1]
        self._layer_stack: List[int] = [-1]
        self._pass_id = -1
        self._undo: List[tuple] = []
        self._run_callback = self._callback_runner()
        #: span label -> module name -> (span name, layer) or None.
        self._callback_ids: Dict[str, Dict[Optional[str], Optional[tuple]]] = {}
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _name_id(self, layer: str, label: str) -> int:
        self.names.append(f"{layer}:{label}")
        self._name_layer.append(self.layer_names.index(layer))
        return len(self.names) - 1

    def span(self, fn, name_id: int):
        """``fn`` wrapped so that entering it from another layer opens a span."""
        layer_id = self._name_layer[name_id]
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        stack, layer_stack = self._stack, self._layer_stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if layer_stack[-1] == layer_id:
                return fn(*args, **kwargs)
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(index)
            layer_stack.append(layer_id)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
                layer_stack.pop()

        return functools.update_wrapper(traced, fn)

    def _callback_runner(self):
        """The body of :meth:`span` once more, as ``run(name, layer, fn,
        *args)``: a registrar binds the first three with ``partial``, which
        costs far less per registration than a new closure (and a method
        cannot be a ``partial``, hence two copies)."""
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        stack, layer_stack = self._stack, self._layer_stack
        clock = time.perf_counter

        def run(name_id, layer_id, fn, *args):
            if layer_stack[-1] == layer_id:
                return fn(*args)
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(index)
            layer_stack.append(layer_id)
            span_start.append(clock())
            try:
                return fn(*args)
            finally:
                span_end[index] = clock()
                stack.pop()
                layer_stack.pop()

        return run

    def _registrar(self, fn, position: int, label: str):
        """``fn`` wrapped so that the callback it is handed runs in a span
        of the layer whose module defined that callback."""
        ids_of_module = self._callback_ids.setdefault(label, {})
        run = self._run_callback

        def wrap(callback):
            module = getattr(callback, "__module__", None)
            if module == "functools":  # a partial: look at what it calls
                module = getattr(callback.func, "__module__", None)
            try:
                ids = ids_of_module[module]
            except KeyError:
                layer = layers.layer_of_module(module)
                ids = None
                if layer is not None:
                    ids = (self._name_id(layer, label),
                           self.layer_names.index(layer))
                ids_of_module[module] = ids
            if ids is None:
                return callback
            return functools.partial(run, ids[0], ids[1], callback)

        @functools.wraps(fn)
        def registering(self_, *args, **kwargs):
            if len(args) > position:
                args = (
                    *args[:position], wrap(args[position]), *args[position + 1:]
                )
            return fn(self_, *args, **kwargs)

        return registering

    def install(self) -> None:
        """Wrap every name of the layer table; undone by :meth:`uninstall`."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets, self.missing = layers.resolve()
        for layer, owner, name in targets:
            raw = vars(owner)[name]
            label = name if not isinstance(owner, type) else f"{owner.__name__}.{name}"
            wrapped = self.span(
                getattr(raw, "__func__", raw), self._name_id(layer, label)
            )
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrapped)
            self._replace(owner, name, raw, wrapped)
        # Registrars open no span of their own: they only wrap the callback
        # they are handed.
        for module, cls, name, position, label in layers.REGISTRARS:
            try:
                owner = getattr(sys.modules[module], cls)
                raw = vars(owner)[name]
            except (KeyError, AttributeError):
                continue  # already reported by layers.resolve()
            self._replace(owner, name, raw, self._registrar(raw, position, label))

    def _replace(self, owner, name, raw, wrapped) -> None:
        if isinstance(owner, type):
            self._set(owner, name, raw, wrapped)
            return
        # A module function may have been imported by name elsewhere in
        # the package; patch every alias so those callers are traced too.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, alias, raw, wrapped)

    def _set(self, owner, name, raw, wrapped) -> None:
        self._undo.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------
    def begin_pass(self) -> None:
        """Start a pass, dropping the spans of the previous one."""
        for column in (self._span_name, self._span_parent, self._span_start,
                       self._span_end):
            column.clear()
        self._pass_id += 1

    def rooted(self, fn):
        """``fn`` wrapped in a root span (no parent, no layer).  The harness
        roots each leg call, so its own checks between legs are not traced
        and a pass's wall is the sum of its roots."""
        stack = self._stack

        @functools.wraps(fn)
        def root(*args, **kwargs):
            index = len(self._span_start)
            self._span_name.append(0)
            self._span_parent.append(-1)
            self._span_end.append(0.0)
            stack.append(index)
            self._span_start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._span_end[index] = time.perf_counter()
                stack.pop()

        return root

    def finish_pass(self) -> PassProfile:
        return profile_spans(
            self.names,
            self.layer_names,
            self._name_layer,
            self._span_name,
            self._span_parent,
            self._span_start,
            self._span_end,
        )

    def calibrate(self, n: int = 20000) -> SpanCost:
        """Time ``n`` empty spans and ``n`` callback registrations."""

        def noop():
            pass

        def register(self_, when, callback):
            pass

        noop.__module__ = "repro.netsim.link"  # any module that has a layer
        traced = self.span(noop, self._name_id(self.layer_names[0], "<calibration>"))
        registering = self._registrar(register, 1, CALLBACK)

        def loop(fn, *args) -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                fn(*args)
            return (time.perf_counter() - t0) / n

        self.begin_pass()
        per_span = self.rooted(loop)(traced) - loop(noop)
        profile = self.finish_pass()
        inside = profile.self_seconds[self.layer_names[0]] / n
        register_cost = loop(registering, None, 0.0, noop) - loop(
            register, None, 0.0, noop
        )
        return SpanCost(inside, max(per_span - inside, 0.0), max(register_cost, 0.0))

    def dump(self, path) -> None:
        """Write the latest pass's spans as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "pass": self._pass_id,
                    "clock": "perf_counter seconds",
                    "names": self.names,
                    "roots": "spans with parent -1, one per leg of the pass",
                    "spans": {
                        "name": self._span_name,
                        "parent": self._span_parent,
                        "start": self._span_start,
                        "end": self._span_end,
                    },
                },
                handle,
            )


def profile_spans(names, layer_names, name_layer, span_name, span_parent,
                  span_start, span_end) -> PassProfile:
    """Fold one pass's spans into per-layer totals.

    Self time of a span is its duration minus the durations of the spans
    it is the parent of, so the self times of a pass sum to the durations
    of its root spans (parent -1): its wall.
    """
    n = len(span_start)
    keys = list(layer_names) + [ROOT]
    duration = np.asarray(span_end, dtype=np.float64) - np.asarray(
        span_start, dtype=np.float64
    )
    parent = np.asarray(span_parent, dtype=np.intp)
    nested = parent >= 0
    self_time = duration - np.bincount(
        parent[nested], weights=duration[nested], minlength=n
    )
    name = np.asarray(span_name, dtype=np.intp)
    # A root span's layer is -1: fold it onto the extra ROOT slot.
    layer = np.asarray(name_layer, dtype=np.intp)[name] % len(keys)
    is_callback = np.asarray([label.endswith(CALLBACK) for label in names])[name]

    def per_layer(index, weights=None) -> dict:
        return dict(
            zip(keys, np.bincount(index, weights, minlength=len(keys)).tolist())
        )

    name_calls = np.bincount(name[nested], minlength=len(names))
    return PassProfile(
        wall=float(duration[~nested].sum()),
        self_seconds=per_layer(layer, self_time),
        calls=per_layer(layer[nested]),
        children=per_layer(layer[parent[nested]]),
        callbacks=per_layer(layer[is_callback]),
        name_calls={names[i]: int(c) for i, c in enumerate(name_calls) if c},
    )
