"""Span tracing of warpft's public functions, installed from outside.

A :class:`Tracer` wraps public functions of the ``warpft`` modules at
every name a caller looks them up by: ``cli`` imports ``analyze`` from
``transform`` by name, ``kernels`` calls ``oscillation`` and
``integrate`` through its own globals, ``system`` calls ``normalized``
through its own globals, and so on.  Each call records a span (name,
start, end, parent span, operation id) in memory; counts are recorded at
the same boundaries by per-span hooks.  :meth:`Tracer.uninstall`
restores every rebound name.

``warping`` gets no spans: its functions run on arrays thousands of
times per operation, so wrapping them would cost more than it measures.
Their cost shows in the self time of ``system.build_atom`` and
``kernels.oscillation``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# (module, attribute) pairs to wrap; the span is named "<module>.<attribute>".
# ``system.WarpedSystem.frame_diag`` is a method and is wrapped on the class.
TRACED = (
    ("system", "build_system"),
    ("system", "build_atom"),
    ("system", "painless_check"),
    ("system", "WarpedSystem.frame_diag"),
    ("prototype", "normalized"),
    ("prototype", "admissibility_inner_product"),
    ("quadrature", "integrate"),
    ("transform", "analyze"),
    ("transform", "adjoint"),
    ("transform", "synthesize"),
    ("transform", "apply_frame_operator"),
    ("transform", "moyal_residual"),
    ("discretization", "frame_bounds_painless"),
    ("discretization", "frame_bounds_power_iteration"),
    ("discretization", "induced_cover"),
    ("discretization", "check_cover_admissible"),
    ("discretization", "weight_bound_C"),
    ("kernels", "gramian"),
    ("kernels", "kernel_norm_I"),
    ("kernels", "stationary_phase_check"),
    ("kernels", "oscillation"),
    ("kernels", "osc_norm_estimate"),
    ("io", "read_descriptor"),
    ("io", "write_descriptor"),
    ("io", "read_signal"),
    ("io", "write_signal"),
    ("io", "read_coefficients"),
    ("io", "write_coefficients"),
    ("cli", "main"),
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    label: str = ""
    children_time: float = 0.0


def _atom_counts(system) -> Dict[str, float]:
    stored = sum(a.values.size for a in system.atoms)
    retained = sum(a.support.size for a in system.atoms)
    nbytes = sum(a.values.nbytes + a.support.nbytes for a in system.atoms)
    return {"system.atom_bytes": nbytes,
            "system.atom_fill_ratio": retained / stored}


# Hooks turn a call's arguments and result into gauges (last value wins).
_GAUGES: Dict[str, Callable] = {
    "system.build_system": lambda args, kwargs, out: _atom_counts(out),
    "discretization.induced_cover":
        lambda args, kwargs, out: {"discretization.cover_elements":
                                   len(out.elements)},
    "io.write_coefficients":
        lambda args, kwargs, out: {"io.coeff_bytes": os.path.getsize(args[0])},
}


@dataclass
class Tracer:
    """In-memory span recorder; create one per traced run."""

    spans: List[Span] = field(default_factory=list)
    gauges: Dict[str, float] = field(default_factory=dict)
    op: int = 0
    recording: bool = True
    _stack: List[Span] = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in every loaded ``warpft`` module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "warpft" or k.startswith("warpft.")]
        for modname, attr in TRACED:
            mod = sys.modules[f"warpft.{modname}"]
            name = f"{modname}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, orig, self._wrap(orig, name))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, key, orig, wrapper)

    def _rebind(self, owner, key, orig, wrapper) -> None:
        self._saved.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Restore every name :meth:`install` rebound."""
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        hook = _GAUGES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name, time.perf_counter(), 0.0,
                        parent.sid if parent else None, tracer.op,
                        _label(name, args))
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = time.perf_counter()
                if parent is not None:
                    parent.children_time += span.end - span.start
            if hook is not None:
                tracer.gauges.update(hook(args, kwargs, out))
            return out

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Suspend recording (used around the benchmark's checks)."""
        prev, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = prev

    # -- reductions -----------------------------------------------------------

    def total(self, name: str, label: Optional[str] = None) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.name == name and (label is None or s.label == label))

    def self_time(self, name: str, label: Optional[str] = None) -> float:
        return sum(s.end - s.start - s.children_time for s in self.spans
                   if s.name == name and (label is None or s.label == label))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` with a span named ``ancestor`` above them."""
        by_id = {s.sid: s for s in self.spans}
        count = 0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None:
                if by_id[p].name == ancestor:
                    count += 1
                    break
                p = by_id[p].parent
        return count

    def dump(self, path: str) -> None:
        """Write the spans and gauges as JSON (called once, at run end)."""
        rows = [{"id": s.sid, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent, "op": s.op,
                 "label": s.label} for s in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": rows, "gauges": self.gauges}, fh)


def _label(name: str, args) -> str:
    """The subcommand of a ``cli.main`` call; empty for other spans."""
    if name == "cli.main" and args and args[0]:
        return str(args[0][0])
    return ""
