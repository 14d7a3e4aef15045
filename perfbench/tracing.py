"""Outside-in tracing of the ktsecret package.

The tracer replaces public functions of the package with timing wrappers
wherever a caller looks them up: every ``ktsecret.*`` module attribute that
is bound to a traced function is patched, so ``ktsecret.cs.grad_spatial`` and
``ktsecret.encoding.dft2`` are timed as well as ``ktsecret.numerics.*``.
Nothing inside the package changes, and leaving the Tracer's ``with``
block puts every original back.

Spans are kept in memory. Each thread has its own span stack, so the
pipeline's worker pool is attributed correctly: a span that starts on a
worker thread with an empty stack is a child of the span open on the thread
that started tracing (the pipeline call that is waiting for the pool).
A span's self time is its duration minus the part of that interval its
children cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped by a full trace; the span name is
# "<module>.<function>".
TRACED = [
    ("numerics", "dft2"),
    ("numerics", "grad_spatial"),
    ("numerics", "grad_spatial_adjoint"),
    ("numerics", "grad_temporal"),
    ("numerics", "grad_temporal_adjoint"),
    ("encoding", "make_radial_mask"),
    ("encoding", "encode"),
    ("encoding", "adjoint"),
    ("encoding", "normal_op"),
    ("cs", "cs_reconstruct"),
    ("cs", "cs_objective"),
    ("cs", "cs_gradient"),
    ("net", "net_forward"),
    ("net", "net_backward"),
    ("net", "adam_step"),
    ("recon", "dc_solve"),
    ("recon", "modl_forward"),
    ("recon", "modl_train"),
    ("recon", "secret_loss"),
    ("recon", "secret_train"),
    ("recon", "secret_infer"),
    ("phantom", "synthesize"),
    ("phantom", "corrupt"),
    ("kinetics", "evaluate_series"),
    ("kinetics", "patlak_fit"),
    ("container", "save_tensor"),
    ("container", "load_tensor"),
    ("cli", "write_pgm"),
    ("cli", "run_pipeline"),
]

# KtData validation runs in its dataclass __post_init__, a class attribute.
KTDATA_SPAN = "encoding.ktdata"

COMPLEX_BYTES = 16


class Span:
    __slots__ = ("name", "parent", "start", "end", "thread", "children", "counts")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.children = []
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the child intervals, clipped to this span."""
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(c.start, self.start), min(c.end, self.end)) for c in self.children):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return self.duration - covered

    def to_json(self, ids) -> dict:
        return {"id": ids[id(self)], "name": self.name,
                "parent": ids.get(id(self.parent)) if self.parent is not None else None,
                "thread": self.thread, "start": self.start, "end": self.end,
                "self_s": self.self_time(), **self.counts}


def conv_flop(params, hw, depth_levels) -> int:
    """Computed multiply-add FLOPs of one net_forward, from the layer shapes.

    Layers run in the order encoder (2 per level), bottleneck (2), decoder
    (2 per level, deepest first), final 1x1; level l works at (H/2^l, W/2^l).
    Bias, ReLU, pooling and upsampling are not counted.
    """
    h, w = hw
    levels = []
    for lvl in range(depth_levels):
        levels += [lvl, lvl]
    levels += [depth_levels, depth_levels]
    for lvl in reversed(range(depth_levels)):
        levels += [lvl, lvl]
    levels.append(0)
    flop = 0
    for layer, lvl in zip(params.layers, levels):
        cout, cin, k, _ = layer.weight.shape
        flop += 2 * cout * cin * k * k * (h >> lvl) * (w >> lvl)
    return flop


def _count_dft2(span, args, kwargs, result):
    # computed: complex128 elements read plus elements written
    span.counts["bytes"] = 2 * COMPLEX_BYTES * int(np.size(result))


def _count_file(span, args, kwargs, result):
    span.counts["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])


def _count_cs(span, args, kwargs, result):
    log = result[1]
    span.counts["iterations"] = len(log.objective) - 1
    span.counts["line_search_failed"] = int(log.line_search_failed)


def _count_dc(span, args, kwargs, result):
    info = result[1]
    span.counts["cg_iterations"] = info.iterations
    span.counts["unconverged"] = int(not info.converged)


def _count_forward(span, args, kwargs, result):
    s_u, params, cfg = args[:3]
    span.counts["flop"] = conv_flop(params, s_u.shape[-2:], cfg.depth_levels)


def _count_backward(span, args, kwargs, result):
    cache, params = args[1], args[2]
    # weight and input gradients each cost one forward's multiply-adds
    span.counts["flop"] = 2 * conv_flop(params, cache["shape"][-2:], cache["cfg"].depth_levels)


COUNTERS = {
    "numerics.dft2": _count_dft2,
    "container.save_tensor": _count_file,
    "container.load_tensor": _count_file,
    "cs.cs_reconstruct": _count_cs,
    "recon.dc_solve": _count_dc,
    "net.net_forward": _count_forward,
    "net.net_backward": _count_backward,
}


class Tracer:
    """Patches the named public functions of ktsecret while active.

    Use as a context manager; ``names`` restricts tracing to a subset of
    ``TRACED`` span names (all of them, plus KtData validation, by default).
    """

    def __init__(self, names=None):
        self.names = None if names is None else set(names)
        self.spans = []
        self._local = threading.local()
        self._root_thread = None
        self._root_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif thread != self._root_thread and self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        span = Span(name, parent, thread)
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.children.append(span)
        self.spans.append(span)

    def _wrap(self, name, fn):
        tracer, counter = self, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                counter(span, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ktsecret" or name.startswith("ktsecret.")}
        wrapped = {}  # id(original) -> wrapper
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            if self.names is None or name in self.names:
                fn = getattr(modules[f"ktsecret.{mod_name}"], fn_name)
                wrapped[id(fn)] = self._wrap(name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        if self.names is None or KTDATA_SPAN in self.names:
            ktdata = modules["ktsecret.encoding"].KtData
            self._patches.append((ktdata, "__post_init__", ktdata.__post_init__))
            ktdata.__post_init__ = self._wrap(KTDATA_SPAN, ktdata.__post_init__)
        self._root_thread = threading.get_ident()
        self._root_stack = self._stack()
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        return False

    def durations(self, name) -> list:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, f) -> None:
        """Write every span to an open text file, one JSON object per line."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        for s in self.spans:
            f.write(json.dumps(s.to_json(ids)) + "\n")
