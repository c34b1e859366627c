"""Span tracing around the library's public functions, from outside the library.

``install`` replaces each traced function with a wrapper, both where it is
defined and under every name that a ``vkpush`` module imported it as (for
example ``pusher.splice`` next to ``diagram.splice``), so calls made from
inside the library are seen too.  A target that no longer exists is skipped
and its layer reports zero calls.

Spans live in memory: name, start, end, parent span and the operation they
belong to.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, module, owner class or None, attribute)
TARGETS = (
    ("presentation.load", "vkpush.presentation", "Presentation", "from_json_dict"),
    ("scheme.load", "vkpush.scheme", "PushingScheme", "from_json_dict"),
    ("scheme.certify", "vkpush.scheme", None, "certify_coverage"),
    ("scheme.choose_entry", "vkpush.scheme", None, "choose_entry"),
    ("scheme.gap", "vkpush.scheme", None, "gap"),
    ("oracle.sample", "vkpush.oracle", None, "sample_corridor_certificates"),
    ("oracle.fill", "vkpush.oracle", None, "wasteful_diagram"),
    ("oracle.fill", "vkpush.oracle", None, "tower_diagram"),
    ("oracle.collar", "vkpush.oracle", None, "annular_collar"),
    ("oracle.brute_area", "vkpush.oracle", None, "brute_area"),
    ("oracle.search_filling", "vkpush.oracle", None, "search_filling"),
    ("oracle.build_entry", "vkpush.oracle", None, "build_scheme_entry"),
    ("diagram.build", "vkpush.diagram", "Diagram", "build"),
    ("diagram.builder_build", "vkpush.diagram", "DiagramBuilder", "build"),
    ("diagram.splice", "vkpush.diagram", None, "splice"),
    ("diagram.star", "vkpush.diagram", None, "vertex_star"),
    ("diagram.select", "vkpush.diagram", "Diagram", "max_norm_vertex"),
    ("diagram.metrics", "vkpush.diagram", "Diagram", "metrics"),
    ("diagram.corner", "vkpush.diagram", None, "mirror"),
    ("diagram.corner", "vkpush.diagram", None, "rebase_on_boundary"),
    ("pusher.run", "vkpush.pusher", None, "push_to_corridor"),
    ("pusher.step", "vkpush.pusher", None, "push_step"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


def _darts_validated(args, kwargs):
    origin = kwargs.get("origin")
    return len(origin) if origin is not None else 0


def _area_before(args, kwargs):
    d = args[0] if args else kwargs.get("d")
    return d.area


# extra value recorded on a span, computed from the call's arguments
_EXTRA = {
    "diagram.build": _darts_validated,
    "pusher.step": _area_before,
}


class Tracer:
    """Collects spans while ``enabled``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start_ns, end_ns, parent, op, extra]
        self._stack: list[int] = []
        self.op: int | None = None
        self.enabled = False

    def wrap(self, layer, fn):
        extra_of = _EXTRA.get(layer)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            extra = extra_of(args, kwargs) if extra_of is not None else None
            stack = tracer._stack
            rec = [layer, 0, 0, stack[-1] if stack else -1, tracer.op, extra]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the targets not found."""
        missing = []
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "vkpush"]
        for layer, modname, owner, attr in TARGETS:
            mod = sys.modules.get(modname)
            cls = getattr(mod, owner, None) if owner else None
            if mod is None or (owner and cls is None):
                missing.append(f"{modname}.{owner}.{attr}" if owner else f"{modname}.{attr}")
                continue
            if cls is not None:
                raw = cls.__dict__.get(attr)
                if raw is None:
                    missing.append(f"{modname}.{owner}.{attr}")
                elif isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(layer, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(layer, raw))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(layer, orig)
            for m in modules:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, name, wrapped)
        return missing

    def summary(self) -> dict:
        """Per layer: calls, self seconds and summed extras.

        Also the duration and area of every push step, and the darts that
        Diagram.build validated inside push_to_corridor.
        """
        spans = self.spans
        child = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {layer: {"calls": 0, "self_s": 0.0, "extra": 0} for layer in LAYERS}
        steps = []
        in_push = [False] * len(spans)
        push_darts = 0
        for i, rec in enumerate(spans):
            agg = out[rec[0]]
            agg["calls"] += 1
            agg["self_s"] += (rec[2] - rec[1] - child[i]) / 1e9
            if rec[5] is not None:
                agg["extra"] += rec[5]
            # parents precede children, so in_push of the parent is final here
            in_push[i] = rec[0] == "pusher.run" or (rec[3] >= 0 and in_push[rec[3]])
            if rec[0] == "diagram.build" and in_push[i]:
                push_darts += rec[5]
            if rec[0] == "pusher.step":
                steps.append(((rec[2] - rec[1]) / 1e6, rec[5]))
        return {"layers": out, "steps": steps, "push_darts": push_darts}
