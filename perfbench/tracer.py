"""Per-layer tracing of the delpezzo package, installed from outside it.

`Tracer.install` replaces every public function of every ``delpezzo.*``
module, and the arithmetic methods of ``CycloNum``, with a wrapper that
records calls and self time.  Self time is a call's span minus the spans
of the wrapped calls made inside it, so the self times of one request add
up to the span of its outermost call, ``cli.main``.  A few wrapped
functions also record work counts taken from their return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# CycloNum arithmetic is the hot path of the exactnum layer.  Its operators
# are methods, not module functions, so they are wrapped by name;
# __sub__, __truediv__ and __pow__ reach them through these.
CYCLO_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "inverse": "inverse",
    "embed": "embed",
}

# work counts read from return values, keyed by wrapped name
COUNTERS = {
    "kernels.enumerate_cliques": lambda r: (("frames", int(r[0].shape[0])),),
    "weyl.involution_frames": lambda r: (
        ("frames_examined", r.frames_examined),
        ("exhausted", int(r.exhausted)),
    ),
    "weyl.close_group": lambda r: (("elements", r.order),),
    "realroots.isolate_real_roots": lambda r: (("roots", len(r)),),
    "dp1.classify_fibers": lambda r: (("fibers", len(r)),),
    "exactnum.CycloNum.mul": lambda r: ((f"calls_n{r.n}", 1),),
}


def package_modules() -> list:
    """Every submodule of delpezzo, imported."""
    pkg = importlib.import_module("delpezzo")
    return [
        importlib.import_module(f"delpezzo.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
        if info.name != "__main__"
    ]


def find_caches(modules) -> list:
    """Every functools cache on the modules and their classes.

    Found before `Tracer.install`, whose wrappers hide them.  Emptying them
    before each in-process pass makes every pass start as cold as a fresh
    CLI process and repeat exactly the same work.
    """
    caches = []
    for mod in modules:
        holders = [mod] + [c for c in vars(mod).values() if inspect.isclass(c) and c.__module__ == mod.__name__]
        for holder in holders:
            caches += [obj for obj in vars(holder).values() if callable(getattr(obj, "cache_clear", None))]
    return caches


class Tracer:
    """Calls, self time and work counts per wrapped function."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack = [0.0]

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        calls, self_s, counts = self.calls, self.self_s, self.counts
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                inner = stack.pop()
                stack[-1] += span
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + span - inner
            if counter is not None:
                for key, amount in counter(result):
                    key = f"{name}.{key}"
                    counts[key] = counts.get(key, 0) + amount
            return result

        return traced

    def install(self, modules) -> list[str]:
        """Wrap the public functions of the modules; return the wrapped names."""
        wrapped: dict[int, object] = {}
        names = []
        for mod in modules:
            # metric names start with a letter: _kernels is traced as kernels
            short = mod.__name__.split(".", 1)[1].lstrip("_")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                # plain functions and functools-cached ones; generators would
                # return before their work is done, so they stay unwrapped
                is_fn = inspect.isfunction(obj) or callable(getattr(obj, "cache_clear", None))
                if not is_fn or inspect.isgeneratorfunction(obj):
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                names.append(f"{short}.{attr}")
        # rebind every reference, including `from .x import f` copies
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        exactnum = importlib.import_module("delpezzo.exactnum")
        cls = exactnum.CycloNum
        by_fn: dict[int, object] = {}
        for attr, op in CYCLO_METHODS.items():
            fn = cls.__dict__[attr]
            if id(fn) not in by_fn:
                by_fn[id(fn)] = self._wrap(f"exactnum.CycloNum.{op}", fn)
                names.append(f"exactnum.CycloNum.{op}")
            setattr(cls, attr, by_fn[id(fn)])
        return names
