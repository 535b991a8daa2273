"""In-memory span tracer for the traced benchmark run.

The tracer replaces the public functions of each package module with
wrappers that record a span (id, name, start, end, parent id) and keep, per
function, the call count, the inclusive time and the time spent in traced
children, so self time = inclusive - children.

``from x import y`` copies a binding, so a function is replaced under every
name that refers to it in any package module (``cosets._frame_height`` is
``decompose.height``, ``cli.make_partition`` is ``partitions.make_partition``).
A module or function the program no longer has is simply not wrapped;
``Tracer.defined`` tells the caller which names exist.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time

# Spans at depth 0 and 1 are always kept; deeper ones until this many spans
# are held, after which they only update the per-function totals.
SPAN_CAP = 20_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, inclusive_s, children_s]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.defined: set[str] = set()
        self.observed: dict[str, list] = {}
        self._observers: dict[str, object] = {}
        self._stack: list[list] = []
        self._ids = itertools.count()

    def observe(self, name: str, digest) -> None:
        """Keep ``digest(result, calls_inside)`` for every call of ``name``,
        where ``calls_inside`` maps each traced name to the calls made
        during that call."""
        self._observers[name] = digest
        self.observed[name] = []

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def self_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[1] - stat[2] if stat else 0.0

    def inclusive_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0

    def wrap(self, name: str, fn, split_arg: str | None = None):
        """Wrapper of ``fn`` recording spans named ``name``, or
        ``name.<value of split_arg>`` when a split argument is given."""
        stack, ids, perf, spans = self._stack, self._ids, time.perf_counter, self.spans
        sig = inspect.signature(fn) if split_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                label = f"{name}.{bound.arguments[split_arg]}"
            stat = self.stats.get(label)
            if stat is None:
                stat = self.stats[label] = [0, 0.0, 0.0]
            observer = self._observers.get(label)
            before = {k: v[0] for k, v in self.stats.items()} if observer else None
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(stack) < 2 or len(spans) < SPAN_CAP:
                    spans.append((frame[0], label, start, end,
                                  parent[0] if parent is not None else None))
                else:
                    self.dropped += 1
            if observer is not None:
                inside = {k: v[0] - before.get(k, 0) for k, v in self.stats.items()}
                self.observed[label].append(observer(result, inside))
            return result

        return traced


def install(tracer: Tracer, package: str, layers: tuple[str, ...],
            split: dict[str, str]) -> tuple[list, list[str]]:
    """Wrap every public function of ``package.<layer>`` where it is looked up.

    Returns (patches for ``uninstall``, layers whose module is missing).
    """
    modules, missing = {}, []
    for layer in layers:
        try:
            modules[layer] = importlib.import_module(f"{package}.{layer}")
        except ModuleNotFoundError:
            missing.append(layer)
    names = {}
    for layer, mod in modules.items():
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                names[value] = f"{layer}.{attr}"
    tracer.defined.update(names.values())
    wrappers = {fn: tracer.wrap(name, fn, split.get(name)) for fn, name in names.items()}
    patches = []
    for mod in (importlib.import_module(package), *modules.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                patches.append((mod, attr, value))
    return patches, missing


def uninstall(patches: list) -> None:
    for mod, attr, original in patches:
        setattr(mod, attr, original)
