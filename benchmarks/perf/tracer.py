"""Spans around the calls into geomphase's layers, recorded from outside.

Installing a Tracer replaces every module binding of a public layer
function (and every public method of a class defined in a layer module)
with a wrapper that times the call. The span name is
``<layer>.<function>``, where the layer is the module that defines the
function, so ``geomphase.holonomy.matrix_log_unitary`` and
``geomphase.linalg.matrix_log_unitary`` feed the same
``linalg.matrix_log_unitary`` span. Calls made inside a kernel closure
(the Jacobi solve inside ``eigh_batch``) go through no binding and stay
invisible.

A span's self time is its duration minus the durations of the spans it
encloses. Leaving the tracer puts every original binding back.
"""

import inspect
import sys
import time

# Modules whose functions are layers, and the names their spans carry.
# The kernel module is private, so its layer name drops the underscore.
LAYERS = {
    "geomphase.models": "models",
    "geomphase._kernels": "kernels",
    "geomphase.linalg": "linalg",
    "geomphase.holonomy": "holonomy",
    "geomphase.action": "action",
    "geomphase.evolution": "evolution",
    "geomphase.invariants": "invariants",
    "geomphase.ringstate": "ringstate",
}


def _lead(minus=0):
    def items(args, kwargs, result):
        return int(args[0].shape[0]) - minus
    return items


# Work done per call, for the spans whose leading dimension is the
# work: intervals of a path, steps of a run, matrices of a stack.
ITEMS = {
    "kernels.eigh_batch": _lead(),
    "kernels.overlap_smins": _lead(minus=1),
    "kernels.align_frames": _lead(minus=1),
    "kernels.chain_product": _lead(),
    "kernels.propagate": _lead(),
    "holonomy.connection_samples": lambda a, kw, r: int(r.shape[0]),
    "holonomy.sample_frames": lambda a, kw, r: int(r.steps),
    "evolution.evolve": lambda a, kw, r: int(r.steps),
}


class Stat:
    __slots__ = ("calls", "items", "self_s")

    def __init__(self):
        self.calls = 0
        self.items = 0
        self.self_s = 0.0


class Tracer:
    """Context manager that wraps the layer bindings of an imported
    geomphase and accumulates per-span counts and self times."""

    def __init__(self, error_type):
        self._error_type = error_type
        self._saved = []
        self._stack = []
        self._last_error = None
        self.reset()

    def reset(self):
        """Start a fresh tally (the bindings stay wrapped)."""
        self.stats = {}
        self.failed = {layer: 0 for layer in LAYERS.values()}
        self.props_bytes = 0
        self.self_total = 0.0

    def stat(self, name):
        return self.stats.get(name) or Stat()

    def __enter__(self):
        wrappers = {}

        def wrapped(fn, layer):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, layer, f"{layer}.{fn.__name__}")
            return wrappers[fn]

        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "geomphase" or modname.startswith("geomphase.")):
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ in LAYERS:
                    self._replace(module, name, wrapped(value, LAYERS[value.__module__]))
                elif (inspect.isclass(value) and value.__module__ in LAYERS
                      and value.__module__ == modname):
                    for attr, member in list(vars(value).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._replace(value, attr, wrapped(member, LAYERS[modname]))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False

    def _replace(self, owner, name, new):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _wrap(self, fn, layer, span):
        items = ITEMS.get(span)
        is_evolve = span == "evolution.evolve"
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self._error_type as e:
                # count an error once, in the innermost span it left
                if e is not self._last_error:
                    self._last_error = e
                    self.failed[layer] += 1
                raise
            finally:
                took = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += took
                st = self.stats.get(span)
                if st is None:
                    st = self.stats[span] = Stat()
                st.calls += 1
                st.self_s += took - children
                self.self_total += took - children
            if items is not None:
                st.items += items(args, kwargs, result)
            if is_evolve:
                props = getattr(result, "propagators", None)
                self.props_bytes += 0 if props is None else props.nbytes
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper
