"""In-memory span recorder for the traced benchmark run.

`install` wraps every public function that a ``sqstates`` module defines and
rebinds the wrapper in every ``sqstates`` namespace that holds the original
(``cli``, ``states`` and ``phasespace`` import ``evolve`` and others by name).
Each call appends one span ``[name, start_ns, end_ns, parent, size]``; the
list is written out once, by `dump`, when the traced process ends.  ``size``
is a work count for the two grid layers (grid points written or sampled) and
0 elsewhere.

This module imports only the standard library, so importing it before
``sqstates`` does not shift the import-time figures.
"""

import functools
import inspect
import json
import sys
import time

# Work counts recorded with a span: function name -> f(args, result).
_SIZES = {
    "phasespace.write_grid_csv": lambda args, result: args[1].values.size,
    "channel.density_grid": lambda args, result: result[2].size,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size_of = _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, 0]
            if size_of is not None:
                spans[index][4] = int(size_of(args, result))
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def install(tracer):
    """Wrap the public functions of every imported ``sqstates`` module."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "sqstates" or name.startswith("sqstates.")}
    wrappers = {}
    for modname, mod in modules.items():
        layer = modname.rpartition(".")[2]
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == modname):
                wrappers[id(value)] = tracer.wrap("%s.%s" % (layer, attr),
                                                  value)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
    return len(wrappers)
