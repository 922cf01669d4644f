"""Per-layer tracing of the rectidistill package, from outside the package.

The tracer wraps named package functions in place and aggregates, per
(root span, function), the call count, total time and self time. Self time
is total time minus the time of traced calls made underneath. The root
span is the outermost traced call, which the benchmark makes one per CLI
call (``cli.distill`` and so on), so every count can be attributed to the
CLI subcommand that caused it.

Counters are aggregated instead of storing one span per call, because hot
leaves such as ``numerics.as_prob_vector`` run ~10^5 times per distill.

Wrapping is by identity: every ``rectidistill.*`` module attribute that *is*
the original function gets the wrapper, so names bound with
``from .numerics import softmax_rows`` (or under an alias) are traced too.
A requested name that no longer exists is skipped and reported in
``missing``, so a refactor that deletes a function does not break the run.
"""

import functools
import importlib
import os
import sys
import time

PACKAGE = "rectidistill"


class Tracer:
    """Aggregating span recorder; install() patches, uninstall() restores."""

    def __init__(self, names, byte_args=()):
        self.names = tuple(names)
        self.byte_args = frozenset(byte_args)  # names whose first arg is a file path
        self.stats = {}  # (root, name) -> [calls, total_s, self_s]
        self.bytes_read = {}  # name -> bytes of the files passed in
        self.missing = []
        self._stack = []  # one [root, child_s] frame per active traced call
        self._patched = []  # (module, attribute, original)

    def _record(self, name, fn, args, kwargs):
        stack = self._stack
        root = stack[0][0] if stack else name
        frame = [root, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            rec = self.stats.get((root, name))
            if rec is None:
                rec = self.stats[(root, name)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a traced span called ``name``."""
        return self._record(name, fn, args, kwargs)

    def _wrap(self, name, fn):
        record = self._record
        if name in self.byte_args:
            sizes = self.bytes_read

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if args and isinstance(args[0], (str, os.PathLike)) and os.path.exists(args[0]):
                    sizes[name] = sizes.get(name, 0) + os.path.getsize(args[0])
                return record(name, fn, args, kwargs)
        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return record(name, fn, args, kwargs)

        return wrapper

    def install(self):
        self.missing = []
        wrappers = {}  # id(original) -> (original, wrapper)
        for name in self.names:
            module_name, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self, root=None):
        """{name: (calls, total_s, self_s)} summed over roots, or for one root."""
        out = {}
        for (r, name), (calls, total, self_s) in self.stats.items():
            if root is not None and r != root:
                continue
            c, t, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + calls, t + total, s + self_s)
        return out

    def roots(self):
        return sorted({r for r, _ in self.stats})
