"""Layer spans recorded from outside the library.

:class:`Tracer` replaces every public function of the sublra layer modules
with a timing wrapper, in every namespace where callers look the function
up: ``sublra.cross.maxvol_rows`` (the name ``cross`` imported from ``cur``)
is wrapped as well as ``sublra.cur.maxvol_rows`` itself.  Each call becomes
a span ``(id, parent, layer, name, start_ns, end_ns, reads)``; the parent is
the innermost span open when the call started, so a layer's self time is its
span time minus the time of its child spans.  Spans are kept in memory and
written out by the caller when the run ends.  ``uninstall`` puts every
module attribute back.

Entry reads come from the library's own ``counter=`` argument: when a caller
passes none, the wrapper passes a fresh counter, which changes nothing but
lets the span record what the call read.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("synth", "matio", "testmat", "sketch", "cur", "cross", "leverage",
          "linalg", "bench", "montecarlo")

MAXVOL = ("maxvol_rows", "select_maxvol_rows")
MATIO_READS = ("read_matrix", "read_lram", "read_csv_matrix")


def _count_result(counts, name, result):
    """Counts taken from return values at the layer boundary."""
    if name == "maxvol_rows":
        counts["cur.maxvol_swaps"] += result.sweeps
    elif name == "ca_iterate":
        state = result[1]
        counts["cross.sweeps"] += state.sweeps
        counts["cross.restarts"] += state.restarts
    elif getattr(result, "degenerate", False):
        counts["sketch.degenerate"] += 1
    if name in MATIO_READS:
        counts["matio.bytes"] += result.nbytes


class Tracer:
    """Install with ``with Tracer(): ...``; ``only`` limits the wrapped
    functions to the given names."""

    def __init__(self, only=None):
        self.only = only
        self.spans = []
        self.counts = Counter()
        self._stack = [None]
        self._depth = Counter()
        self._next_id = 0
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        from sublra.counting import OpCounter
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sublra.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")
                        and (self.only is None or name in self.only)):
                    wrappers[fn] = self._wrap(fn, layer, name, OpCounter)
        for module in [m for k, m in sys.modules.items()
                       if k == "sublra" or k.startswith("sublra.")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, layer, name, counter_type):
        params = list(inspect.signature(fn).parameters)
        counter_pos = params.index("counter") if "counter" in params else None
        clock = time.perf_counter_ns
        spans, stack, depth, counts = (self.spans, self._stack, self._depth,
                                       self.counts)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = None
            if counter_pos is not None:
                counter = kwargs.get("counter")
                if counter is None and len(args) > counter_pos:
                    counter = args[counter_pos]
                if counter is None:
                    counter = kwargs["counter"] = counter_type()
                reads0 = counter.entry_reads
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            depth[layer] += 1
            outer = depth[layer] == 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[layer] -= 1
                reads = (0 if counter is None
                         else counter.entry_reads - reads0)
                spans.append((sid, parent, layer, name, t0, t1, reads, outer))
            if outer or name == "maxvol_rows":
                _count_result(counts, name, result)
            return result

        return wrapper

    # -- root spans for harness-level units (one trial or campaign) ---------

    def open_root(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid, time.perf_counter_ns()

    def close_root(self, handle, name):
        sid, t0 = handle
        self._stack.pop()
        self.spans.append((sid, None, "harness", name, t0,
                           time.perf_counter_ns(), 0, True))

    # -- summaries ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer totals: ``<layer>.s`` (outermost spans), ``.self_s``,
        ``.calls`` (outermost spans) and ``.reads``, plus the cur, matio and
        count metrics the benchmark reports."""
        child_ns = Counter()
        by_id = {}
        for span in self.spans:
            by_id[span[0]] = span
            if span[1] is not None:
                child_ns[span[1]] += span[5] - span[4]
        out = Counter()
        for sid, parent, layer, name, t0, t1, reads, outer in self.spans:
            dur = (t1 - t0) * 1e-9
            out[f"{layer}.self_s"] += dur - child_ns[sid] * 1e-9
            if outer:
                out[f"{layer}.s"] += dur
                out[f"{layer}.calls"] += 1
                out[f"{layer}.reads"] += reads
            if name in MAXVOL and (parent is None
                                   or by_id[parent][3] not in MAXVOL):
                out["cur.maxvol_s"] += dur
            if name == "maxvol_rows":
                out["cur.maxvol_calls"] += 1
            if name == "log_volume":
                out["cur.log_volume_calls"] += 1
            if name in MATIO_READS and outer:
                out["matio.read_s"] += dur
        out.update(self.counts)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, layer, name, t0, t1, reads, _ in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "layer": layer, "name": name,
                                     "start_ns": t0, "end_ns": t1,
                                     "reads": reads}) + "\n")
