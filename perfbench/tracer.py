"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of the thetalab layer modules from
outside the package and rebinds each name that any thetalab module holds,
including names imported with ``from ... import`` (``cli.execute`` calls
``gap_reduced_integral`` through ``cli``'s own globals, so that binding is
replaced too).  Each call becomes a span ``[name, parent, start, end]`` kept
in memory.

Kernel functions are leaves that quadrature callbacks call up to millions
of times per request, so their calls are folded into the enclosing span as
a call count and a time sum instead of one span each; self times come out
the same.  Calls made from inside a kernel call are not traced.
"""

import inspect
import time
from contextlib import contextmanager

# module -> layer label; the order is bottom-up
LAYERS = ("kernels", "chaos", "simplexquad", "sampler", "estimators",
          "variational", "cli")
LEAF_LAYER = "kernels"

# span record fields
NAME, PARENT, START, END, LEAF_N, LEAF_S, OK, NOTE = range(8)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    ``notes`` maps a qualified name such as ``"sampler.sample_bm"`` to a
    function ``(bound_arguments, result) -> number`` whose value is stored
    on the span, e.g. the number of paths a sampler call produced.
    """

    def __init__(self, notes=None):
        self.notes = dict(notes or {})
        self.names = []          # name id -> "layer.function"
        self.layer_of = []       # name id -> layer
        self.spans = []          # list of span records
        self.stack = []          # indices of open spans
        self.off = 0             # > 0: calls pass through untraced
        self.root_leaf_n = 0     # leaf calls with no enclosing span
        self.root_leaf_s = 0.0
        self.events = []         # (layer of innermost open span, label)
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the public functions of every layer module of ``package``."""
        import sys
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == package.__name__
                                        or name.startswith(
                                            package.__name__ + "."))}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[f"{package.__name__}.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, attr))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    @contextmanager
    def paused(self):
        self.off += 1
        try:
            yield
        finally:
            self.off -= 1

    def mark(self):
        """Index of the next span; pass it to :meth:`reset`."""
        return len(self.spans)

    def reset(self, mark):
        """Close what the spans since ``mark`` left open; True if any.

        A timeout raised by a signal can land inside a wrapper between two
        of its bookkeeping steps: ``off`` then stays raised, an index stays
        on the stack, or a span keeps no end time.  No span may stay open
        from one request into the next, so open spans end now, marked not
        ok, and the stack and ``off`` are cleared.
        """
        now = time.perf_counter()
        dirty = bool(self.off or self.stack)
        for rec in self.spans[mark:]:
            if rec[END] == 0.0:
                rec[END], rec[OK] = now, False
                dirty = True
        self.off = 0
        del self.stack[:]
        return dirty

    def current_layer(self):
        if not self.stack:
            return None
        return self.layer_of[self.spans[self.stack[-1]][NAME]]

    def event(self, label):
        """Attribute an event (a captured warning) to the innermost span."""
        self.events.append((self.current_layer(), label))

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer, attr):
        name_id = len(self.names)
        qual = f"{layer}.{attr}"
        self.names.append(qual)
        self.layer_of.append(layer)
        clock = time.perf_counter
        tracer = self

        if layer == LEAF_LAYER:
            def leaf(*args, **kwargs):
                if tracer.off:
                    return fn(*args, **kwargs)
                tracer.off += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    tracer.off -= 1
                    if tracer.stack:
                        rec = tracer.spans[tracer.stack[-1]]
                        rec[LEAF_N] += 1
                        rec[LEAF_S] += dt
                    else:
                        tracer.root_leaf_n += 1
                        tracer.root_leaf_s += dt
            return leaf

        note = self.notes.get(qual)
        sig = inspect.signature(fn) if note is not None else None

        def span(*args, **kwargs):
            if tracer.off:
                return fn(*args, **kwargs)
            rec = [name_id, tracer.stack[-1] if tracer.stack else -1,
                   clock(), 0.0, 0, 0.0, True, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[OK] = False
                raise
            finally:
                rec[END] = clock()
                tracer.stack.pop()
            if note is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[NOTE] = note(bound.arguments, result)
            return result
        return span

    # -- analysis ---------------------------------------------------------

    def layer_totals(self):
        """Per layer: spans, self seconds, leaf calls made from its spans."""
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]
        out = {layer: {"spans": 0, "self_s": 0.0, "leaf_calls": 0}
               for layer in LAYERS}
        for i, rec in enumerate(self.spans):
            t = out[self.layer_of[rec[NAME]]]
            t["spans"] += 1
            t["self_s"] += rec[END] - rec[START] - child_s[i] - rec[LEAF_S]
            t["leaf_calls"] += rec[LEAF_N]
        leaf = out[LEAF_LAYER]
        leaf["spans"] = leaf["leaf_calls"] = \
            self.root_leaf_n + sum(r[LEAF_N] for r in self.spans)
        leaf["self_s"] = self.root_leaf_s + sum(r[LEAF_S] for r in self.spans)
        return out

    def select(self, *quals, outermost=False):
        """Span records of the named functions.

        With ``outermost`` only spans whose parent is not itself one of
        the named functions are kept.
        """
        ids = {i for i, q in enumerate(self.names) if q in quals}
        recs = [r for r in self.spans if r[NAME] in ids]
        if outermost:
            recs = [r for r in recs
                    if r[PARENT] < 0 or self.spans[r[PARENT]][NAME] not in ids]
        return recs

    def dump(self, fh):
        """Write spans as JSON lines: name, parent, start, end, leaf calls."""
        import json
        for i, rec in enumerate(self.spans):
            fh.write(json.dumps({
                "id": i, "name": self.names[rec[NAME]], "parent": rec[PARENT],
                "start": rec[START], "end": rec[END],
                "leaf_calls": rec[LEAF_N], "leaf_s": rec[LEAF_S],
                "ok": rec[OK], "note": rec[NOTE]}) + "\n")
