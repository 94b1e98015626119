"""Span recorder that times qmix's layers from outside the program.

Each layer is one ``src/qmix`` module; a ninth layer, ``linalg``, is the
numpy/scipy dense kernels underneath.  ``Tracer.install`` wraps every
public function of each module, the public methods of ``Generator`` and
``WeightedSpace``, and the kernels, and rebinds each wrapper at every module
that holds the function by name (``from .operator_core import as_matrix``
binds a second name that must be rebound too).  ``uninstall`` puts the
originals back.  Nothing in ``src/`` is edited.

While an op is open (``begin_op`` .. ``end_op``) every wrapped call is timed.
Calls into the outer layers become spans: id, parent span, op id, name,
layer, start and end.  Hot leaf calls (the kernels, ``operator_core``,
``lp_space``, the ``Generator`` methods and a few per-state helpers) are
folded instead: their self time is added to the nearest enclosing span,
keyed by layer, and their calls are counted per op.  Every op also gets a
root span of layer ``bench``, whose own time is benchmark glue.

A layer's self time is derived from the spans alone: a span's own time is
its duration minus its child spans and the self time folded into it.  Spans
and counters stay in memory and are written out by ``dump`` when the run
ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "ls_estimator", "regularity", "mixing", "dirichlet_gap",
          "generators", "lp_space", "operator_core")

FOLDED_LAYERS = {"linalg", "operator_core", "lp_space"}
FOLDED_FUNCTIONS = {
    "dirichlet_gap.dirichlet", "dirichlet_gap.dirichlet_hat",
    "generators.stationary_state", "mixing.evolve", "mixing.distances",
    "mixing.trace_norm", "mixing.chi2_divergence",
    "mixing.relative_entropy_states", "regularity.h_functional",
}

# Outermost calls of a group are counted and timed inclusively (a
# ``build_*`` function calling another one counts once).
GROUPS = {
    "dirichlet_gap.spectral_gap": "dirichlet_gap.spectral_gap",
    "lp_space.WeightedSpace.ent": "lp_space.ent",
    "lp_space.WeightedSpace.ent1": "lp_space.ent",
    "lp_space.WeightedSpace.ent2": "lp_space.ent",
}
BUILD_GROUP = "generators.build"  # every module-level generators function

KERNELS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
           ("numpy.linalg", "svd"), ("scipy.linalg", "expm"),
           ("scipy.sparse.linalg", "eigsh"))


def _n3(name, args):
    """Dense-kernel work of one call as n^3 (m*n*min(m, n) for svd), summed
    over a stacked batch; 0 for the matrix-free eigsh."""
    if name == "linalg.eigsh" or not args:
        return 0
    shape = getattr(args[0], "shape", ())
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    batch = 1
    for k in shape[:-2]:
        batch *= k
    return batch * (m * n * min(m, n) if name == "linalg.svd" else n ** 3)


class Tracer:
    def __init__(self):
        self.op = None            # id of the open op; None: calls pass through
        self.op_labels = {}
        self.spans = []           # (id, parent, op, name, layer, start, end)
        self.folded = defaultdict(float)    # (span id, layer) -> self seconds
        self.calls = defaultdict(int)       # (op, name) -> calls
        self.group_calls = defaultdict(int)     # (op, group) -> outermost calls
        self.group_time = defaultdict(float)    # (op, group) -> inclusive seconds
        self.sums = defaultdict(float)      # (op, key) -> summed values
        self._stack = []          # frames: [anchor span id, child seconds]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._patches = []        # (owner, attribute, original)

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_id, label):
        self.op = op_id
        self.op_labels[op_id] = label
        self._next_id += 1
        self._stack.append([self._next_id, 0.0])
        self._root_start = time.perf_counter()

    def end_op(self):
        end = time.perf_counter()
        sid, _ = self._stack.pop()
        self.spans.append((sid, None, self.op, "op:" + self.op_labels[self.op],
                           "bench", self._root_start, end))
        self.op = None

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name, layer, group=None, after=None, folded=False):
        tracer = self
        folded = folded or layer in FOLDED_LAYERS or name in FOLDED_FUNCTIONS
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if folded:
                sid = None
                frame = [stack[-1][0], 0.0]
            else:
                tracer._next_id += 1
                sid = tracer._next_id
                frame = [sid, 0.0]
            outermost = False
            if group is not None:
                outermost = tracer._depth[group] == 0
                tracer._depth[group] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent = stack[-1]
                parent[1] += dur
                if sid is None:
                    tracer.folded[(frame[0], layer)] += dur - frame[1]
                else:
                    tracer.spans.append((sid, parent[0], op, name, layer, start, end))
                tracer.calls[(op, name)] += 1
                if group is not None:
                    tracer._depth[group] -= 1
                    if outermost:
                        tracer.group_calls[(op, group)] += 1
                        tracer.group_time[(op, group)] += dur
            if after is not None:
                after(tracer, op, args, result)
            return result

        return traced

    def install(self, qmix_modules):
        """Wrap the public functions of every qmix module and the kernels."""
        import importlib

        from qmix import generators, lp_space

        wrapped = {}
        for mod in qmix_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                group = BUILD_GROUP if layer == "generators" else GROUPS.get(name)
                after = _count_ratio_evals if name == "ls_estimator.estimate_alpha" else None
                wrapped[obj] = self._wrap(obj, name, layer, group, after)
        for cls, layer in ((generators.Generator, "generators"),
                           (lp_space.WeightedSpace, "lp_space")):
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                name = f"{layer}.{cls.__name__}.{attr}"
                group = GROUPS.get(name)
                if inspect.isfunction(obj):
                    self._patch(cls, attr, self._wrap(obj, name, layer, group, folded=True))
                elif isinstance(obj, property):
                    fget = self._wrap(obj.fget, name, layer, group, folded=True)
                    self._patch(cls, attr, property(fget, obj.fset, obj.fdel, obj.__doc__))
        for mod in qmix_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for modname, attr in KERNELS:
            mod = importlib.import_module(modname)
            name = f"linalg.{attr}"
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name, "linalg",
                                              after=_kernel_after(name)))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived numbers -------------------------------------------------------

    def layer_self_times(self):
        """Self seconds per layer (plus ``bench``), derived from the spans."""
        child = defaultdict(float)
        for sid, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        folded_in = defaultdict(float)
        out = defaultdict(float)
        for (sid, layer), t in self.folded.items():
            folded_in[sid] += t
            out[layer] += t
        for sid, _, _, _, layer, start, end in self.spans:
            out[layer] += (end - start) - child[sid] - folded_in[sid]
        return out

    def total(self, table, key):
        return sum(v for (_, k), v in table.items() if k == key)

    def dump(self, path):
        """Write spans, folded self times and per-op counters as JSONL."""
        folded = defaultdict(dict)
        for (sid, layer), t in self.folded.items():
            folded[sid][layer] = t
        with open(path, "w") as fh:
            for sid, parent, op, name, layer, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "layer": layer, "start": start, "end": end,
                                     "folded_self_s": folded.get(sid, {})}) + "\n")
            for table, kind in ((self.calls, "calls"), (self.group_calls, "group_calls"),
                                (self.group_time, "group_s"), (self.sums, "sums")):
                per_op = defaultdict(dict)
                for (op, key), v in table.items():
                    per_op[op][key] = v
                for op, values in sorted(per_op.items()):
                    fh.write(json.dumps({"op": op, "label": self.op_labels.get(op),
                                         kind: values}) + "\n")


def _count_ratio_evals(tracer, op, args, result):
    tracer.sums[(op, "ls_estimator.ratio_evals")] += result.n_evals


def _kernel_after(name):
    def after(tracer, op, args, result):
        tracer.sums[(op, "linalg.n3_sum")] += _n3(name, args)
    return after
