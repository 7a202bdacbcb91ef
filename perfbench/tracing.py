"""Spans around the explor package's functions, installed from outside it.

Nothing in ``src/`` changes. :func:`install` replaces each traced function at
every place it is bound -- the module that defines it, every explor module
that imported the name, and the class for methods -- with a wrapper that
records one span per call, and returns a function that puts the originals
back. Because the package looks these names up at call time, the wrappers
see every internal call as well as the calls the benchmark makes.

A span is ``[name, start, end, parent, count, flop]``: ``parent`` is the index
of the enclosing span in the same list (-1 at top level), ``count`` is the
rows or bytes the call handled where that is defined, and ``flop`` is the
floating-point work computed from the layer widths and rows (not measured).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np


class Tracer:
    """In-memory span list for one process; single-threaded by design."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, measure):
        spans_of = self

        def traced(*args, **kwargs):
            spans = spans_of.spans
            stack = spans_of._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span[1] = start
            span[2] = end
            if measure is not None:
                span[4], span[5] = measure(args, out)
            return out

        traced.__wrapped__ = fn
        return traced


def _rows(arg_index):
    return lambda args, out: (int(np.shape(args[arg_index])[0]), 0)


def _widths(net):
    return [net.input_dim, *net.hidden, net.heads]


def forward_flop(net, n):
    """Multiply-adds of the forward matrix products, two flops each."""
    w = _widths(net)
    return 2 * n * sum(a * b for a, b in zip(w, w[1:]))


def backward_flop(net, n):
    """Weight-gradient products for every layer plus the input-gradient
    products for every layer but the first, two flops per multiply-add."""
    w = _widths(net)
    layers = list(zip(w, w[1:]))
    total = 0
    for i, (a, b) in enumerate(layers):
        total += 2 * n * a * b * (1 if i == 0 else 2)
    return total


def _forward(args, out):
    net, z = args[0], args[1]
    n = int(np.shape(z)[0])
    return n, forward_flop(net, n)


def _backward(args, out):
    net, dlogits = args[0], args[2]
    n = int(dlogits.shape[0])
    return n, backward_flop(net, n)


def _file_bytes(arg_index):
    return lambda args, out: (os.path.getsize(args[arg_index]), 0)


def _dataset_rows(args, out):
    return out.n, 0


def _targets():
    """(layer name, owner, attribute, measure) for every traced call site."""
    import explor.cli
    import explor.data
    import explor.latent
    import explor.metrics
    import explor.model
    import explor.pseudolabel
    import explor.splits

    m = explor.model
    out = [
        ("pseudolabel.predict_matrix", explor.pseudolabel.PseudoLabelEnsemble, "predict_matrix", _rows(1)),
        ("pseudolabel.fit_tree", explor.pseudolabel, "fit_tree", None),
        ("pseudolabel.fit_ensemble", explor.pseudolabel, "fit_ensemble", None),
        ("model.forward", m.ExplorNet, "forward", _forward),
        ("model.backward", m.ExplorNet, "backward", _backward),
        ("model.elu", m, "elu", None),
        ("model.elu_grad", m, "elu_grad", None),
        ("model.sigmoid", m, "sigmoid", None),
        ("model.loss_and_grads", m, "loss_and_grads", None),
        ("model.adam_step", m.Adam, "step", None),
        ("model.train", m, "train", None),
        ("model.train_erm", m, "train_erm", None),
        ("model.train_pl_ens", m, "train_pl_ens", None),
        ("model.predict", m, "predict", None),
        ("model.save_bundle", m, "save_bundle", _file_bytes(1)),
        ("model.load_bundle", m, "load_bundle", _file_bytes(0)),
        ("latent.fit_pca", explor.latent, "fit_pca", None),
        ("latent.encode", explor.latent, "encode", _rows(1)),
        ("latent.expand_with", explor.latent, "expand_with", None),
        ("data.load_csv", explor.data, "load_csv", _dataset_rows),
        ("data.save_csv", explor.data, "save_csv", None),
        ("metrics.evaluate", explor.metrics, "evaluate", None),
        ("splits.cluster_split", explor.splits, "cluster_split", None),
    ]
    out += [("cli", explor.cli, name, None) for name in sorted(vars(explor.cli)) if name.startswith("cmd_")]
    return out


def install(tracer: Tracer):
    """Wrap every target for ``tracer``; returns a function that unwraps them."""
    targets = _targets()  # imports every explor module it wraps
    modules = [mod for name, mod in sorted(sys.modules.items()) if name == "explor" or name.startswith("explor.")]
    undo = []
    for layer, owner, attr, measure in targets:
        orig = getattr(owner, attr)
        if isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(layer, orig, measure))
            undo.append((owner, attr, orig))
            continue
        wrapped = tracer.wrap(layer, orig, measure)
        for mod in modules:
            if vars(mod).get(attr) is orig:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, orig))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def self_times(spans):
    """Per-span duration minus the durations of its direct child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def aggregate(spans):
    """Layer name -> {calls, count, flop, self_s} summed over ``spans``."""
    out = {}
    for s, self_s in zip(spans, self_times(spans)):
        agg = out.setdefault(s[0], {"calls": 0, "count": 0, "flop": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["count"] += s[4]
        agg["flop"] += s[5]
        agg["self_s"] += self_s
    return out


def join(span_lists):
    """Concatenate span lists from separate processes, re-basing parent indices."""
    out = []
    for spans in span_lists:
        base = len(out)
        out.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4], s[5]] for s in spans)
    return out
