"""Outside-in layer tracing of pvcdb.

Inside a ``with Tracer()`` block, public functions of pvcdb's modules are
replaced by wrappers; nothing in ``src/`` changes.  A wrapper records a
span (name, start, end, parent span, op id) and the counters of its
layer.  While a wrapped function runs, its module attributes point back
at the original, so recursive calls through the module global
(``prune_all``, ``distribution``) run unwrapped: they count once and add
no stack frames.  Calls that other code reaches through its own imported
name are wrapped where that name lives, for example ``convolve`` and
``mix`` as ``pvcdb.dtree`` sees them.

A layer's self time (``busy_s``) is its spans' durations minus their
child spans.  Counting work done after a call (walking a returned tree)
is recorded as a ``trace.bookkeeping`` child span, so it is charged to
neither the layer nor its caller.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from pvcdb import algebra as alg
from pvcdb import cli, dtree, engine, exprtext, tractability

OP = "op"
BOOKKEEPING = "trace.bookkeeping"


def _terms(expr):
    """Monoid terms in an expression; what pruning removes."""
    stack, count = [expr], 0
    while stack:
        node = stack.pop()
        if isinstance(node, alg.Scaled):
            count += 1
            stack.append(node.weight)
        elif isinstance(node, (alg.Add, alg.Mul)):
            stack.extend(node.parts)
        elif isinstance(node, alg.Cmp):
            stack.extend((node.left, node.right))
        elif isinstance(node, alg.MSum):
            stack.extend(node.terms)
    return count


def _count_load(c, args, kwargs, db):
    c["rows"] += sum(len(t.rows) for t in db.tables.values())


def _count_evaluate(c, args, kwargs, table):
    c["rows_out"] += len(table.rows)


def _count_prune(c, args, kwargs, out):
    c["terms_in"] += _terms(args[0])
    c["terms_out"] += _terms(out)


def _count_shortcut(c, args, kwargs, out):
    c["attempts"] += 1
    c["hits"] += out is not None


def _count_tree(c, args, kwargs, tree):
    c["nodes"] += dtree.node_count(tree)
    c["mutex_nodes"] += dtree.mutex_count(tree)


def _count_support(c, args, kwargs, out):
    c["support_out"] += len(out)


# (layer, [(module, attribute), ...], counter or None, reported metrics).
# Every attribute under which callers reach the function is patched.
SPANS = (
    ("cli.load_database", [(cli, "load_database")], _count_load, ("busy_s", "calls", "rows")),
    ("cli.load_probabilities", [(cli, "load_probabilities")], None, ("busy_s",)),
    ("cli.parse_query", [(cli, "parse_query")], None, ("busy_s",)),
    ("exprtext.parse_expr", [(cli, "parse_expr"), (exprtext, "parse_expr")], None,
     ("busy_s", "calls")),
    ("engine.answer_distributions",
     [(cli, "answer_distributions"), (engine, "answer_distributions")], None, ("busy_s",)),
    ("engine.evaluate", [(engine, "evaluate")], _count_evaluate, ("busy_s", "rows_out")),
    ("dtree.prune_all", [(dtree, "prune_all")], _count_prune,
     ("busy_s", "terms_in", "terms_out")),
    ("tractability.conditional_group_shortcut",
     [(tractability, "conditional_group_shortcut")], _count_shortcut,
     ("busy_s", "attempts", "hits")),
    ("dtree.compile", [(dtree, "compile")], _count_tree,
     ("busy_s", "calls", "nodes", "mutex_nodes", "failures")),
    ("dtree.compile_joint", [(dtree, "compile_joint")], _count_tree,
     ("busy_s", "calls", "nodes", "mutex_nodes", "failures")),
    ("dtree.distribution", [(dtree, "distribution")], _count_support,
     ("busy_s", "support_out")),
)

# Leaf combinators called once per d-tree node: counted, not spanned.
COUNTED = (
    ("prob.convolve", dtree, "convolve", lambda args: len(args[0]) * len(args[1])),
    ("prob.mix", dtree, "mix", lambda args: sum(len(d) for d in args[1])),
)

#: The reported metrics of each layer: ``busy_s`` is self time, the
#: others are counters.
METRICS = tuple((layer, names) for layer, _, _, names in SPANS) + tuple(
    (layer, ("calls", "pairs")) for layer, _, _, _ in COUNTED
)


class Tracer:
    """Spans and counters of the calls made inside its ``with`` blocks;
    both accumulate over successive blocks."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.stack = []
        self.op_id = None
        self.counters = {}
        self._originals = []

    def counter(self, layer):
        return self.counters.setdefault(layer, Counter())

    def __enter__(self):
        """Install the wrappers."""
        for layer, patches, count, _ in SPANS:
            self._wrap_span(layer, patches, count)
        for layer, module, attr, pairs in COUNTED:
            self._wrap_count(layer, module, attr, pairs)
        return self

    def __exit__(self, *exc):
        """Put the original functions back."""
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op_id])
        self.stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def run_op(self, op_id, fn):
        """Run one op under a root span."""
        self.op_id = op_id
        index = self._open(OP)
        try:
            return fn()
        finally:
            self._close(index)

    def _wrap_span(self, layer, patches, count):
        original = getattr(*patches[0])
        counters = self.counter(layer)

        def wrapper(*args, **kwargs):
            for module, attr in patches:
                setattr(module, attr, original)
            index = self._open(layer)
            try:
                out = original(*args, **kwargs)
            except BaseException:
                counters["failures"] += 1
                raise
            finally:
                self._close(index)
                for module, attr in patches:
                    setattr(module, attr, wrapper)
            counters["calls"] += 1
            if count is not None:
                index = self._open(BOOKKEEPING)
                count(counters, args, kwargs, out)
                self._close(index)
            return out

        for module, attr in patches:
            self._originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def _wrap_count(self, layer, module, attr, pairs):
        original = getattr(module, attr)
        counters = self.counter(layer)

        def wrapper(*args, **kwargs):
            counters["calls"] += 1
            counters["pairs"] += pairs(args)
            return original(*args, **kwargs)

        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def busy(self):
        """Self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start - child_time[i]
        return busy

    def dump(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
