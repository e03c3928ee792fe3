"""Outside-in span tracer for the kmcrystals layers.

`install()` wraps the public callables of each layer from outside the
package: methods are replaced on their class, and module-level functions are
replaced in every kmcrystals module that holds them (a function imported by
name, such as `t_closure` in both `crystals` and `demazure`, lives in several
namespaces).  Each wrapped call records one span (name, start, end, parent)
in flat arrays kept in memory; `Tracer.summary()` turns the spans into call
counts and self times, and `Tracer.dump()` writes them out.

Self time of a span is its duration minus the durations of its direct child
spans, so the self times of all spans add up to the durations of the root
spans (the `cli.main` calls).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (span name, owner, attribute, observer).  The owner is "module:Class" for a
# method and "module" for a function.  Several callables may share one span
# name; their spans are then counted together.
SPANS = (
    ("binfinity.f", "binfinity:BSeq", "f", None),
    ("binfinity.e", "binfinity:BSeq", "e", None),
    ("binfinity.stats", "binfinity:BSeq", "eps", None),
    ("binfinity.stats", "binfinity:BSeq", "phi", None),
    ("paths.f", "paths:PLPath", "f", None),
    ("paths.e", "paths:PLPath", "e", None),
    ("paths.stats", "paths:PLPath", "eps", None),
    ("paths.stats", "paths:PLPath", "phi", None),
    ("crystals.tensor_ef", "crystals:TensorPair", "e", None),
    ("crystals.tensor_ef", "crystals:TensorPair", "f", None),
    ("crystals.t_closure", "crystals", "t_closure", "closure"),
    ("crystals.t_word_closure", "crystals", "t_word_closure", None),
    ("crystals.set_from_elements", "crystals", "set_from_elements", "set"),
    ("crystals.product_set", "crystals", "product_set", "set"),
    ("crystals.match", "crystals", "match_highest_weight", None),
    ("crystals.is_extremal", "crystals", "is_extremal", "extremal"),
    ("demazure.membership", "demazure:WindowedClosure", "contains", "hit"),
    ("demazure.oracle_ensure", "demazure:WindowedClosure", "ensure", None),
    ("demazure.recognize", "demazure", "recognize_demazure", "recognize"),
    ("demazure.demazure_set", "demazure", "demazure_set", None),
    ("demazure.decompose", "demazure", "decompose_tensor", None),
    ("demazure.check", "demazure", "check_equivalence", None),
    ("rootdata.weight_drop", "rootdata:RootDatum", "weight_drop", None),
    ("rootdata.weyl_mul", "rootdata:WeylElement", "__mul__", None),
    ("characters.demazure_op", "characters", "demazure_op", None),
    ("characters.key_expand", "characters", "key_expand", None),
    ("characters.char_of_set", "characters", "char_of_set", None),
    ("characters.key_positivity", "characters", "verify_key_positivity", None),
    ("cli.main", "cli", "main", None),
)

# Counted without a span: called too often for a span to be cheap, and its
# time is small next to its callers'.
COUNTS = (
    ("rootdata.pair", "rootdata:RootDatum", "pair"),
)


def _observe(kind, counters, name, result):
    if kind == "closure":
        counters[name + ".elements"] += len(result[0])
    elif kind == "set":
        counters[name + ".elements"] += len(result)
    elif kind == "hit":
        counters[name + ".hits"] += bool(result)
    elif kind == "extremal":
        counters[name + ".strings_checked"] += result.strings_checked
        counters[name + ".strings_unresolved"] += result.strings_unresolved
    elif kind == "recognize":
        stats = result[1]
        counters[name + ".states"] += stats.states
        counters[name + ".dead_ends"] += stats.dead_ends


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Span storage: four parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters = _Counters()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                _observe(observe, counters, name, result)
            return result

        return traced

    def count(self, name: str, fn):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the counters, the
        oracle rebuilds, the span count and the sum of all self times."""
        n = len(self.start)
        child = [0.0] * n
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for k in range(n):
            p = parent[k]
            if p >= 0:
                child[p] += end[k] - start[k]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        ids = {nm: j for j, nm in enumerate(self.names)}
        # an oracle rebuild is a t_word_closure called from WindowedClosure.ensure
        ensure = ids.get("demazure.oracle_ensure", -1)
        word = ids.get("crystals.t_word_closure", -1)
        rebuilds = 0
        for k in range(n):
            nid = name_of[k]
            calls[nid] += 1
            self_s[nid] += end[k] - start[k] - child[k]
            if nid == word and parent[k] >= 0 and name_of[parent[k]] == ensure:
                rebuilds += 1
        return {"spans": {nm: {"calls": calls[j], "self_s": self_s[j]}
                          for j, nm in enumerate(self.names)},
                "counters": dict(self.counters),
                "oracle_rebuilds": rebuilds,
                "span_count": n,
                "self_sum_s": sum(self_s)}

    def dump(self, path) -> None:
        """Write the spans as JSON: names, then one [name, parent, start, end]
        row per span (times in seconds on the perf_counter clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names":' + json.dumps(self.names) + ',"spans":[')
            for k in range(len(self.start)):
                fh.write(("," if k else "") + "[%d,%d,%.9f,%.9f]" % (
                    self.name_of[k], self.parent[k], self.start[k], self.end[k]))
            fh.write("]}\n")


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = sys.modules["kmcrystals." + mod_name]
    return getattr(mod, cls_name) if cls_name else mod


def _replace_everywhere(original, replacement) -> int:
    """Rebind every kmcrystals module attribute that is `original`."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "kmcrystals" or mod_name.startswith("kmcrystals.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap every callable in SPANS and COUNTS.  The package must be imported."""
    for name, owner, attr, observe in SPANS:
        target = _resolve(owner)
        original = getattr(target, attr)
        wrapped = tracer.wrap(name, original, observe)
        if isinstance(target, type):
            setattr(target, attr, wrapped)
        elif not _replace_everywhere(original, wrapped):
            raise RuntimeError(f"{owner}.{attr} not found")
    for name, owner, attr in COUNTS:
        target = _resolve(owner)
        setattr(target, attr, tracer.count(name, getattr(target, attr)))
