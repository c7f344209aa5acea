"""Span tracing of rewbench's public functions, installed from outside.

``Tracer.install`` replaces each traced callable with a wrapper in every
``rewbench`` module namespace that holds it, because the package's
modules import one another's functions by name (``congruence.product``,
``completion.normalize``, ``dehn.check_local_confluence``, ...).  Nothing
in the package itself changes.

Every span has a layer name, start, end, parent span and query id.  The
hot leaves (``matcher.scan``, ``matcher.compile``, ``core.normalize``,
``core.product``) run millions of times per round, so they are not kept
one by one: they are rolled up per (nearest stored ancestor span, name)
into a call count, total duration and first start / last end.  All other
spans are kept individually.  Everything stays in memory until
``dump``.

Self time ("busy") of a span is its duration minus the time covered by
its direct children.  A call into a layer made from inside the same
layer (``enumerate_normal_forms`` -> ``iter_normal_forms``,
``check_local_confluence`` -> ``critical_pairs``) belongs to the outer
span and opens none of its own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

ROLLED_UP = frozenset({"matcher.scan", "matcher.compile",
                       "core.normalize", "core.product"})


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.query: Optional[str] = None
        # frame: [name, start, child_time, anchor_span_id]
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.rollups: dict[tuple[int, str], list] = {}
        self.patched: dict[str, list[str]] = {}

    # -- span bookkeeping --------------------------------------------

    def _open(self, name: str) -> Optional[list]:
        stack = self._stack
        if not self.active or (stack and stack[-1][0] == name):
            return None
        anchor = stack[-1][3] if stack else -1
        if name not in ROLLED_UP:
            anchor = len(self.spans)
            self.spans.append(None)  # reserved, filled on close
        frame = [name, time.perf_counter(), 0.0, anchor]
        stack.append(frame)
        return frame

    def _close(self, frame: list, new_call: bool = True) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child, anchor = frame
        dur = end - start
        self.calls[name] += new_call
        self.busy[name] += dur - child
        if stack:
            stack[-1][2] += dur
        if name in ROLLED_UP:
            key = (anchor, name)
            agg = self.rollups.get(key)
            if agg is None:
                self.rollups[key] = [1, dur, start, end, self.query]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[3] = end
        else:
            parent = stack[-1][3] if stack else -1
            self.spans[anchor] = (anchor, name, start, end, parent, self.query)

    # -- wrappers ----------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """Wrapper that opens a span around ``fn``; ``after(counts, args,
        kwargs, result)`` adds work counts from the arguments and the
        public result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable,
                       count_key: str) -> Callable:
        """Like ``wrap`` for a generator function: every resume is timed
        as part of one span, and yielded items are counted."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = True
            while True:
                frame = tracer._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        # one call per generator, however often resumed
                        tracer._close(frame, new_call=first)
                        first = False
                if frame is not None:
                    tracer.counts[count_key] += 1
                yield item

        return traced

    # -- installation ------------------------------------------------

    def install(self, package) -> None:
        """Patches every traced callable in every loaded rewbench module."""
        from rewbench import catalog, cli, completion, congruence, core
        from rewbench import dehn, enumeration, matcher, witnesses

        zero = core.ZERO
        targets: list[tuple[object, str, str, Optional[Callable]]] = [
            (core, "normalize", "core.normalize", _after_normalize(zero)),
            (core, "product", "core.product", None),
            (enumeration, "growth_series", "enumeration",
             _adder("enumeration.forms", lambda args, r: r.total())),
            (enumeration, "enumerate_normal_forms", "enumeration",
             _adder("enumeration.forms", lambda args, r: len(r))),
            (completion, "knuth_bendix", "completion.kb", _after_kb),
            (completion, "critical_pairs", "completion.critical_pairs",
             _adder("completion.critical_pairs.pairs",
                    lambda args, r: len(r))),
            (completion, "check_local_confluence",
             "completion.critical_pairs",
             _adder("completion.critical_pairs.pairs",
                    lambda args, r: r.critical_pair_count)),
            (congruence, "probe_congruence", "congruence.probe", _after_probe),
            (congruence, "probe_all_pairs", "congruence.sweep", None),
            (witnesses, "unit_witness_search", "witnesses.search",
             _after_witness),
            (dehn, "dehn_area", "dehn.area", _after_area),
            (dehn, "dehn_profile", "dehn.profile", _after_profile),
            (cli, "main", "cli", None),
        ]
        for module, attr, name, after in targets:
            original = getattr(module, attr)
            self._replace_everywhere(package, original,
                                     self.wrap(name, original, after))
        original = enumeration.iter_normal_forms
        self._replace_everywhere(
            package, original,
            self.wrap_generator("enumeration", original, "enumeration.forms"))

        fm = matcher.FactorMatcher
        fm.__init__ = self.wrap("matcher.compile", fm.__init__)
        fm.first_match = self.wrap("matcher.scan", fm.first_match,
                                   _after_first_match)
        fm.contains = self.wrap("matcher.scan", fm.contains,
                                _adder("matcher.scan.letters",
                                       lambda args, r: len(args[1])))
        self.patched["FactorMatcher"] = ["__init__", "first_match", "contains"]

        prop = catalog.CatalogEntry.__dict__["system"]
        replacement = functools.cached_property(
            self.wrap("catalog.build", prop.func))
        replacement.__set_name__(catalog.CatalogEntry, "system")
        catalog.CatalogEntry.system = replacement
        self.patched["CatalogEntry"] = ["system"]

    def _replace_everywhere(self, package, original, wrapper) -> None:
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix
                                      or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self.patched.setdefault(original.__name__, []).append(
                        f"{mod_name}.{attr}")

    # -- output ------------------------------------------------------

    def dump(self, path) -> None:
        names = ("id", "name", "start", "end", "parent", "query")
        rolled = [{"parent": anchor, "name": name, "calls": agg[0],
                   "total_s": agg[1], "first_start": agg[2],
                   "last_end": agg[3], "query": agg[4]}
                  for (anchor, name), agg in self.rollups.items()]
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(names, s)) for s in self.spans
                                 if s is not None],
                       "rolled_up": rolled}, fh)


def _adder(key: str, measure: Callable) -> Callable:
    def after(counts, args, kwargs, result):
        counts[key] += measure(args, result)
    return after


def _after_normalize(zero):
    def after(counts, args, kwargs, result):
        word = args[1]
        if word is not zero:
            counts["core.normalize.letters"] += len(word)
        if result is zero:
            counts["core.normalize.zero"] += 1
    return after


def _after_first_match(counts, args, kwargs, result):
    start = args[2] if len(args) > 2 else kwargs.get("start", 0)
    counts["matcher.scan.letters"] += len(args[1]) - start


def _after_kb(counts, args, kwargs, result):
    counts["completion.kb.rules_added"] += result.steps
    counts["completion.kb.completed"] += result.completed


def _after_probe(counts, args, kwargs, result):
    counts["congruence.probe.merges"] += result.merges
    counts["congruence.probe.truncated"] += result.truncated
    counts["congruence.probe.collapsed"] += result.collapsed


def _after_witness(counts, args, kwargs, result):
    if result is not None:
        counts["witnesses.search.found"] += 1
        counts["witnesses.search.context_len"] += len(result.x) + len(result.y)


def _after_area(counts, args, kwargs, result):
    counts["dehn.area.steps"] += result.steps
    counts["dehn.area.limited"] += result.status == "resource-limit"


def _after_profile(counts, args, kwargs, result):
    counts["dehn.profile.resolved_pairs"] += result.resolved_pairs
    counts["dehn.profile.limited_pairs"] += result.limited_pairs
