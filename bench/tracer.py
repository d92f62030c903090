"""Span tracer for traced benchmark runs, installed from outside cwlab.

Every public function of the listed cwlab modules (and `cli.main`) is
replaced, in every `cwlab.*` namespace that holds it, by a wrapper that
records a span.  Calls between cwlab modules go through module globals, so
nested calls such as classify_monomials -> is_reducible_monomial ->
Decomposition.__post_init__ -> equivalent are intercepted too.  Spans stay
in memory until `write`.  A span's self time is its duration minus the
duration of its child spans.  The ring module has no spans: its kernel
`_mul` is private and inlined, so its cost shows as its callers' self time.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import sys
import time
import types

LAYERS = ("numtheory", "words", "monomial", "bruteforce", "verification")


def _count_size(counts, args, result, caller):
    # is_reducible_monomial recomputes the size its caller asked for.
    if caller != "monomial.is_reducible_monomial":
        counts["monomial.size_sum"] += result[0]


def _count_certificate(counts, args, result, caller):
    certificate = result[1]
    if certificate.variant == "decomposition":
        counts["monomial.decompositions"] += 1
    elif certificate.variant == "exhausted":
        counts["monomial.exhausted"] += 1
        counts["monomial.candidates_examined"] += len(certificate.examined)


def _count_census(counts, args, result, caller):
    query = args[0]
    counts["bruteforce.word_space"] += query.modulus.n ** query.size
    counts["bruteforce.solutions"] += result.total


#: Counts taken from a call's arguments, result and calling span's name, at
#: its span boundary.
COUNTERS = {
    "monomial.minimal_monomial_size": _count_size,
    "monomial.is_reducible_monomial": _count_certificate,
    "bruteforce.enumerate_solutions": _count_census,
}


def _targets() -> dict[int, tuple[types.FunctionType, str]]:
    import cwlab.cli

    targets = {id(cwlab.cli.main): (cwlab.cli.main, "cli.main")}
    for layer in LAYERS:
        module = sys.modules[f"cwlab.{layer}"]
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                targets[id(value)] = (value, f"{layer}.{attr}")
    return targets


class Tracer:
    """Collects spans, per-function call counts and self times, and counts."""

    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end)
        self.stats = collections.defaultdict(lambda: [0, 0.0])
        self.counts = collections.Counter()
        self._stack = []  # [span id, seconds spent in child spans, name]
        self._ids = itertools.count()
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, fn, name):
        stats = self.stats[name]
        count = COUNTERS.get(name)
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0, name]
            caller = stack[-1] if stack else (None, 0.0, None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                spans.append((frame[0], caller[0], name, start, end))
            if count is not None:
                count(self.counts, args, result, caller[2])
            return result

        return traced

    def install(self) -> None:
        targets = _targets()
        wrappers = {key: (fn, self._wrap(fn, name))
                    for key, (fn, name) in targets.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "cwlab" and not module_name.startswith("cwlab."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._patched.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def summary(self) -> dict:
        return {"stats": dict(self.stats), "counts": dict(self.counts)}

    def write(self, path: str, prefix: str = "") -> None:
        """Append one JSON line [id, parent id, name, start s, end s] per
        span; ids are prefixed so that spans of several processes can share
        one file."""
        with open(path, "a") as out:
            for span_id, parent, name, start, end in self.spans:
                parent_id = None if parent is None else f"{prefix}{parent}"
                out.write(json.dumps([f"{prefix}{span_id}", parent_id, name,
                                      start, end]) + "\n")
