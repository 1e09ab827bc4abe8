"""Layer tracing from outside the program: wrappers around public functions.

``Tracer.install()`` wraps every public function and public method that
the ``pretzel_pi1`` modules define, under every name that binds it: a
function imported by name into another module (``rotation_witness``
into presentations, derivation and orderability, ``h1_order`` into
orderability, ...) is replaced there too, so calls are seen whichever
module makes them.  ``uninstall()`` puts the originals back.

Every wrapped call is a span with a layer (the defining module), a
parent and the id of the request it belongs to.  A span's self time is
its duration minus the time covered by its child spans.  Spans are kept
in memory and written out by ``write_spans`` at the end of the run.
Calls into the words layer are the leaves of the call tree and by far
the most frequent, so they are aggregated per function instead of
stored one by one; they still count toward their parent's child time.

A wrapper's own bookkeeping runs outside the span it times, so it would
land in the caller's self time; with millions of Word calls that would
swamp the caller's real work.  ``install()`` therefore measures the
bookkeeping cost of one wrapped call and charges it to the child, the
way a profiler subtracts its calibrated bias.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ["words", "smith", "presentations", "knot", "derivation", "surgery",
          "orderability", "cli"]

# dunder methods worth a span; other dunders (__eq__, __hash__, ...) are not wrapped
WRAPPED_DUNDERS = {"__init__", "__mul__", "__pow__", "__invert__"}
# classes whose __init__ is wrapped: Word construction is where reduction runs
INIT_CLASSES = {"Word", "CyclicWord"}


class Tracer:
    def __init__(self, package: str = "pretzel_pi1"):
        self.package = package
        self.modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        self._patches: list[tuple[object, str, object]] = []
        self.request_id = 0
        # open spans: [span_id, time covered by child spans]
        self._stack: list[list] = []
        self._next_id = 1
        self.spans: list[tuple] = []  # (id, parent, request, layer, name, start, end, self)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.fn_calls = Counter()
        self.fn_self = defaultdict(float)
        self.raised = Counter()
        self.stats = Counter()
        self.max_word_len = 0
        self.max_dim = 0
        self.filling_len = 0
        self._replay_depth = 0
        self.call_overhead_s = 0.0

    def next_request(self) -> None:
        self.request_id += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.call_overhead_s = self._calibrate()
        originals = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
        # rebind every module-level name that holds a wrapped function
        namespaces = list(self.modules.values()) + [importlib.import_module(self.package)]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _patch(self, target, name, value) -> None:
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("__"):
                if name not in WRAPPED_DUNDERS or (
                        name == "__init__" and cls.__name__ not in INIT_CLASSES):
                    continue
            elif name.startswith("_"):
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(raw.__func__, layer, label)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(raw, layer, label))

    def _calibrate(self, calls: int = 5000, rounds: int = 5) -> float:
        """Seconds a wrapped call adds outside its own span (median of rounds)."""
        probe = Tracer(self.package)  # a separate tracer: its counters are thrown away
        noop = probe._wrap(lambda: None, "words", "calibration")
        samples = []
        for _ in range(rounds):
            frame = [0, 0.0]
            probe._stack.append(frame)
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            elapsed = time.perf_counter() - start
            probe._stack.pop()
            samples.append((elapsed - frame[1]) / calls)
        samples.sort()
        return samples[len(samples) // 2]

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, layer: str, label: str):
        aggregated = layer == "words"
        after = AFTER_HOOKS.get(label)
        replay_root = label == "replay_certificate"
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        self_time, calls, fn_calls, fn_self = self.self_time, self.calls, self.fn_calls, self.fn_self
        key = f"{layer}.{label}"
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            if replay_root:
                tracer._replay_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[f"{layer}.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if replay_root:
                    tracer._replay_depth -= 1
                duration = end - start
                own = max(0.0, duration - frame[1])
                if stack:
                    stack[-1][1] += duration + tracer.call_overhead_s
                bucket = layer
                if layer == "orderability":
                    bucket = "orderability.replay" if tracer._replay_depth or replay_root \
                        else "orderability.search"
                self_time[bucket] += own
                calls[layer] += 1
                fn_calls[key] += 1
                fn_self[key] += own
                if not aggregated:
                    spans.append((span_id, parent, tracer.request_id, layer, label,
                                   start, end, own))
            if after is not None:
                after(tracer, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- reporting -------------------------------------------------------------

    def layer_metrics(self, cli_stats: dict, overhead_s: float, wall_s: float,
                      blocks: int) -> dict:
        """The per-layer metrics, by the names BENCHMARK.json lists.

        Counts and times are per replayed block: a faster program replays
        more blocks, and a total would grow with its speed.  Maxima and
        ratios are over the whole replay.
        """
        st, ft = self.stats, self.fn_self
        derives = cli_stats["derive_requests"]
        trace_json_s = sum(ft[k] for k in ("presentations.trace_to_json",
                                           "presentations.trace_from_json"))
        per_block = {
            "words.self_s": (self.self_time["words"], "s"),
            "words.calls": (self.calls["words"], "count"),
            "words.mul_calls": (self.fn_calls["words.Word.__mul__"], "count"),
            "smith.self_s": (self.self_time["smith"], "s"),
            "smith.calls": (self.calls["smith"], "count"),
            "smith.matrix_cells": (st["smith.matrix_cells"], "count"),
            "presentations.self_s": (self.self_time["presentations"], "s"),
            "presentations.moves_applied": (st["presentations.moves_applied"], "count"),
            "presentations.abelian_calls": (st["presentations.abelian_calls"], "count"),
            "presentations.side_condition_failures": (
                self.raised["presentations.SideConditionViolated"], "count"),
            "presentations.trace_json_s": (trace_json_s, "s"),
            "knot.self_s": (self.self_time["knot"], "s"),
            "knot.calls": (self.calls["knot"], "count"),
            "derivation.self_s": (self.self_time["derivation"], "s"),
            "derivation.pipeline_runs": (st["derivation.pipeline_runs"], "count"),
            "surgery.self_s": (self.self_time["surgery"], "s"),
            "surgery.h1_calls": (st["surgery.h1_calls"], "count"),
            "orderability.search_self_s": (self.self_time["orderability.search"], "s"),
            "orderability.replay_self_s": (self.self_time["orderability.replay"], "s"),
            "orderability.journal_lines": (st["orderability.journal_lines"], "count"),
            "orderability.replay_rejections": (st["orderability.replay_rejections"], "count"),
            "cli.self_s": (self.self_time["cli"], "s"),
            "cli.stdout_bytes": (cli_stats["stdout_bytes"], "B"),
            "cli.exit_codes": (cli_stats["nonzero_exits"], "count"),
            "trace.spans": (len(self.spans), "count"),
            "trace.wall_s": (wall_s, "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        values = {name: (total / max(blocks, 1), f"{unit}/block")
                  for name, (total, unit) in per_block.items()}
        values.update({
            "words.max_word_len": (self.max_word_len, "letters"),
            "smith.max_dim": (self.max_dim, "count"),
            "derivation.pipeline_runs_per_derive": (
                st["derivation.pipeline_runs"] / derives if derives else 0.0, "ratio"),
            "surgery.filling_len": (self.filling_len, "letters"),
        })
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def self_time_split(self) -> dict:
        """Self time per layer, largest first, with orderability as one layer."""
        merged = Counter()
        for bucket, seconds in self.self_time.items():
            merged[bucket.split(".")[0]] += seconds
        return {layer: round(seconds, 6) for layer, seconds in merged.most_common()}

    def write_spans(self, path) -> None:
        """One JSON line per span, then the aggregated words calls."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "parent", "request", "layer", "name",
                                                "start", "end", "self"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            aggregated = {k: {"calls": self.fn_calls[k], "self_s": self.fn_self[k]}
                          for k in self.fn_calls if k.startswith("words.")}
            handle.write(json.dumps({"aggregated": aggregated}) + "\n")


# -- counters taken at layer boundaries ------------------------------------
# Each hook runs after a successful call of the wrapped function it is
# keyed by, with the tracer, the call's positional arguments and its result.

def _word_len(t, args, result):
    n = len(args[0].letters)
    if n > t.max_word_len:
        t.max_word_len = n


def _result_len(t, args, result):
    letters = getattr(result, "letters", ())  # __mul__ may return NotImplemented
    if len(letters) > t.max_word_len:
        t.max_word_len = len(letters)


def _snf(t, args, result):
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    t.stats["smith.matrix_cells"] += rows * cols
    t.max_dim = max(t.max_dim, rows, cols)


def _count(stat):
    def hook(t, args, result):
        t.stats[stat] += 1
    return hook


def _surgered(t, args, result):
    t.filling_len = max(t.filling_len, len(result.relator("fill").letters))


def _search(t, args, result):
    t.stats["orderability.journal_lines"] += sum(len(b.journal) for b in result.branches)


def _replay(t, args, result):
    if not result.ok:
        t.stats["orderability.replay_rejections"] += 1


AFTER_HOOKS = {
    "Word.__init__": _word_len,
    "Word.__mul__": _result_len,
    "Word.__pow__": _result_len,
    "smith_normal_form": _snf,
    "apply_move": _count("presentations.moves_applied"),
    "Presentation.abelian_invariants": _count("presentations.abelian_calls"),
    "surgered_presentation": _surgered,
    "h1_order": _count("surgery.h1_calls"),
    "nlo_search": _search,
    "replay_certificate": _replay,
    "run_pipeline": _count("derivation.pipeline_runs"),
}
