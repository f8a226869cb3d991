"""Layer spans recorded from outside the library.

``Tracer.install`` rebinds each traced public function, in every condsim
module that imported it, to a wrapper that times the call as a span and
counts its work; ``uninstall`` puts the originals back. Nothing in
``src/`` changes. A span's self time is its duration minus the time its
traced children took.

Span names:

- ``reformulate.infer``: ``infer``, one span per answer
- ``dependence.value``: ``dependence_value``
- ``reformulate.greedy``: ``greedy_select``
- ``reformulate.weights``: ``estimate_distribution_over``
- ``sampling.fraction.rejection`` / ``sampling.fraction.gibbs``:
  ``estimate_conditional_fraction``, named by its trial generator
- ``stopping.should_stop``: ``should_stop``
- ``sampling.rng``: ``RandomSource.uniforms``, timed and counted but not
  kept as spans; its time is also summed per enclosing span name under
  ``counts["rng_ns_in.<name>"]``

Forward rows are counted at ``condsim.sampling._sample_batch``, the one
private hook: no public function sees them. A function that a later
version lacks is skipped and named in ``missing``; its figures read 0 and
the trace still runs.
"""

import sys
import time
from collections import defaultdict

_perf_ns = time.perf_counter_ns


class Tracer:
    """Aggregates span times and work counts; spans of one pass are kept."""

    def __init__(self) -> None:
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_posterior_n = 0
        self.rows_observable = False
        self.missing: set[str] = set()
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.answer_id = -1
        self._next_id = 0
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -------------------------------------------------------- wrappers

    def _span(self, fn, name_of, after=None):
        stack = self._stack
        total_ns, self_ns, calls = self.total_ns, self.self_ns, self.calls

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            span_id = -1
            if self.keep_spans:
                span_id = self._next_id
                self._next_id += 1
            frame = [0, span_id, name]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = _perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf_ns()
                stack.pop()
                elapsed = end - start
                total_ns[name] += elapsed
                self_ns[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] >= 0:
                    self.spans.append((frame[1], parent, name, start, end,
                                       self.answer_id))
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_counter(self, fn, name, count_of):
        """A leaf span too frequent to keep: time and count it only."""
        stack = self._stack
        total_ns, self_ns, calls, counts = (self.total_ns, self.self_ns,
                                            self.calls, self.counts)

        def wrapper(*args, **kwargs):
            start = _perf_ns()
            result = fn(*args, **kwargs)
            elapsed = _perf_ns() - start
            total_ns[name] += elapsed
            self_ns[name] += elapsed
            calls[name] += 1
            counts[name] += count_of(args, kwargs)
            if stack:
                stack[-1][0] += elapsed
                counts["rng_ns_in." + stack[-1][2]] += elapsed
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name, count_of):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += count_of(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------- installation

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "condsim" or mod_name.startswith("condsim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        from condsim import dependence, reformulate, sampling, stopping

        def named(name):
            return lambda args, kwargs: name

        def kind_of(args, kwargs):
            kind = args[5] if len(args) > 5 else kwargs.get("kind")
            return getattr(kind, "kind", "rejection"), kind

        def fraction_name(args, kwargs):
            return "sampling.fraction." + kind_of(args, kwargs)[0]

        def on_stop(args, kwargs, result):
            posterior = args[0] if args else kwargs["posterior"]
            n = posterior.n
            if n > self.max_posterior_n:
                self.max_posterior_n = n

        def on_fraction(args, kwargs, result):
            name, kind = kind_of(args, kwargs)
            self.counts["trials." + name] += result.trials
            if name == "gibbs":
                self.counts["gibbs.row_sweeps"] += (result.trials
                                                    * kind.burn_in_sweeps)

        def on_weights(args, kwargs, result):
            self.counts["trials.weights"] += result[1]

        targets = (
            (reformulate, "infer", named("reformulate.infer"), None),
            (dependence, "dependence_value", named("dependence.value"), None),
            (reformulate, "greedy_select", named("reformulate.greedy"), None),
            (sampling, "estimate_distribution_over",
             named("reformulate.weights"), on_weights),
            (sampling, "estimate_conditional_fraction", fraction_name,
             on_fraction),
            (stopping, "should_stop", named("stopping.should_stop"),
             on_stop),
        )
        for module, attr, name_of, after in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module.__name__}.{attr}")
                continue
            self._rebind(fn, self._span(fn, name_of, after))

        uniforms = sampling.RandomSource.uniforms
        sampling.RandomSource.uniforms = self._timed_counter(
            uniforms, "sampling.rng", lambda args, kwargs: int(args[1]))
        self._undo.append((sampling.RandomSource, "uniforms", uniforms))

        sample_batch = getattr(sampling, "_sample_batch", None)
        self.rows_observable = sample_batch is not None
        if sample_batch is not None:
            self._rebind(sample_batch, self._counter(
                sample_batch, "rows",
                lambda args, kwargs: int(args[2] if len(args) > 2
                                         else kwargs["count"])))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Copy of the counters, for differences across a pass."""
        return {"total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns),
                "calls": dict(self.calls),
                "counts": dict(self.counts)}
