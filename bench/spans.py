"""In-memory spans around the program's layer entry points.

The traced benchmark run swaps the *call-site names* the pipeline looks
up at run time (``repro.core.engine.CsrSeedIndex`` and friends) for
wrappers that record a span per call, then restores the originals.  The
program's own code is not touched; only module globals are rebound for
the duration of a ``with traced(recorder):`` block.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

#: (module, global name, layer) for every wrapped call site.  The layer
#: is the span name; several call sites may feed one layer.
CALL_SITES = (
    ("repro.core.engine", "make_filter_mask", "filters.mask"),
    ("repro.core.engine", "CsrSeedIndex", "index.build"),
    ("repro.core.engine", "packed_bank_cached", "packed.pack"),
    ("repro.core.engine", "iter_pair_chunks", "pairs.enumerate"),
    ("repro.core.engine", "extend_filter_vector", "vector_kernel.extend"),
    ("repro.core.engine", "run_gapped_stage", "gapped_stage"),
    ("repro.core.gapped_stage", "batch_gapped_extend", "gapped.kernel"),
    ("repro.core.engine", "alignments_to_m8", "records.display"),
    ("repro.core.engine", "sort_records", "records.display"),
    # finish_comparison (the parallel runtime's steps 3-4) imports these
    # from their defining module at call time.
    ("repro.align.records", "alignments_to_m8", "records.display"),
    ("repro.align.records", "sort_records", "records.display"),
)

#: Call sites that return a generator: each ``next()`` is one span, so
#: the consumer's work between items is not charged to the producer.
GENERATORS = frozenset({"iter_pair_chunks"})

#: (module, class, method, layer) for wrapped methods.
METHOD_SITES = (
    ("repro.index.seed_index", "CsrSeedIndex", "common_codes", "index.common_codes"),
    ("repro.runtime.scheduler", "TaskScheduler", "run", "runtime.step2"),
)


class SpanRecorder:
    """Keeps ``[name, start, end, parent]`` spans of one thread in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, layer: str, fn):
        def traced_call(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return traced_call

    def wrap_generator(self, layer: str, fn):
        def traced_generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(layer):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        return traced_generator


@contextmanager
def traced(recorder: SpanRecorder):
    """Rebind every call site to a span-recording wrapper, then restore."""
    saved = []
    try:
        for module_name, attr, layer in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrap = recorder.wrap_generator if attr in GENERATORS else recorder.wrap
            saved.append((module, attr, original))
            setattr(module, attr, wrap(layer, original))
        for module_name, cls_name, method, layer in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            setattr(cls, method, recorder.wrap(layer, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
