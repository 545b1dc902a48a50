"""Traced launcher: run `repro` in-process with timing spans per layer.

Usage: ``python3 perfbench/traced.py OUT.json -- <repro argv...>``
with ``PYTHONPATH=src``.

It wraps public entry points of the ``http``, ``core``, ``filterlist``,
``robustness``, ``analysis``, ``parallel`` and ``serve`` modules in
timing spans, then calls :func:`repro.cli.main` with the argv, so the
process layout is the untraced command's (pool workers are forked from
this process and inherit the wrappers).  Spans keep a stack: a span's
self time is its duration minus the time of the spans it encloses.
Accumulators and a sample of spans stay in memory and are written to
OUT.json when the command returns; each pool worker writes
``OUT.json.w<pid>`` when its shard is done.  Coroutine spans
(``AdmissionQueue.submit``) are totals only, off the stack, because
concurrent requests interleave on one thread.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict

SAMPLES_PER_SPAN = 32


class Tracer:
    """Span accumulators of one process."""

    def __init__(self) -> None:
        self.total: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.counters: dict = defaultdict(int)
        self.samples: list = []
        self._sampled: dict = defaultdict(int)
        self._stack: list = []  # open spans: [name, child_ns]

    def _close(self, frame: list, start: int) -> None:
        elapsed = time.perf_counter_ns() - start
        name = frame[0]
        self._stack.pop()
        self.total[name] += elapsed
        self.self_ns[name] += elapsed - frame[1]
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += elapsed
        if self._sampled[name] < SAMPLES_PER_SPAN:
            self._sampled[name] += 1
            self.samples.append({"name": name, "start_ns": start, "dur_ns": elapsed,
                                 "parent": parent[0] if parent else None})

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, start)
        return wrapper

    def iter_span(self, name: str, fn):
        """Time every ``next()`` of the iterator ``fn`` returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                frame = [name, 0]
                self._stack.append(frame)
                start = time.perf_counter_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(frame, start)
                yield item
        return wrapper

    def async_span(self, name: str, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.total[name] += time.perf_counter_ns() - start
                self.calls[name] += 1
        return wrapper

    def decide_span(self, fn):
        """``CachingEngine.classify``, named by the cache's hit counter."""
        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            stats = engine.stats
            hits = stats.hits
            frame = ["filterlist.decide", 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(engine, *args, **kwargs)
            finally:
                hit = stats.hits != hits
                frame[0] = "filterlist.decide_hit" if hit else "filterlist.decide_miss"
                self._close(frame, start)
        return wrapper

    def peak(self, name: str, fn):
        """Keep the largest second argument of ``fn`` (a method) as a counter."""
        @functools.wraps(fn)
        def wrapper(obj, value):
            if value > self.counters[name]:
                self.counters[name] = value
            return fn(obj, value)
        return wrapper

    def dump(self, path: str, **extra) -> None:
        from repro.http.url import split_url

        info = split_url.cache_info()
        document = {
            "pid": os.getpid(),
            "spans": {name: {"total_ns": self.total[name], "self_ns": self.self_ns[name],
                             "calls": self.calls[name]} for name in self.calls},
            "counters": dict(self.counters),
            "split_url": {"hits": info.hits, "misses": info.misses},
            "cpu_s": _cpu_s(resource.RUSAGE_SELF),
            "children_cpu_s": _cpu_s(resource.RUSAGE_CHILDREN),
            "samples": self.samples,
            **extra,
        }
        with open(path, "w") as stream:
            json.dump(document, stream)


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def install(out_path: str) -> Tracer:
    """Wrap the layer entry points; returns this process's tracer.

    Functions are replaced where callers look them up at call time: the
    class attribute, or each module's global the function was imported
    into.
    """
    import repro.cli
    import repro.core
    import repro.core.content_type
    import repro.core.pipeline
    import repro.filterlist
    import repro.parallel.runner
    import repro.parallel.worker
    import repro.robustness.runstate
    import repro.serve.admission
    import repro.serve.reload
    from repro.core.pipeline import AdClassificationPipeline, StreamingClassifier
    from repro.core.referrer_map import ReferrerMap
    from repro.filterlist.cache import CachingEngine
    from repro.http.log import SeekableLogReader
    from repro.robustness.checkpoint import CheckpointStore
    from repro.robustness.health import PipelineHealth

    tracer = Tracer()
    span = tracer.span

    SeekableLogReader.__iter__ = tracer.iter_span("http.decode", SeekableLogReader.__iter__)
    SeekableLogReader.iter_shard = tracer.iter_span("http.decode", SeekableLogReader.iter_shard)

    StreamingClassifier.feed = span("core.feed", StreamingClassifier.feed)
    StreamingClassifier.feed_at = span("core.feed", StreamingClassifier.feed_at)
    ReferrerMap.observe = span("core.referrer", ReferrerMap.observe)
    pipeline = repro.core.pipeline
    pipeline.infer_content_type = span("core.infer_content_type", pipeline.infer_content_type)
    pipeline.type_from_mime = span("core.type_from_mime", pipeline.type_from_mime)
    pipeline.normalize_url = span("core.normalize", pipeline.normalize_url)
    content_type = repro.core.content_type
    content_type.type_from_mime = span("core.type_from_mime_in_infer",
                                       content_type.type_from_mime)
    PipelineHealth.observe_users = tracer.peak("core.peak_users", PipelineHealth.observe_users)

    CachingEngine.classify = tracer.decide_span(CachingEngine.classify)
    lists_build = span("filterlist.lists_build", repro.filterlist.build_lists)
    repro.filterlist.build_lists = repro.cli.build_lists = lists_build
    AdClassificationPipeline.__init__ = span("filterlist.engine_build",
                                             AdClassificationPipeline.__init__)
    source = repro.serve.reload.EngineSource
    source.build = span("filterlist.engine_build", source.build)

    row = span("robustness.row_emit", repro.robustness.runstate.classification_row)
    for module in (repro.cli, repro.robustness.runstate, repro.parallel.worker):
        module.classification_row = row
    CheckpointStore.save = span("robustness.checkpoint_save", CheckpointStore.save)

    for name in ("aggregate_users", "heavy_hitters", "annotate_browsers", "classify_usage"):
        setattr(repro.core, name, span("analysis.usage", getattr(repro.core, name)))

    admission = repro.serve.admission.AdmissionQueue
    admission.submit = tracer.async_span("serve.submit", admission.submit)

    run_worker = repro.parallel.runner.run_worker

    @functools.wraps(run_worker)
    def traced_worker(*args, **kwargs):
        # A forked worker starts with a copy of the parent's spans.
        worker = Tracer()
        tracer.__dict__.update(worker.__dict__)
        try:
            return run_worker(*args, **kwargs)
        finally:
            tracer.dump(f"{out_path}.w{os.getpid()}")

    repro.parallel.runner.run_worker = traced_worker
    return tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: traced.py OUT.json -- <repro argv...>")
    out_path, command = argv[0], argv[2:]
    tracer = install(out_path)
    from repro.cli import main as repro_main

    started = time.perf_counter()
    code = repro_main(command)
    wall_s = time.perf_counter() - started
    sys.stdout.flush()
    tracer.dump(out_path, wall_s=wall_s, exit=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
