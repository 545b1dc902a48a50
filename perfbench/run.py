"""The header-trace pipeline benchmark: `repro` driven from outside.

Usage, from the root of a checkout (``src/repro`` must be there)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

One run:

1. generates a seeded RBN-2 trace in a child process with
   ``PYTHONHASHSEED`` pinned (``perfbench/gen.py``) and prints each
   input file's record count and SHA-256;
2. records the reference outputs for that seed: the program's plain
   path with the uncached ``buckets`` matcher (batch), or the decisions
   of an uncached ``buckets`` engine (serve);
3. runs the workload, with CLI defaults except the flags that define
   it, for ``--seconds`` seconds and checks every output;
4. prints each metric by name and unit and a self-description of the
   run, and as its last line ``{"correct", "attempted", "failed",
   "metrics"}``.  ``--trace 0`` gives the end-to-end metrics of
   untraced runs; ``--trace 1`` gives the per-layer metrics of runs
   under ``perfbench/traced.py``, next to untraced runs of the same
   command for the tracing overhead.

Workloads (one trace of ``Plan.records`` records; BENCHMARK.json says
why each exists):

* ``usage-tsv-durable``  ``repro usage --trace T.tsv --tls T.tls --checkpoint-dir D``
* ``classify-pool``      ``repro classify --trace T.bin --out O --workers 2``
* ``serve-replay``       ``repro serve --port 0``, fed the trace's first
  ``Plan.serve_requests`` records by ``perfbench/load.py``.

The serial ``repro classify --trace T.bin --out O`` runs once per
classify-pool run, unmeasured, as the output the pool must reproduce
byte for byte and the CPU ``parallel.cpu_ratio`` divides by; as a
measured workload of its own its figures swung by a quarter between
sets of runs on a shared 2-CPU host.

End-to-end metrics are the same four on every workload: ``setup_s``
(zero-record command, or spawn to the first 200 from ``/readyz``),
``rec_per_s`` (records / command wall time; for serve, requests/s with
every connection kept busy), ``cpu_us_per_op`` and ``peak_rss_mb`` of
the program's process tree.  Serve latency at the two fixed rates,
``max_rps`` and ``error_rate`` are printed beside them, not gated: the
result line may only carry metrics every workload has, and that are
never 0.

Every program process runs with ``PYTHONHASHSEED=0`` so its output is
a function of the seed alone.  Scratch files live in ``.perfbench/`` at
the checkout root and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory

import load  # noqa: E402  (sibling modules of this script)
import procs  # noqa: E402

WORKLOADS = ("usage-tsv-durable", "classify-pool", "serve-replay")
HASH_SEED = "0"
POOL_WORKERS = 2
# serve-replay: the two fixed rates, the p99 limit max_rps must meet,
# and the latency past which an answered request counts as failed.
LOW_RATE = 500.0
HIGH_RATE = 1500.0
P99_LIMIT_MS = 20.0
LATE_MS = 1000.0
LADDER = [round(1000 * 1.05 ** k) for k in range(46)]

END_TO_END_UNITS = {
    "setup_s": "s",
    "rec_per_s": "records/s",
    "cpu_us_per_op": "us",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "http.decode_us_per_rec": "us",
    "http.url_split_hit_ratio": "ratio",
    "core.feed_self_us_per_rec": "us",
    "core.referrer_us_per_rec": "us",
    "core.content_type_us_per_rec": "us",
    "core.type_from_mime_calls_per_rec": "calls/record",
    "core.normalize_us_per_rec": "us",
    "core.peak_users": "count",
    "filterlist.decide_hit_us": "us",
    "filterlist.decide_miss_us": "us",
    "filterlist.cache_hit_ratio": "ratio",
    "filterlist.decisions_per_rec": "calls/record",
    "filterlist.lists_build_s": "s",
    "filterlist.engine_build_s": "s",
    "robustness.row_emit_us_per_rec": "us",
    "robustness.checkpoint_save_ms": "ms",
    "robustness.checkpoint_saves": "count",
    "robustness.checkpoint_share": "ratio",
    "analysis.usage_s": "s",
    "parallel.cpu_ratio": "ratio",
    "parallel.parent_cpu_share": "ratio",
    "serve.admission_us": "us",
    "serve.decide_us": "us",
    "serve.outside_admission_us": "us",
    "serve.shed": "count",
    "serve.timed_out": "count",
    "proc.import_s": "s",
    "trace.gen_rec_per_s": "records/s",
    "harness.gen_late_p99_ms": "ms",
    "harness.tracing_overhead": "ratio",
}


@dataclass(frozen=True)
class Plan:
    """How much work one run does; the self-test runs a tiny plan."""

    records: int = 30_000
    serve_requests: int = 4_000
    setup_repeats: int = 6
    min_repeats: int = 4
    traced_repeats: int = 2
    phase_s: float = 2.0            # each fixed-rate serve phase
    probe_s: float = 1.0            # each max_rps ladder probe
    saturation_requests: int = 2_000


class BenchError(Exception):
    """The benchmark cannot go on (the program did not start, or hung)."""


class Bench:
    """One benchmark run: inputs, scratch space, results, output lines."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool,
                 plan: Plan = Plan()):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.plan = plan
        self.workdir = os.path.join(root, ".perfbench", f"run-{os.getpid()}-{workload}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED=HASH_SEED)
        self.inputs: dict = {}
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self._serial = 0

    @property
    def records(self) -> int:
        return self.inputs["records"]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def stem(self, kind: str) -> str:
        """A fresh path prefix for one process's files."""
        self._serial += 1
        return self.path(f"{kind}{self._serial}")

    def say(self, line: str) -> None:
        print(line, flush=True)

    def report(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.say(f"metric {name} = {value:.6g} {unit}")

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.say(f"FAILED {failed}/{attempted} operations: {what}")

    def run(self, args: list[str], *, traced: bool = False, tree: bool = False,
            cpu: int | None = None) -> procs.Run:
        """Run ``repro ARGS`` (under the traced launcher if ``traced``)."""
        stem = self.stem("cmd")
        spans = stem + ".spans.json"
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), spans, "--", *args]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        run = procs.measure(argv, env=self.env, cwd=self.workdir, stem=stem, cpu=cpu, tree=tree)
        if traced:
            run.spans = _load_spans(spans)
        return run


def _load_spans(path: str) -> list[dict]:
    """The traced launcher's documents: the main process, then pool workers."""
    documents = []
    if os.path.exists(path):
        with open(path) as stream:
            documents.append(json.load(stream))
    directory, base = os.path.split(path)
    for name in sorted(os.listdir(directory)):
        if name.startswith(base + ".w"):
            with open(os.path.join(directory, name)) as stream:
                documents.append(json.load(stream))
    return documents


def _median(values: list[float]) -> float:
    return statistics.median(values)


def _rounds(runs: list, per_round: int) -> list[list]:
    """Consecutive runs grouped into rounds (one run on each CPU)."""
    return [runs[i:i + per_round] for i in range(0, len(runs) - per_round + 1, per_round)]


# -- inputs and self-description ------------------------------------------------


def generate(bench: Bench) -> None:
    """Seeded inputs, made by a child process with the hash seed pinned."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), bench.workdir, str(bench.seed),
         str(bench.plan.records), str(bench.plan.serve_requests)],
        env=bench.env, cwd=bench.workdir, capture_output=True, text=True,
        timeout=procs.TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"input generation failed:\n{proc.stderr[-2000:]}")
    with open(bench.path("inputs.json")) as stream:
        bench.inputs = json.load(stream)
    for name, info in bench.inputs["files"].items():
        bench.say(f"input {name}: {info['records']} records sha256 {info['sha256']}")
    bench.say(f"trace generation: {bench.inputs['gen_rec_per_s']:.0f} records/s "
              f"({bench.inputs['generated_records']} generated, {bench.records} kept)")


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    source = os.path.join(root, "src")
    for directory, _, files in sorted(os.walk(source)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode() + b"\0")
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()[:16]


def _git_rev(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"  # an exported checkout; source_digest identifies it
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def describe(bench: Bench, engine_fingerprint: str) -> None:
    files = bench.inputs["files"]
    fingerprint = hashlib.sha256(
        "".join(files[name]["sha256"] for name in sorted(files)).encode()).hexdigest()[:16]
    bench.say("run " + json.dumps({
        "workload": bench.workload,
        "trace": int(bench.trace),
        "git_rev": _git_rev(bench.root),
        "source_digest": _source_digest(bench.root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "hash_seed": HASH_SEED,
        "trace_seed": bench.seed,
        "trace_preset": "rbn2",
        "trace_scale": bench.inputs["scale"],
        "trace_records": bench.records,
        "input_fingerprint": fingerprint,
        "engine_fingerprint": engine_fingerprint,
        "seconds": bench.seconds,
    }, sort_keys=True))


# -- correctness checks ---------------------------------------------------------


def _lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as stream:
            return stream.read().splitlines()
    except FileNotFoundError:
        return []


def diff_rows(output_path: str, reference_path: str) -> int:
    """Rows of ``output_path`` that are wrong, missing or extra."""
    got, want = _lines(output_path), _lines(reference_path)
    wrong = sum(1 for a, b in zip(got, want) if a != b)
    return wrong + abs(len(got) - len(want))


def order_failures(output_path: str, trace_tsv: str) -> int:
    """Rows not restating the input record at their position.

    A classify output has one row per input record, in input order; its
    ``ts``, ``client`` and ``url`` columns restate the record.
    """
    rows = [line.split("\t") for line in _lines(output_path) if not line.startswith("#")]
    header: list[str] = []
    records = []
    for line in _lines(trace_tsv):
        if line.startswith("#"):
            header = line[1:].split("\t")
            continue
        fields = dict(zip(header, line.split("\t")))
        uri = fields["uri"]
        url = uri if uri.startswith(("http://", "https://")) else f"http://{fields['host']}{uri}"
        records.append((fields["ts"], fields["client"], url))
    bad = sum(1 for row, record in zip(rows, records) if tuple(row[:3]) != record)
    return bad + abs(len(rows) - len(records))


def classify_counts(output_path: str) -> tuple[int, int]:
    """(ad rows, whitelisted rows) of a classify output."""
    ads = whitelisted = 0
    for line in _lines(output_path):
        if not line.startswith("#"):
            fields = line.split("\t")
            ads += fields[4] == "1"
            whitelisted += fields[6] == "1"
    return ads, whitelisted


def table3(stdout: str) -> str:
    """The usage study's Table 3 block and its ABP-user line."""
    lines = stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if "(paper Table 3)" in line), None)
    end = next((i for i, line in enumerate(lines) if line.startswith("likely Adblock Plus")), None)
    if start is None or end is None or end < start:
        return ""
    return "\n".join(lines[start:end + 1])


# -- batch workloads ------------------------------------------------------------


@dataclass
class BatchSpec:
    name: str
    args: list
    empty_args: list
    tree: bool = False  # a process tree: sampled, not pinned

    def cpu(self, index: int) -> int | None:
        """The CPU of the ``index``-th measured run (None: every CPU)."""
        return None if self.tree else procs.cpu_for(index)

    @property
    def per_round(self) -> int:
        """Runs per round: one on each CPU, or one unpinned tree."""
        return 1 if self.tree or procs.cpu_for(0) is None else len(procs.ALL_CPUS)


def batch_specs(bench: Bench) -> dict[str, BatchSpec]:
    p = bench.path
    pool = ["--workers", str(POOL_WORKERS)]
    return {
        "usage-tsv-durable": BatchSpec(
            "usage-tsv-durable",
            ["usage", "--trace", p("trace.tsv"), "--tls", p("trace.tls"),
             "--checkpoint-dir", p("ckpt")],
            ["usage", "--trace", p("empty.tsv"), "--tls", p("empty.tls"),
             "--checkpoint-dir", p("ckpt-empty")]),
        "classify-pool": BatchSpec(
            "classify-pool",
            ["classify", "--trace", p("trace.bin"), "--out", p("out.tsv"), *pool],
            ["classify", "--trace", p("empty.bin"), "--out", p("empty-out.tsv"), *pool],
            tree=True),
    }


class BatchChecker:
    """The reference output for the seed, and the check of a run against it.

    The reference is the program's plain path on the TSV encoding with the
    uncached ``buckets`` matcher, the one kept as the reference oracle.
    classify-pool is checked against the serial command's output, itself
    checked against the reference, so the two must be byte-identical.
    """

    def __init__(self, bench: Bench, spec: BatchSpec):
        self.bench = bench
        self.spec = spec
        oracle = ["--matcher", "buckets", "--no-decision-cache"]
        records = bench.records
        if spec.name == "usage-tsv-durable":
            ref = bench.run(["usage", "--trace", bench.path("trace.tsv"), "--tls",
                             bench.path("trace.tls"), *oracle])
            self.table = table3(ref.stdout)
            bench.tally(records, records if ref.code or not self.table else 0,
                        f"reference usage run exited {ref.code}")
            bench.say("reference Table 3:\n" + self.table)
            return
        self.reference = bench.path("reference.tsv")
        ref = bench.run(["classify", "--trace", bench.path("trace.tsv"), "--out",
                         self.reference, *oracle])
        bench.tally(records, records if ref.code else
                    order_failures(self.reference, bench.path("trace.tsv")),
                    "reference rows out of input order")
        ads, whitelisted = classify_counts(self.reference)
        bench.say(f"reference: {ads} ad rows, {whitelisted} whitelisted rows")
        if spec.name == "classify-pool":
            serial = bench.path("serial.tsv")
            run = bench.run(["classify", "--trace", bench.path("trace.bin"), "--out", serial])
            self.serial_cpu_s = run.cpu_s
            bench.tally(records, records if run.code else diff_rows(serial, self.reference),
                        "serial classify output differs from the reference")
            self.reference = serial

    def prepare(self) -> None:
        """Start each run from a clean slate: no output, no checkpoints."""
        for name in ("out.tsv", "ckpt"):
            target = self.bench.path(name)
            if os.path.isdir(target):
                shutil.rmtree(target)
            elif os.path.exists(target):
                os.unlink(target)

    def check(self, run: procs.Run) -> int:
        """Failed operations (records) of one workload run."""
        records = self.bench.records
        if run.code != 0:
            self.bench.say(f"run exited {run.code}: {run.stderr.strip()[-500:]}")
            return records
        if self.spec.name == "usage-tsv-durable":
            got = table3(run.stdout)
            if got != self.table:
                self.bench.say("Table 3 differs from the reference:\n" + got)
                return records
            return 0
        return diff_rows(self.bench.path("out.tsv"), self.reference)

    def measured(self, index: int, traced: bool = False) -> procs.Run:
        """One checked run of the workload command, the ``index``-th on its CPU turn."""
        self.prepare()
        run = self.bench.run(self.spec.args, traced=traced, tree=self.spec.tree,
                             cpu=self.spec.cpu(index))
        self.bench.tally(self.bench.records, self.check(run),
                         f"{'traced ' if traced else ''}{self.spec.name} run")
        return run


def _setup_time(bench: Bench, spec: BatchSpec) -> float:
    """Median over rounds of the workload command's mean wall time over a
    zero-record input.

    Set-up runs time the start-up path; their exit status is printed but
    they are not operations of the workload.
    """
    walls = []
    failures = []
    for index in range(bench.plan.setup_repeats):
        run = bench.run(spec.empty_args, tree=spec.tree, cpu=spec.cpu(index))
        walls.append(run.wall_s)
        if run.code != 0:
            last = run.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            failures.append(f"exit {run.code}: {last[0]}")
    if failures:
        bench.say(f"setup: {len(failures)} of {len(walls)} zero-record runs failed; "
                  f"last {failures[-1]}")
    return _median([statistics.fmean(r) for r in _rounds(walls, spec.per_round)])


def run_batch(bench: Bench) -> None:
    spec = batch_specs(bench)[bench.workload]
    describe(bench, bench.inputs["oracle_engine_fingerprint"])
    checker = BatchChecker(bench, spec)
    if bench.trace:
        return _trace_batch(bench, spec, checker)

    bench.report("setup_s", _setup_time(bench, spec), "s")
    runs: list[procs.Run] = []
    began = time.perf_counter()
    while (len(runs) < bench.plan.min_repeats or len(runs) % spec.per_round
           or time.perf_counter() - began < bench.seconds):
        runs.append(checker.measured(len(runs)))
    if spec.name != "usage-tsv-durable":
        ads, whitelisted = classify_counts(bench.path("out.tsv"))
        bench.say(f"output: {ads} ad rows, {whitelisted} whitelisted rows")
    bench.say(f"repeats: {len(runs)}, {spec.per_round} per round; wall s: "
              + " ".join(f"{r.wall_s:.3f}" for r in runs))
    records = bench.records
    rounds = _rounds(runs, spec.per_round)
    bench.report("rec_per_s", _median([len(r) * records / sum(run.wall_s for run in r)
                                       for r in rounds]), "records/s")
    bench.report("cpu_us_per_op", _median([sum(run.cpu_s for run in r) / (len(r) * records) * 1e6
                                           for r in rounds]), "us")
    bench.report("peak_rss_mb", _median([r.rss_mb for r in runs]), "MiB")


# -- per-layer metrics ------------------------------------------------------------


def _span_sum(documents: list[dict], name: str, key: str = "total_ns") -> float:
    return sum(doc["spans"].get(name, {}).get(key, 0) for doc in documents)


def _calls(documents: list[dict], name: str) -> int:
    return int(_span_sum(documents, name, "calls"))


def _per_call(documents: list[dict], name: str, key: str = "total_ns") -> float:
    count = _calls(documents, name)
    return _span_sum(documents, name, key) / count if count else 0.0


def layer_metrics(traced: list[list[dict]], operations: int) -> dict:
    """Per-layer metrics from the span documents of traced runs.

    ``traced`` holds one list of documents (every process) per run;
    ``operations`` is records (batch) or requests (serve) per run.
    """
    docs = [doc for run in traced for doc in run]
    reps = max(1, len(traced))
    ops = max(1, operations * reps)

    def per_op_us(*names: str, key: str = "total_ns") -> float:
        return sum(_span_sum(docs, name, key) for name in names) / ops / 1e3

    hits, misses = _calls(docs, "filterlist.decide_hit"), _calls(docs, "filterlist.decide_miss")
    split_hits = sum(doc["split_url"]["hits"] for doc in docs)
    split_lookups = split_hits + sum(doc["split_url"]["misses"] for doc in docs)
    wall_s = sum(run[0].get("wall_s", 0.0) for run in traced if run)
    return {
        "http.decode_us_per_rec": per_op_us("http.decode"),
        "http.url_split_hit_ratio": split_hits / split_lookups if split_lookups else 0.0,
        "core.feed_self_us_per_rec": per_op_us("core.feed", key="self_ns"),
        "core.referrer_us_per_rec": per_op_us("core.referrer"),
        "core.content_type_us_per_rec": per_op_us("core.infer_content_type",
                                                  "core.type_from_mime"),
        "core.type_from_mime_calls_per_rec": (_calls(docs, "core.type_from_mime")
                                              + _calls(docs, "core.type_from_mime_in_infer")) / ops,
        "core.normalize_us_per_rec": per_op_us("core.normalize"),
        "core.peak_users": max((sum(doc["counters"].get("core.peak_users", 0) for doc in run)
                                for run in traced), default=0),
        "filterlist.decide_hit_us": _per_call(docs, "filterlist.decide_hit") / 1e3,
        "filterlist.decide_miss_us": _per_call(docs, "filterlist.decide_miss") / 1e3,
        "filterlist.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "filterlist.decisions_per_rec": (hits + misses) / ops,
        "filterlist.lists_build_s": _per_call(docs, "filterlist.lists_build") / 1e9,
        "filterlist.engine_build_s": _per_call(docs, "filterlist.engine_build", "self_ns") / 1e9,
        "robustness.row_emit_us_per_rec": per_op_us("robustness.row_emit"),
        "robustness.checkpoint_save_ms": _per_call(docs, "robustness.checkpoint_save") / 1e6,
        "robustness.checkpoint_saves": _calls(docs, "robustness.checkpoint_save") / reps,
        "robustness.checkpoint_share": (_span_sum(docs, "robustness.checkpoint_save") / 1e9
                                        / wall_s) if wall_s else 0.0,
        "analysis.usage_s": _span_sum(docs, "analysis.usage") / 1e9 / reps,
    }


def _common_layers(bench: Bench) -> dict:
    """``proc.import_s`` (median of ``python -c "import repro.cli"``) and
    the generator's rate."""
    walls = []
    for index in range(bench.plan.setup_repeats):
        walls.append(procs.measure([sys.executable, "-c", "import repro.cli"], env=bench.env,
                                   cwd=bench.workdir, stem=bench.stem("import"),
                                   cpu=procs.cpu_for(index)).wall_s)
    return {"proc.import_s": _median(walls), "trace.gen_rec_per_s": bench.inputs["gen_rec_per_s"]}


def report_layers(bench: Bench, layers: dict) -> None:
    """Every per-layer metric; a layer the workload does not use reads 0."""
    for name, unit in PER_LAYER_UNITS.items():
        bench.report(name, float(layers.get(name, 0.0)), unit)


def _trace_batch(bench: Bench, spec: BatchSpec, checker: BatchChecker) -> None:
    """Untraced and traced runs in pairs on one CPU, for ``--seconds`` seconds."""
    layers = _common_layers(bench)
    plain: list[procs.Run] = []
    traced: list[procs.Run] = []
    began = time.perf_counter()
    while len(traced) < bench.plan.traced_repeats or time.perf_counter() - began < bench.seconds:
        plain.append(checker.measured(len(traced)))
        traced.append(checker.measured(len(traced), traced=True))
    layers.update(layer_metrics([run.spans for run in traced], bench.records))
    layers["harness.tracing_overhead"] = _median([t.wall_s / p.wall_s
                                                  for p, t in zip(plain, traced)])
    if spec.name == "classify-pool":
        layers["parallel.cpu_ratio"] = _median([r.cpu_s for r in plain]) / checker.serial_cpu_s
        shares = [r.parent_cpu_s / r.cpu_s for r in plain if r.parent_cpu_s is not None]
        layers["parallel.parent_cpu_share"] = _median(shares) if shares else 0.0
        for run in plain:
            bench.say(f"pool CPU s, per process from /proc: parent {run.parent_cpu_s}, "
                      f"workers {run.child_cpu_s}")
        bench.say("pool spans: each forked worker writes its own; the parent's row merge "
                  "and supervision fall in no span")
    report_layers(bench, layers)


# -- serve-replay ----------------------------------------------------------------


class Replay:
    """The serve workload's requests and one daemon at a time to send them to."""

    def __init__(self, bench: Bench):
        self.bench = bench
        with open(bench.path("requests.jsonl")) as stream:
            requests = [json.loads(line) for line in stream]
        self.wire = load.encode_requests(requests)
        self.expects = [request["expect"] for request in requests]
        self.server: load.Server | None = None
        self.spans_path = ""

    def start(self, traced: bool = False) -> load.Server:
        stem = self.bench.stem("serve")
        argv = ([sys.executable, os.path.join(HERE, "traced.py"), stem + ".spans.json", "--"]
                if traced else [sys.executable, "-m", "repro"])
        order = procs.ranked_cpus()
        self.server = load.Server([*argv, "serve", "--port", "0"], self.bench.env,
                                  stem + ".log", cpu=order[0] if len(order) > 1 else None)
        self.spans_path = stem + ".spans.json"
        procs.place(self.server.proc.pid, order)
        return self.server

    def stop(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            code = server.stop()
            procs.unplace()
            if code != 0:
                self.bench.tally(1, 1, f"serve exited {code} on SIGTERM")

    def phase(self, rate: float | None, count: int, offset: int = 0, *,
              count_late: bool = True, what: str) -> load.PhaseStats:
        """Send ``count`` requests (open loop at ``rate``; closed if None)."""
        assert self.server is not None
        procs.place(self.server.proc.pid, procs.ranked_cpus())
        gc.collect()
        gc.disable()
        try:
            stats = load.run_phase(self.server.port, self.wire, self.expects, rate=rate,
                                   count=count, offset=offset)
        finally:
            gc.enable()
        late = sum(1 for ms in stats.latencies_ms if ms > LATE_MS) if count_late else 0
        self.bench.tally(stats.attempted, stats.failed + late,
                         f"{what}: statuses {stats.statuses}, {stats.wrong} wrong decisions, "
                         f"{late} later than {LATE_MS:.0f} ms")
        return stats

    def warm(self) -> load.PhaseStats:
        """Untimed closed-loop pass over every request: fills the cache."""
        return self.phase(None, len(self.wire), count_late=False, what="warm-up")

    def saturate(self, offset: int) -> tuple[float, float]:
        """One closed-loop segment: (requests/s, server CPU us per request)."""
        assert self.server is not None
        count = self.bench.plan.saturation_requests
        cpu0 = self.server.cpu_s()
        stats = self.phase(None, count, offset, count_late=False, what="saturation")
        return count / stats.wall_s, (self.server.cpu_s() - cpu0) / count * 1e6

    def max_rps(self, high_ok: bool) -> float:
        """Highest ladder rate meeting the p99 limit, by binary search."""
        lo = max(i for i, rate in enumerate(LADDER) if rate <= HIGH_RATE) if high_ok else -1
        hi = len(LADDER)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            rate = LADDER[mid]
            stats = self.phase(rate, int(rate * self.bench.plan.probe_s), count_late=False,
                               what=f"probe at {rate}/s")
            passed = meets_limit(stats)
            self.bench.say(f"probe {rate}/s: p99 {load.percentile(stats.latencies_ms, 99):.2f} "
                           f"ms -> {'pass' if passed else 'fail'}")
            lo, hi = (mid, hi) if passed else (lo, mid)
        return float(LADDER[lo]) if lo >= 0 else 0.0


def meets_limit(stats: load.PhaseStats) -> bool:
    """p99 within the limit, nothing failed, and no growing backlog."""
    if stats.failed or load.percentile(stats.latencies_ms, 99) > P99_LIMIT_MS:
        return False
    quarter = max(1, len(stats.latencies_ms) // 4)
    first = statistics.median(stats.latencies_ms[:quarter])
    last = statistics.median(stats.latencies_ms[-quarter:])
    return last <= first + P99_LIMIT_MS / 2


def _latency_line(label: str, stats: load.PhaseStats) -> str:
    return (f"latency at {stats.rate:.0f}/s ({len(stats.latencies_ms)} requests): "
            f"p50_ms.{label} {load.percentile(stats.latencies_ms, 50):.3f} ms, "
            f"p99_ms.{label} {load.percentile(stats.latencies_ms, 99):.3f} ms, "
            f"generator late p99 {load.percentile(stats.late_ms, 99):.3f} ms")


def run_serve(bench: Bench) -> None:
    replay = Replay(bench)
    if bench.trace:
        return _trace_serve(bench, replay)
    plan = bench.plan
    ready = []
    try:
        for _ in range(plan.setup_repeats):
            replay.stop()
            ready.append(replay.start().ready_s)
        server = replay.server
        began = time.perf_counter()
        describe(bench, load.metrics(server.port)["engine"]["fingerprint"])
        bench.report("setup_s", _median(ready), "s")
        replay.warm()
        before = load.metrics(server.port)["serve"]
        low = replay.phase(LOW_RATE, int(LOW_RATE * plan.phase_s), what="low rate")
        high = replay.phase(HIGH_RATE, int(HIGH_RATE * plan.phase_s), offset=low.attempted,
                            what="high rate")
        max_rps = replay.max_rps(meets_limit(high))
        segments = []
        while len(segments) < plan.min_repeats or time.perf_counter() - began < bench.seconds:
            segments.append(replay.saturate(len(segments) * plan.saturation_requests))
        after = load.metrics(server.port)["serve"]
        rss = server.peak_rss_mb()
    finally:
        replay.stop()
    bench.say(_latency_line("low", low))
    bench.say(_latency_line("high", high))
    bench.say(f"max_rps {max_rps:.0f} req/s (p99 limit {P99_LIMIT_MS} ms); "
              f"serve shed {after['shed'] - before['shed']}, "
              f"timed out {after['timed_out'] - before['timed_out']}")
    bench.say("saturation segments (req/s, server CPU us/req): "
              + " ".join(f"{rps:.0f},{cpu:.1f}" for rps, cpu in segments))
    bench.report("rec_per_s", _median([rps for rps, _ in segments]), "records/s")
    bench.report("cpu_us_per_op", _median([cpu for _, cpu in segments]), "us")
    bench.report("peak_rss_mb", rss, "MiB")


@dataclass
class _HighRate:
    warm: load.PhaseStats
    high: load.PhaseStats
    cpu_us: float        # server CPU per request at the high rate
    shed: int
    timed_out: int
    spans_path: str


def _hold_high_rate(bench: Bench, replay: Replay, traced: bool, seconds: float) -> _HighRate:
    """Start a daemon, warm it, hold the high rate for ``seconds``, stop it."""
    began = time.perf_counter()
    server = replay.start(traced=traced)
    try:
        if not traced:
            describe(bench, load.metrics(server.port)["engine"]["fingerprint"])
        warm = replay.warm()
        before = load.metrics(server.port)["serve"]
        cpu0 = server.cpu_s()
        high = load.PhaseStats(rate=HIGH_RATE)
        count = int(HIGH_RATE * bench.plan.phase_s)
        while not high.attempted or time.perf_counter() - began < seconds:
            phase = replay.phase(HIGH_RATE, count, offset=high.attempted, what="high rate")
            high.attempted += phase.attempted
            high.latencies_ms += phase.latencies_ms
            high.service_ms += phase.service_ms
            high.late_ms += phase.late_ms
        cpu_us = (server.cpu_s() - cpu0) / high.attempted * 1e6
        after = load.metrics(server.port)["serve"]
    finally:
        replay.stop()
    return _HighRate(warm, high, cpu_us, after["shed"] - before["shed"],
                     after["timed_out"] - before["timed_out"], replay.spans_path)


def _trace_serve(bench: Bench, replay: Replay) -> None:
    """An untraced then a traced daemon, each held at the high rate."""
    layers = _common_layers(bench)
    plain = _hold_high_rate(bench, replay, False, bench.seconds / 2)
    traced = _hold_high_rate(bench, replay, True, bench.seconds / 2)
    docs = _load_spans(traced.spans_path)
    layers.update(layer_metrics([docs], traced.warm.attempted + traced.high.attempted))
    submit_us = _per_call(docs, "serve.submit") / 1e3
    decide_calls = _calls(docs, "filterlist.decide_hit") + _calls(docs, "filterlist.decide_miss")
    decide_ns = _span_sum(docs, "filterlist.decide_hit") + _span_sum(docs, "filterlist.decide_miss")
    decide_us = decide_ns / decide_calls / 1e3 if decide_calls else 0.0
    client_us = statistics.fmean(traced.warm.service_ms + traced.high.service_ms) * 1e3
    layers.update({
        "serve.admission_us": submit_us - decide_us,
        "serve.decide_us": decide_us,
        "serve.outside_admission_us": client_us - submit_us,
        "serve.shed": traced.shed,
        "serve.timed_out": traced.timed_out,
        "harness.gen_late_p99_ms": load.percentile(plain.high.late_ms, 99),
        "harness.tracing_overhead": traced.cpu_us / plain.cpu_us,
    })
    bench.say("serve tracing overhead: server CPU per request at the high rate, traced / "
              "untraced (a fixed-rate phase has a fixed wall time)")
    report_layers(bench, layers)


# -- entry points -----------------------------------------------------------------


def run_workload(bench: Bench) -> dict:
    os.makedirs(bench.workdir, exist_ok=True)
    try:
        generate(bench)
        if bench.workload == "serve-replay":
            run_serve(bench)
        else:
            run_batch(bench)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.workdir))
        except OSError:
            pass  # another run still uses it
    bench.say(f"error_rate = {bench.failed / max(1, bench.attempted):.6g} ratio "
              f"({bench.failed}/{bench.attempted})")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": bench.metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny-scale check of the benchmark itself")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main(root)
    if args.workload is None:
        parser.error("--workload is required")
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run_workload(bench)
    except (BenchError, procs.Timeout, load.ServeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
