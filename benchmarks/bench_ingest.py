"""Ingestion fast path: TSV vs binary framing, mmap vs read restore.

Engineering benchmarks for DESIGN.md §16.  PR 4's parse/classify split
measured TSV parse as the Amdahl term of the worker pool (parse is
serial-equivalent work every worker repays in full); the binary framing
exists to collapse that term.  The gates are set against the TSV
field-by-field reference decoder (``_decode_line``), timed over the
same lines held in memory, because that is the decoder the 3x floor
was first set against: the bin reader must run **>=3x** faster than
it, and the header-compiled TSV decoder **>=2x** faster.  Decoded
records must agree across all four before any timing counts.  Writes
``results/bench_ingest.txt``.
"""

from __future__ import annotations

import pathlib
import time

from repro.filterlist.snapshot import load_snapshot, write_snapshot
from repro.http.binlog import write_binlog
from repro.http.log import (
    _FIELD_NAMES,
    SeekableLogReader,
    _compile_decoder,
    _decode_line,
    _strip_eol,
    write_log,
)

_SLICE = 100_000
_ROUNDS = 6


def _corpus(rbn2):
    _, trace, _ = rbn2
    records = list(trace.http[:_SLICE])
    index = 0
    while len(records) < _SLICE:  # tile if the trace came up short
        records.append(trace.http[index % len(trace.http)])
        index += 1
    return records


def _read_file(path: str) -> int:
    with SeekableLogReader(path) as reader:
        return sum(1 for _ in reader)


def test_ingest_head_to_head(rbn2, tmp_path_factory, results_dir):
    """TSV and bin readers, and the two TSV decoders, interleaved best-of-6.

    Not a pytest-benchmark: all four are timed in one interleaved loop
    so allocator/thermal drift hits each equally, and record-level
    identity is asserted first — a fast wrong decoder must not win.
    The decoder rows time decoding alone, over the data lines already
    read, decoded to text and stripped; the reader rows time the whole
    file path.
    """
    from conftest import write_result

    records = _corpus(rbn2)
    tmp = tmp_path_factory.mktemp("ingest")
    tsv_path = str(tmp / "trace.tsv")
    bin_path = str(tmp / "trace.bin")
    with open(tsv_path, "w") as stream:
        write_log(records, stream)
    with open(bin_path, "wb") as stream:
        write_binlog(records, stream)
    with open(tsv_path, encoding="utf-8") as stream:
        lines = [_strip_eol(line) for line in stream if not line.startswith("#")]
    compiled = _compile_decoder(_FIELD_NAMES)

    with SeekableLogReader(tsv_path) as reader:
        from_tsv = list(reader)
    with SeekableLogReader(bin_path) as reader:
        from_bin = list(reader)
    reference = [_decode_line(line, _FIELD_NAMES) for line in lines]
    assert from_bin == from_tsv == reference == [compiled(line) for line in lines] == records

    def decode_reference() -> int:
        for line in lines:
            _decode_line(line, _FIELD_NAMES)
        return len(lines)

    def decode_compiled() -> int:
        for line in lines:
            compiled(line)
        return len(lines)

    runs = {
        "tsv reader": lambda: _read_file(tsv_path),
        "bin reader": lambda: _read_file(bin_path),
        "reference decode": decode_reference,
        "compiled decode": decode_compiled,
    }
    best = {}
    for _ in range(_ROUNDS):  # interleaved: drift hits every row equally
        for name, run in runs.items():
            started = time.perf_counter()
            count = run()
            elapsed = time.perf_counter() - started
            assert count == len(records)
            best[name] = min(best.get(name, float("inf")), elapsed)

    base = best["reference decode"]
    bin_speedup = base / best["bin reader"]
    compiled_speedup = base / best["compiled decode"]
    sizes = {
        "tsv": pathlib.Path(tsv_path).stat().st_size,
        "bin": pathlib.Path(bin_path).stat().st_size,
    }

    lines_out = [
        "Ingestion fast path: parse-phase head-to-head (DESIGN.md 16)",
        f"corpus: {len(records)} RBN-2 records "
        f"(tsv {sizes['tsv'] / 2**20:.1f} MiB, bin {sizes['bin'] / 2**20:.1f} MiB)",
        "",
        f"{'path':<17} {'parse_s':>8} {'us/rec':>7} {'rec/s':>10} {'vs reference':>12}",
    ]
    for name in runs:
        lines_out.append(
            f"{name:<17} {best[name]:>8.3f} "
            f"{best[name] / len(records) * 1e6:>7.2f} "
            f"{len(records) / best[name]:>10.0f} "
            f"{base / best[name]:>11.2f}x"
        )
    lines_out += [
        "",
        "(decode rows: in-memory lines, decoding only; reader rows: the",
        " whole file path.  Parse is the pool's Amdahl term:",
        " T(W) = parse + classify/W, so the bin reader is what every",
        " added worker stops repaying)",
        "",
        f"bin reader over reference decode: {bin_speedup:.2f}x (acceptance floor: 3x)",
        f"compiled over reference decode: {compiled_speedup:.2f}x (acceptance floor: 2x)",
        f"bin reader over tsv reader: {best['tsv reader'] / best['bin reader']:.2f}x",
    ]
    write_result(results_dir, "bench_ingest.txt", "\n".join(lines_out) + "\n")
    assert bin_speedup >= 3.0, f"bin parse speedup regressed: {bin_speedup:.2f}x < 3x"
    assert compiled_speedup >= 2.0, f"compiled TSV decode regressed: {compiled_speedup:.2f}x < 2x"


def test_snapshot_restore_mmap_vs_read(lists, tmp_path_factory, results_dir):
    """Zero-copy (mmap) vs buffered (read) snapshot restore latency.

    The bench-ecosystem lists compile to a ~18 KiB artifact where both
    paths are noise-identical, so the engine is padded to EasyList-order
    filter count — the scale at which the blob copy actually shows up.
    """
    from conftest import write_result
    from repro.filterlist import Filter
    from repro.filterlist.engine import FilterEngine

    engine = FilterEngine()
    for name, lst in lists.items():
        engine.add_filters(lst.filters, list_name=name)
    engine.add_filters(
        [Filter.parse(f"||pad{i}.tracker.example^$third-party") for i in range(20_000)],
        list_name="synthetic-pad",
    )
    tmp = tmp_path_factory.mktemp("snap")
    path = str(tmp / "engine.snap")
    write_snapshot(path, engine)
    size_mib = pathlib.Path(path).stat().st_size / 2**20

    best = {"mmap": float("inf"), "read": float("inf")}
    fingerprints = set()
    for _ in range(5):
        for name, use_mmap in (("mmap", True), ("read", False)):
            started = time.perf_counter()
            loaded = load_snapshot(path, use_mmap=use_mmap)
            best[name] = min(best[name], time.perf_counter() - started)
            fingerprints.add(loaded.engine.fingerprint)
    assert fingerprints == {engine.fingerprint}  # both paths restore the same engine

    lines = [
        "Snapshot restore: mmap (zero-copy) vs buffered read",
        f"artifact: {size_mib:.1f} MiB, {engine.filter_count} filters",
        "",
        f"  mmap: {best['mmap'] * 1e3:.2f} ms   read: {best['read'] * 1e3:.2f} ms   "
        f"({best['read'] / best['mmap']:.2f}x)",
        "",
        "(restore is dominated by engine reconstruction — unpickle plus",
        " regex recompile; the mapping removes the blob copy and digest-",
        " input copy, the rest is format-independent.  Cost is paid per",
        " worker process and per serve hot reload.)",
    ]
    write_result(results_dir, "bench_ingest_snapshot.txt", "\n".join(lines) + "\n")
    assert best["mmap"] > 0 and best["read"] > 0
