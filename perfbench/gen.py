"""Seeded input generation for the benchmark (run as a child process).

Usage: ``python3 perfbench/gen.py WORKDIR SEED RECORDS SERVE_REQUESTS``
with ``PYTHONPATH=src`` and ``PYTHONHASHSEED`` pinned by the caller
(trace generation still reads the builtin ``hash()``, so the hash seed
is part of the input's identity).

Writes into WORKDIR:

* ``trace.bin`` / ``trace.tsv`` — the same RBN-2 records, binlog and
  TSV framing, so the decoder is the only difference between formats;
* ``trace.tls`` — the TLS connection log the usage study reads;
* ``empty.bin`` / ``empty.tsv`` / ``empty.tls`` — zero-record inputs of
  the same formats, for the set-up time measurement;
* ``requests.jsonl`` — one ``POST /classify`` body per record of the
  trace's head, each with the decision of an uncached ``buckets``
  :class:`FilterEngine` built from the same lists (the serve oracle);
* ``inputs.json`` — record counts, SHA-256 fingerprints, generation
  rate and the oracle engine's fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

from repro.core.content_type import infer_content_type
from repro.filterlist import build_lists
from repro.filterlist.engine import FilterEngine, RequestContext
from repro.http.binlog import write_binlog
from repro.http.log import write_log
from repro.trace import RBNTraceGenerator, rbn2_config
from repro.web import Ecosystem, EcosystemConfig

# CLI defaults of `repro classify|usage|serve`: the lists the program
# builds must be the lists the trace and the oracle were made with.
PUBLISHERS = 300
ECO_SEED = 20151028
# RBN-2 preset at its smallest population (10 households, 15.5 h); the
# trace is cut to a fixed record count so every seed is the same size.
SCALE = 0.0005
TLS_HEADER = "#ts\tclient\tserver\tserver_port\n"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_tls(path: str, records) -> None:
    with open(path, "w") as stream:
        stream.write(TLS_HEADER)
        for record in records:
            stream.write(f"{record.ts}\t{record.client}\t{record.server}\t{record.server_port}\n")


def _decision(classification) -> dict:
    return {
        "is_ad": classification.is_ad,
        "is_whitelisted": classification.is_whitelisted,
        "blacklist": classification.blacklist_name,
        "whitelist": classification.whitelist_name,
    }


def main(argv: list[str]) -> int:
    workdir, seed, n_records, n_requests = argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    ecosystem = Ecosystem.generate(EcosystemConfig(n_publishers=PUBLISHERS, seed=ECO_SEED))
    lists = build_lists(ecosystem.list_spec())

    started = time.perf_counter()
    generator = RBNTraceGenerator(rbn2_config(scale=SCALE, seed=seed), ecosystem=ecosystem, lists=lists)
    trace = generator.generate()
    gen_s = time.perf_counter() - started
    generated = len(trace.http)
    if generated < n_records:
        print(f"error: seed {seed} generated {generated} records, need {n_records}", file=sys.stderr)
        return 1
    http = trace.http[:n_records]
    horizon = http[-1].ts
    tls = [record for record in trace.tls if record.ts <= horizon]

    paths = {name: os.path.join(workdir, name) for name in (
        "trace.bin", "trace.tsv", "trace.tls", "empty.bin", "empty.tsv", "empty.tls")}
    with open(paths["trace.bin"], "wb") as stream:
        write_binlog(http, stream)
    with open(paths["trace.tsv"], "w") as stream:
        write_log(http, stream)
    _write_tls(paths["trace.tls"], tls)
    with open(paths["empty.bin"], "wb") as stream:
        write_binlog([], stream)
    with open(paths["empty.tsv"], "w") as stream:
        write_log([], stream)
    _write_tls(paths["empty.tls"], [])

    engine = FilterEngine()
    for name, filter_list in lists.items():
        engine.add_filters(filter_list.filters, list_name=name)
    with open(os.path.join(workdir, "requests.jsonl"), "w") as stream:
        for record in http[:n_requests]:
            url = record.url
            content_type = infer_content_type(url, record.content_type)
            body = {"url": url, "page_url": record.referrer or "",
                    "content_type": content_type.name.lower()}
            expect = _decision(engine.classify(url, RequestContext(content_type, body["page_url"])))
            stream.write(json.dumps({"body": body, "expect": expect}) + "\n")

    counts = {"trace.bin": len(http), "trace.tsv": len(http), "trace.tls": len(tls),
              "empty.bin": 0, "empty.tsv": 0, "empty.tls": 0}
    inputs = {
        "seed": seed,
        "scale": SCALE,
        "records": len(http),
        "generated_records": generated,
        "subscribers": generator.subscribers,
        "gen_s": gen_s,
        "gen_rec_per_s": generated / gen_s,
        "oracle_engine_fingerprint": engine.fingerprint,
        "files": {name: {"records": counts[name], "sha256": _sha256(path)}
                  for name, path in paths.items()},
    }
    with open(os.path.join(workdir, "inputs.json"), "w") as stream:
        json.dump(inputs, stream, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
