"""Tiny-scale self-test of the benchmark (``run.py --self-test``).

1. Every workload, untraced and traced, runs on a small trace and prints
   every metric of ``run.py``'s tables by name with its unit, in the
   result line too; the tables match ``BENCHMARK.json`` when present.
2. Each correctness check passes on the program's real output and fails
   on a deliberately wrong one: a flipped ``is_ad`` row, a reordered
   row, an altered Table 3 cell and an altered serve decision.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import traceback

import load
import procs
import run

TINY = run.Plan(records=2_000, serve_requests=300, setup_repeats=2, min_repeats=2,
                traced_repeats=1, phase_s=0.3, probe_s=0.2, saturation_requests=200)


def _bench(root: str, workload: str, trace: bool = False) -> run.Bench:
    return run.Bench(root, workload, seed=7, seconds=1, trace=trace, plan=TINY)


def check_tables(root: str) -> list[str]:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as stream:
        spec = json.load(stream)
    problems = []
    for key, table in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        declared = {metric["name"]: metric["unit"] for metric in spec[key]}
        if declared != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {declared} vs {table}")
    names = [workload["name"] for workload in spec["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} vs run.py {list(run.WORKLOADS)}")
    return problems


def check_metrics_printed(root: str, workload: str, trace: bool) -> list[str]:
    bench = _bench(root, workload, trace)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run_workload(bench)
    text = printed.getvalue()
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"not correct: {result['failed']}/{result['attempted']} failed")
    table = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    if sorted(result["metrics"]) != sorted(table):
        problems.append(f"metrics {sorted(result['metrics'])} vs {sorted(table)}")
    for name, unit in table.items():
        if not re.search(rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}$", text, re.M):
            problems.append(f"{name} not printed with unit {unit}")
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{name} has unit {result['metrics'].get(name)} in the result")
    if not trace:
        for name in ("error_rate",) + (("p50_ms.low", "p99_ms.low", "p50_ms.high",
                                        "p99_ms.high", "max_rps")
                                       if workload == "serve-replay" else ()):
            if name not in text:
                problems.append(f"{name} not printed")
    return problems


@contextlib.contextmanager
def _inputs(root: str, workload: str):
    bench = _bench(root, workload)
    os.makedirs(bench.workdir, exist_ok=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run.generate(bench)
        yield bench
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)


def _rewrite_row(path: str, index: int, edit) -> None:
    with open(path) as stream:
        lines = stream.read().splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    lines[rows[index]] = edit(lines[rows[index]])
    with open(path, "w") as stream:
        stream.writelines(lines)


def _flip_is_ad(line: str) -> str:
    fields = line.rstrip("\n").split("\t")
    fields[4] = "0" if fields[4] == "1" else "1"
    return "\t".join(fields) + "\n"


def check_classify_checks(root: str) -> list[str]:
    problems = []
    with _inputs(root, "classify-pool") as bench:
        with contextlib.redirect_stdout(io.StringIO()):
            spec = run.batch_specs(bench)["classify-pool"]
            checker = run.BatchChecker(bench, spec)
            real = bench.run(spec.args, tree=True)
        if bench.failed or checker.check(real) != 0:
            problems.append("classify check fails on the program's real output")
        out = bench.path("out.tsv")
        shutil.copy(out, bench.path("good.tsv"))
        _rewrite_row(out, 17, _flip_is_ad)
        if checker.check(real) != 1:
            problems.append("classify check missed one flipped is_ad row")
        shutil.copy(bench.path("good.tsv"), out)
        with open(out) as stream:
            lines = stream.readlines()
        lines[5], lines[6] = lines[6], lines[5]
        with open(out, "w") as stream:
            stream.writelines(lines)
        if run.order_failures(out, bench.path("trace.tsv")) != 2:
            problems.append("order check missed two swapped rows")
    return problems


def check_usage_check(root: str) -> list[str]:
    problems = []
    with _inputs(root, "usage-tsv-durable") as bench:
        with contextlib.redirect_stdout(io.StringIO()):
            spec = run.batch_specs(bench)["usage-tsv-durable"]
            checker = run.BatchChecker(bench, spec)
            real = bench.run(spec.args)
        if bench.failed or checker.check(real) != 0:
            problems.append("usage check fails on the program's real output")
        altered = re.sub(r"(\d+)\.(\d)%", lambda m: f"{int(m.group(1)) + 1}.{m.group(2)}%",
                         real.stdout, count=1)
        wrong = procs.Run(argv=real.argv, code=0, stdout=altered)
        with contextlib.redirect_stdout(io.StringIO()):
            caught = checker.check(wrong) == bench.inputs["records"]
        if altered == real.stdout or not caught:
            problems.append("usage check missed an altered Table 3 cell")
    return problems


def check_serve_check(root: str) -> list[str]:
    problems = []
    with _inputs(root, "serve-replay") as bench:
        replay = run.Replay(bench)
        server = replay.start()
        try:
            good = load.run_phase(server.port, replay.wire, replay.expects, rate=None,
                                  count=len(replay.wire))
            altered = [dict(expect) for expect in replay.expects]
            altered[3]["is_ad"] = not altered[3]["is_ad"]
            bad = load.run_phase(server.port, replay.wire, altered, rate=None,
                                 count=len(replay.wire))
        finally:
            replay.stop()
        if good.failed:
            problems.append(f"serve check fails on real responses: {good.statuses}, "
                            f"{good.wrong} wrong")
        if bad.wrong != 1:
            problems.append(f"serve check counted {bad.wrong} wrong for one altered decision")
    return problems


def main(root: str) -> int:
    checks = [("BENCHMARK.json matches run.py", lambda: check_tables(root))]
    for workload in run.WORKLOADS:
        for trace in (False, True):
            checks.append((f"{workload} --trace {int(trace)} prints every metric",
                           lambda w=workload, t=trace: check_metrics_printed(root, w, t)))
    checks += [
        ("classify check catches a flipped is_ad row", lambda: check_classify_checks(root)),
        ("usage check catches an altered Table 3 cell", lambda: check_usage_check(root)),
        ("serve check catches an altered decision", lambda: check_serve_check(root)),
    ]
    failures = 0
    for name, check in checks:
        try:
            problems = check()
        except Exception:  # a crashing check is a failing check
            problems = [traceback.format_exc()]
        failures += bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {name}", flush=True)
        for problem in problems:
            print(f"     {problem}", flush=True)
    shutil.rmtree(os.path.join(root, ".perfbench"), ignore_errors=True)
    print(f"self-test: {len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0
