"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

_ECO = ["--publishers", "80", "--eco-seed", "99"]


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    http_path = tmp / "trace.tsv"
    tls_path = tmp / "tls.tsv"
    code = main(
        ["trace", *_ECO, "--preset", "rbn2", "--scale", "0.0005",
         "--out", str(http_path), "--tls-out", str(tls_path)]
    )
    assert code == 0
    return http_path, tls_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("ecosystem", "trace", "classify", "usage", "crawl", "report"):
            args = parser.parse_args(
                [command] + (
                    ["--trace", "x"] if command in ("classify", "report") else []
                ) + (
                    ["--tls", "y"] if command == "usage" else []
                ) + (
                    ["--trace", "x"] if command == "usage" else []
                ) + (
                    ["--out", "z"] if command == "trace" else []
                )
            )
            assert callable(args.func)


class TestEcosystemCommand:
    def test_runs(self, capsys):
        assert main(["ecosystem", *_ECO]) == 0
        out = capsys.readouterr().out
        assert "publishers:  80" in out
        assert "easylist" in out


class TestTraceAndClassify:
    def test_trace_writes_files(self, trace_files):
        http_path, tls_path = trace_files
        head = http_path.read_text().splitlines()
        assert head[0].startswith("#ts")
        assert len(head) > 100
        assert tls_path.read_text().startswith("#ts")

    def test_classify(self, trace_files, capsys, tmp_path):
        http_path, _ = trace_files
        out_path = tmp_path / "classified.tsv"
        code = main(["classify", *_ECO, "--trace", str(http_path), "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ad-related:" in out
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#ts")
        assert any(line.split("\t")[4] == "1" for line in lines[1:])

    def test_usage(self, trace_files, capsys):
        http_path, tls_path = trace_files
        code = main(
            ["usage", *_ECO, "--trace", str(http_path), "--tls", str(tls_path),
             "--min-requests", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "usage classes" in out
        assert "likely Adblock Plus users" in out

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
    def test_usage_on_zero_record_trace(self, tmp_path, capsys, durable):
        """Regression: an empty trace used to divide by zero in Table 3."""
        from repro.http.log import write_log

        http_path, tls_path = tmp_path / "empty.tsv", tmp_path / "empty.tls"
        with open(http_path, "w") as stream:
            write_log([], stream)
        tls_path.write_text("#ts\tclient\tserver\tserver_port\n")
        extra = ["--checkpoint-dir", str(tmp_path / "ckpt")] if durable else []
        code = main(
            ["usage", *_ECO, "--trace", str(http_path), "--tls", str(tls_path), *extra]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "usage classes" in out
        assert "likely Adblock Plus users: 0/0 active browsers" in out

    def test_report(self, trace_files, capsys):
        http_path, _ = trace_files
        assert main(["report", *_ECO, "--trace", str(http_path)]) == 0
        out = capsys.readouterr().out
        assert "Content-Type" in out
        assert "ad share" in out


class TestCrawlCommand:
    def test_crawl(self, capsys):
        assert main(["crawl", *_ECO, "--sites", "15"]) == 0
        out = capsys.readouterr().out
        assert "Vanilla" in out and "AdBP-Pa" in out


@pytest.fixture(scope="module")
def corrupted_trace(trace_files, tmp_path_factory):
    http_path, _ = trace_files
    tmp = tmp_path_factory.mktemp("corrupt")
    damaged = tmp / "damaged.tsv"
    code = main(
        ["corrupt", "--trace", str(http_path), "--out", str(damaged),
         "--rate", "0.1", "--jitter-s", "1.0", "--seed", "7"]
    )
    assert code == 0
    return damaged


class TestDegradedOperation:
    def test_quarantine_completes_with_exit_3(self, corrupted_trace, capsys, tmp_path):
        sidecar = tmp_path / "rejects.tsv"
        code = main(
            ["classify", *_ECO, "--trace", str(corrupted_trace),
             "--on-error", "quarantine", "--quarantine-out", str(sidecar),
             "--reorder-window", "2.0"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "pipeline health" in out
        assert "quarantined" in out

        # No data silently lost: parsed + quarantined == input data lines.
        input_lines = sum(
            1 for line in corrupted_trace.read_text().splitlines()
            if line and not line.startswith("#")
        )
        quarantined = sum(
            1 for line in sidecar.read_text().splitlines()
            if line and not line.startswith("#")
        )
        parsed = int(out.split(" requests classified")[0].rsplit("\n", 1)[-1])
        assert parsed + quarantined == input_lines

    def test_skip_completes_with_exit_3(self, corrupted_trace, capsys):
        code = main(
            ["classify", *_ECO, "--trace", str(corrupted_trace), "--on-error", "skip"]
        )
        assert code == 3
        assert "dropped:" in capsys.readouterr().out

    def test_strict_aborts_citing_line_number(self, corrupted_trace, capsys):
        code = main(["classify", *_ECO, "--trace", str(corrupted_trace)])
        assert code == 1
        err = capsys.readouterr().err
        assert "malformed input at line" in err

    def test_clean_trace_exits_0_with_summary(self, trace_files, capsys):
        http_path, _ = trace_files
        code = main(
            ["classify", *_ECO, "--trace", str(http_path), "--on-error", "quarantine"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dropped:           0" in out

    def test_max_users_flag(self, trace_files, capsys):
        http_path, _ = trace_files
        code = main(
            ["classify", *_ECO, "--trace", str(http_path), "--max-users", "3"]
        )
        assert code == 0
        assert "peak users held:   3" in capsys.readouterr().out


class TestLintCommand:
    FIXTURE = (
        "||ads.example^$bogus-option\n"
        "/(a+)+broken/$script\n"
        "||ok.example^$script\n"
    )

    @pytest.fixture()
    def fixture_path(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text(self.FIXTURE)
        return str(path)

    def test_findings_exit_1(self, fixture_path, capsys):
        assert main(["lint", fixture_path]) == 1
        out = capsys.readouterr().out
        assert "FL006 error" in out and "FL007 warning" in out

    def test_fail_on_error_ignores_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.txt"
        path.write_text("||x.example^$bogus-option\n")
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1

    def test_clean_list_exits_0(self, tmp_path, capsys):
        path = tmp_path / "clean.txt"
        path.write_text("||ads.example^$script\n")
        assert main(["lint", str(path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_format(self, fixture_path, capsys):
        import json

        main(["lint", fixture_path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["counts"]["error"] == 1

    def test_baseline_round_trip(self, fixture_path, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", fixture_path, "--write-baseline", baseline]) == 0
        assert main(["lint", fixture_path, "--baseline", baseline,
                     "--fail-on", "warning"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_baseline_hides_old_but_reports_new(self, fixture_path, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", fixture_path, "--write-baseline", baseline]) == 0
        capsys.readouterr()
        # A fresh finding appears after the baseline was accepted: only
        # it may be reported, and it alone fails the gate.
        with open(fixture_path, "a") as stream:
            stream.write("||new.example^$other-bogus\n")
        assert main(["lint", fixture_path, "--baseline", baseline,
                     "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "other-bogus" in out
        assert "ads.example" not in out and "broken" not in out

    def test_self_gate_is_clean(self, capsys):
        assert main(["lint", "--self", "--fail-on", "warning"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_self_json_format(self, capsys):
        import json

        assert main(["lint", "--self", "--format", "json",
                     "--fail-on", "warning"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["findings"] == []
        assert payload["counts"] == {"error": 0, "warning": 0, "info": 0}

    def test_self_baseline_round_trip(self, tmp_path, capsys):
        # A clean self-lint accepts an empty baseline and stays clean
        # when linted against it — the workflow CI documents for
        # adopting the gate on a repo with pre-existing findings.
        baseline = str(tmp_path / "self-baseline.json")
        assert main(["lint", "--self", "--write-baseline", baseline]) == 0
        assert "0 fingerprint(s)" in capsys.readouterr().out
        assert main(["lint", "--self", "--baseline", baseline,
                     "--fail-on", "warning"]) == 0

    def test_no_input_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["lint"])


@pytest.fixture(scope="module")
def unset_host_trace(trace_files, tmp_path_factory):
    """The fixture trace with ``-`` in the required ``host`` column of line 6."""
    http_path, _ = trace_files
    lines = http_path.read_text().splitlines(keepends=True)
    header = lines[0][1:].rstrip("\n").split("\t")
    tokens = lines[5].rstrip("\n").split("\t")
    tokens[header.index("host")] = "-"
    lines[5] = "\t".join(tokens) + "\n"
    damaged = tmp_path_factory.mktemp("unset") / "unset.tsv"
    damaged.write_text("".join(lines))
    return damaged


class TestUnsetRequiredColumn:
    """Regression: ``-`` in a required column decoded as ``None`` — usage
    died in ``UserStats.add``, classify wrote ``http://None/...`` rows."""

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
    def test_usage_strict_aborts_citing_line(self, unset_host_trace, trace_files, capsys,
                                             tmp_path, durable):
        _, tls_path = trace_files
        extra = ["--checkpoint-dir", str(tmp_path / "ckpt")] if durable else []
        code = main(["usage", *_ECO, "--trace", str(unset_host_trace), "--tls", str(tls_path),
                     *extra])
        assert code == 1
        assert "malformed input at line 6: bad value for field 'host': '-'" in capsys.readouterr().err

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
    @pytest.mark.parametrize("policy", ["skip", "quarantine"])
    def test_usage_degrades_dropping_the_line(self, unset_host_trace, trace_files, capsys,
                                              tmp_path, durable, policy):
        _, tls_path = trace_files
        extra = ["--checkpoint-dir", str(tmp_path / "ckpt")] if durable else []
        code = main(["usage", *_ECO, "--trace", str(unset_host_trace), "--tls", str(tls_path),
                     "--on-error", policy, "--quarantine-out", str(tmp_path / "q.tsv"), *extra])
        assert code == 3
        out = capsys.readouterr().out
        assert "usage classes" in out
        assert "read_log/bad-value: 1" in out

    def test_classify_strict_aborts_citing_line(self, unset_host_trace, capsys):
        assert main(["classify", *_ECO, "--trace", str(unset_host_trace)]) == 1
        assert "malformed input at line 6: bad value for field 'host'" in capsys.readouterr().err

    def test_classify_skip_writes_no_none_rows(self, unset_host_trace, trace_files, capsys,
                                                tmp_path):
        out_path = tmp_path / "out.tsv"
        code = main(["classify", *_ECO, "--trace", str(unset_host_trace), "--on-error", "skip",
                     "--out", str(out_path)])
        assert code == 3
        rows = out_path.read_text().splitlines()[1:]
        data_lines = len(trace_files[0].read_text().splitlines()) - 1
        assert len(rows) == data_lines - 1
        assert not any("None" in row for row in rows)


@pytest.fixture(scope="module")
def damaged_tls(trace_files, tmp_path_factory):
    """The fixture TLS log with a truncated line 3."""
    _, tls_path = trace_files
    lines = tls_path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].split("\t")[0] + "\n"
    damaged = tmp_path_factory.mktemp("tls") / "damaged.tls"
    damaged.write_text("".join(lines))
    return damaged


class TestMalformedTlsLog:
    """Regression: a malformed ``--tls`` line crashed ``repro usage``."""

    def test_strict_aborts_citing_file_and_line(self, trace_files, damaged_tls, capsys):
        http_path, _ = trace_files
        code = main(["usage", *_ECO, "--trace", str(http_path), "--tls", str(damaged_tls)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"malformed input at {damaged_tls} line 3: expected 4 fields, got 1" in err

    @pytest.mark.parametrize("policy", ["skip", "quarantine"])
    def test_degraded_modes_drop_and_count(self, trace_files, damaged_tls, capsys, policy):
        http_path, _ = trace_files
        code = main(["usage", *_ECO, "--trace", str(http_path), "--tls", str(damaged_tls),
                     "--on-error", policy])
        assert code == 3
        out = capsys.readouterr().out
        assert f"dropped 1 malformed lines from {damaged_tls}" in out
        assert "read_tls/field-count: 1" in out
        assert "usage classes" in out
