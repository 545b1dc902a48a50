"""Unit tests for repro.http.log (TSV log records)."""

from __future__ import annotations

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.http import log as log_module
from repro.http.log import (
    _FIELD_NAMES,
    HttpLogRecord,
    SeekableLogReader,
    _compile_decoder,
    _decode_line,
    _encode,
    _strip_eol,
    read_log,
    records_from_text,
    records_to_text,
    transaction_to_record,
    write_log,
)
from repro.http.message import Headers, HttpRequest, HttpResponse, HttpTransaction
from repro.robustness import ErrorPolicy, PipelineHealth


def _record(**overrides) -> HttpLogRecord:
    values = dict(
        ts=1000.5,
        client="anon-1",
        server="101.0.0.1",
        method="GET",
        host="site.example",
        uri="/x?y=1",
        referrer="http://site.example/",
        user_agent="UA/1.0",
        status=200,
        content_type="image/gif",
        content_length=43,
        location=None,
        tcp_handshake_ms=12.5,
        http_handshake_ms=13.9,
        flow_id=7,
    )
    values.update(overrides)
    return HttpLogRecord(**values)


class TestRoundTrip:
    def test_basic_roundtrip(self):
        records = [_record(), _record(ts=1001.0, status=302, location="http://t.example/")]
        parsed = records_from_text(records_to_text(records))
        assert parsed == records

    def test_none_fields(self):
        record = _record(referrer=None, user_agent=None, status=None,
                         content_type=None, content_length=None, http_handshake_ms=None)
        parsed = records_from_text(records_to_text([record]))[0]
        assert parsed.referrer is None
        assert parsed.status is None
        assert parsed.http_handshake_ms is None

    def test_tab_and_newline_escaped(self):
        record = _record(user_agent="weird\tUA\nagent")
        parsed = records_from_text(records_to_text([record]))[0]
        assert parsed.user_agent == "weird\tUA\nagent"

    def test_write_returns_count(self):
        buffer = io.StringIO()
        assert write_log([_record(), _record()], buffer) == 2

    def test_read_skips_blank_lines(self):
        text = records_to_text([_record()]) + "\n\n"
        assert len(list(read_log(io.StringIO(text)))) == 1


class TestCrlfHandling:
    """Regression: a CRLF-terminated log must not poison the last field
    (``rstrip("\\n")`` alone left a trailing ``\\r`` on ``flow_id``)."""

    def test_read_log_strips_crlf(self):
        records = [_record(), _record(ts=1001.0, flow_id=8)]
        crlf_text = records_to_text(records).replace("\n", "\r\n")
        parsed = list(read_log(io.StringIO(crlf_text, newline="")))
        assert parsed == records

    def test_seekable_reader_strips_crlf(self, tmp_path):
        records = [_record(), _record(ts=1001.0, flow_id=8)]
        path = tmp_path / "crlf.tsv"
        path.write_bytes(records_to_text(records).replace("\n", "\r\n").encode())
        with SeekableLogReader(str(path)) as reader:
            assert list(reader) == records
            # offsets still count the real on-disk bytes, CR included
            assert reader.offset == path.stat().st_size

    def test_value_trailing_cr_preserved(self):
        # Only the line terminator is stripped — a field whose value
        # ends in a (escaped) newline keeps it.
        record = _record(uri="/seen\n")
        assert records_from_text(records_to_text([record])) == [record]


class TestUrlProperty:
    def test_relative_uri(self):
        assert _record().url == "http://site.example/x?y=1"

    def test_absolute_uri(self):
        record = _record(uri="http://other.example/z")
        assert record.url == "http://other.example/z"


class TestTransactionConversion:
    def test_flattening(self):
        request = HttpRequest(
            "GET",
            "/a",
            Headers({"Host": "h.example", "Referer": "http://r.example/", "User-Agent": "UA"}),
        )
        response = HttpResponse(
            302,
            headers=Headers(
                {"Content-Type": "text/html; charset=x", "Content-Length": "10",
                 "Location": "http://t.example/"}
            ),
        )
        txn = HttpTransaction(
            client="c", server="s", request=request, response=response,
            ts_request=5.0, ts_response=5.1, tcp_handshake_ms=20.0, flow_id=3,
        )
        record = transaction_to_record(txn)
        assert record.host == "h.example"
        assert record.referrer == "http://r.example/"
        assert record.status == 302
        assert record.content_type == "text/html"
        assert record.content_length == 10
        assert record.location == "http://t.example/"
        assert abs(record.http_handshake_ms - 100.0) < 1e-6
        assert record.flow_id == 3

    def test_missing_response(self):
        request = HttpRequest("GET", "/a", Headers({"Host": "h.example"}))
        txn = HttpTransaction(
            client="c", server="s", request=request, response=None, ts_request=5.0
        )
        record = transaction_to_record(txn)
        assert record.status is None
        assert record.content_type is None
        assert record.http_handshake_ms is None


# -- compiled decoder vs the field-by-field reference ----------------------

_OPTIONAL_COLUMNS = ("tcp_handshake_ms", "flow_id")
_TEXT = st.text(max_size=12)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_WEIRD_TOKENS = st.sampled_from([
    "-", "", "nan", "NaN", "inf", "-inf", "+inf", "Infinity", "1e400", "-1e400",
    " 7 ", "1_000", "0x10", "4.", ".5", "-0", "１２", "%09", "%0A", "1%0A",
    "%0A5", "a%09b", "%0a", "été", "�", "\r", "x\r",
    "a" * 8192, "a" * 8193,
])
_RECORD_VALUES = st.fixed_dictionaries({
    "ts": _FINITE,
    "client": _TEXT,
    "server": _TEXT,
    "method": _TEXT,
    "host": _TEXT,
    "uri": _TEXT,
    "referrer": st.none() | _TEXT,
    "user_agent": st.none() | _TEXT,
    "status": st.none() | st.integers(),
    "content_type": st.none() | _TEXT,
    "content_length": st.none() | st.integers(),
    "location": st.none() | _TEXT,
    "tcp_handshake_ms": _FINITE,
    "http_handshake_ms": st.none() | _FINITE,
    "flow_id": st.integers(),
})


@st.composite
def _headers(draw):
    """Permuted headers, some lacking optional (or required) columns."""
    dropped = draw(st.sets(st.sampled_from(_OPTIONAL_COLUMNS)))
    if draw(st.integers(0, 9)) == 0:
        dropped.add(draw(st.sampled_from(_FIELD_NAMES)))  # a required one, maybe
    names = draw(st.permutations([name for name in _FIELD_NAMES if name not in dropped]))
    if draw(st.integers(0, 9)) == 0:
        names = [*names, draw(st.sampled_from(names))]  # a duplicated column
    return names


@st.composite
def _data_lines(draw, header):
    """A line under ``header``: mostly clean, some fields damaged."""
    values, repeat = draw(_RECORD_VALUES), draw(_RECORD_VALUES)
    # A duplicated column carries its own value: the last one must win.
    tokens = [_encode((repeat if name in header[:i] else values)[name])
              for i, name in enumerate(header)]
    for _ in range(draw(st.integers(0, 2))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_WEIRD_TOKENS | _TEXT)
    width = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    if width < 0:
        tokens.pop()
    elif width > 0:
        tokens.append(draw(_TEXT))
    return "\t".join(tokens)


def _outcome(decode, line):
    try:
        record = decode(line)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", [(type(value), value) for value in record.to_row()])


class TestCompiledDecoder:
    """`_compile_decoder` must agree with `_decode_line` line for line:
    accept/reject, every field value and type, and the error message."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_agrees_with_reference(self, data):
        header = data.draw(_headers())
        line = data.draw(_data_lines(header))
        assert _outcome(_compile_decoder(header), line) == _outcome(
            lambda text: _decode_line(text, header), line
        )

    @pytest.mark.parametrize("name", _FIELD_NAMES)
    @pytest.mark.parametrize("token", ["-", "nan", "inf", "-inf", "%09", "%0A", "a" * 8193])
    def test_every_column_every_awkward_token(self, name, token):
        header = list(_FIELD_NAMES)
        tokens = [_encode(value) for value in _record().to_row()]
        tokens[header.index(name)] = token
        line = "\t".join(tokens)
        assert _outcome(_compile_decoder(header), line) == _outcome(
            lambda text: _decode_line(text, header), line
        )

    @pytest.mark.parametrize("name", log_module._REQUIRED_FIELDS)
    def test_unset_required_column_is_bad_value(self, name):
        tokens = [_encode(value) for value in _record().to_row()]
        tokens[_FIELD_NAMES.index(name)] = "-"
        for decode in (_compile_decoder(_FIELD_NAMES), lambda text: _decode_line(text, _FIELD_NAMES)):
            with pytest.raises(ValueError, match=f"^bad value for field '{name}': '-'$"):
                decode("\t".join(tokens))

    def test_clean_lines_never_reach_the_reference(self, monkeypatch):
        """The fast path really is taken: header permuted, optional columns absent."""
        header = [name for name in reversed(_FIELD_NAMES) if name not in _OPTIONAL_COLUMNS]
        record = _record(tcp_handshake_ms=0.0, flow_id=0, referrer=None, status=None)
        line = "\t".join(_encode(getattr(record, name)) for name in header)
        decode = _compile_decoder(header)

        def unexpected(*args):
            raise AssertionError("fell back to the reference decoder")

        monkeypatch.setattr(log_module, "_decode_line", unexpected)
        assert decode(line) == record


class _Sidecar:
    """Quarantine stand-in recording what the reader rejects."""

    def __init__(self):
        self.rejected = []

    def write(self, line_no, reason, line):
        self.rejected.append((line_no, reason, line))


def _reference_read(data: bytes):
    """The TSV reader's contract, spelled out over `_decode_line`:
    coordinates advance per physical line before a record is yielded."""
    offset = line_no = 0
    header = None
    yielded, rejected = [], []
    for raw in io.BytesIO(data):
        offset += len(raw)
        line_no += 1
        line = _strip_eol(raw.decode("utf-8", errors="replace"))
        if not line:
            continue
        if line.startswith("#"):
            candidate = line[1:].split("\t")
            if set(candidate) <= set(_FIELD_NAMES):
                header = candidate
            continue
        try:
            record = _decode_line(line, header if header is not None else _FIELD_NAMES)
        except ValueError as exc:
            rejected.append((line_no, str(exc), line))
            continue
        yielded.append((record, offset, line_no, header))
    return yielded, rejected, offset, line_no


@st.composite
def _log_files(draw):
    header = None
    chunks = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["data", "data", "data", "blank", "comment", "header"]))
        if kind == "header":
            header = draw(_headers())
            text = "#" + "\t".join(header)
        elif kind == "comment":
            text = "#" + draw(_TEXT)
        elif kind == "blank":
            text = ""
        else:
            text = draw(_data_lines(header or list(_FIELD_NAMES)))
        chunk = text.replace("\n", "%0A").encode("utf-8", errors="surrogatepass")
        if draw(st.integers(0, 7)) == 0:
            cut = draw(st.integers(0, len(chunk)))
            chunk = chunk[:cut] + b"\xff\xfe" + chunk[cut:]  # invalid UTF-8
        chunks.append(chunk + draw(st.sampled_from([b"\n", b"\r\n"])))
    if chunks and draw(st.booleans()):
        chunks[-1] = chunks[-1].rstrip(b"\r\n")  # unterminated last line
    return b"".join(chunks)


class TestReaderCoordinates:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=_log_files())
    def test_offsets_line_numbers_and_rejects_match_reference(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("coords") / "log.tsv"
        path.write_bytes(data)
        sidecar = _Sidecar()
        health = PipelineHealth()
        yielded = []
        with SeekableLogReader(str(path), on_error=ErrorPolicy.QUARANTINE, health=health,
                               quarantine=sidecar) as reader:
            for record in reader:
                yielded.append((record, reader.offset, reader.line_no, reader.header))
            end = (reader.offset, reader.line_no)
        expected, rejected, *expected_end = _reference_read(data)
        assert yielded == expected
        assert sidecar.rejected == rejected
        assert end == tuple(expected_end)
        assert health.records_ok == len(expected)
        assert health.records_quarantined == len(rejected)

    def test_crlf_log_with_mid_file_header(self, tmp_path):
        records = [_record(), _record(ts=1001.0, flow_id=8)]
        header = [name for name in _FIELD_NAMES if name != "flow_id"][::-1]
        text = records_to_text(records[:1]) + "\n# a comment\n#" + "\t".join(header) + "\n"
        text += "\t".join(_encode(getattr(records[1], name)) for name in header) + "\n"
        data = text.replace("\n", "\r\n").encode()
        path = tmp_path / "crlf.tsv"
        path.write_bytes(data)
        with SeekableLogReader(str(path)) as reader:
            got = [(record, reader.offset, reader.line_no) for record in reader]
        expected = [(r, o, n) for r, o, n, _ in _reference_read(data)[0]]
        assert got == expected
        assert [record.flow_id for record, _, _ in got] == [7, 0]
