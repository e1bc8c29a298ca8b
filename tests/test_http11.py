"""The HTTP/1.1 codec both ends share, on in-memory streams, and what it keeps
out of the process."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import http11


def _reader(data: bytes) -> io.BufferedReader:
    return io.BufferedReader(io.BytesIO(data))


class TestFields:
    def test_names_are_lower_cased_and_the_first_repeat_wins(self):
        reader = _reader(b"Content-Type: a\r\nX-Twice:  one \r\ncontent-type: b\r\n\r\nrest")
        assert http11.read_fields(reader) == {"content-type": "a", "x-twice": "one"}
        assert reader.read() == b"rest"

    def test_a_bare_line_feed_ends_the_section(self):
        assert http11.read_fields(_reader(b"A: 1\nB: 2\n\n")) == {"a": "1", "b": "2"}

    @pytest.mark.parametrize("data,status", [
        (b"A: 1\r\n", 400),  # the stream ends inside the section
        (b": no name\r\n\r\n", 400),
        (b"Name : space before the colon\r\n\r\n", 400),
        (b"A: 1\r\n" * 101 + b"\r\n", 431),
        (b"A: " + b"x" * 65536 + b"\r\n\r\n", 431),
    ])
    def test_broken_sections(self, data, status):
        with pytest.raises(http11.ProtocolError) as excinfo:
            http11.read_fields(_reader(data))
        assert excinfo.value.status == status

    def test_a_hundred_fields_are_accepted(self):
        data = b"".join(b"F%d: %d\r\n" % (i, i) for i in range(100)) + b"\r\n"
        assert len(http11.read_fields(_reader(data))) == 100


def test_head_and_date():
    assert http11.head("GET / HTTP/1.1", [("Host", "x"), ("Accept", "*/*")]) == (
        b"GET / HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n"
    )
    assert http11.format_date(784111777) == "Sun, 06 Nov 1994 08:49:37 GMT"


class TestResponses:
    def test_content_length(self):
        reader = _reader(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcNEXT")
        assert http11.read_response(reader) == (200, b"abc", True)
        assert reader.read() == b"NEXT"

    def test_interim_responses_are_skipped(self):
        data = (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: x\r\n\r\n"
                b"HTTP/1.1 404 Not Found\r\nContent-Length: 1\r\n\r\nx")
        assert http11.read_response(_reader(data)) == (404, b"x", True)

    def test_chunked_with_extensions_and_trailers(self):
        data = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3;name=value\r\nabc\r\nA\r\n0123456789\r\n0\r\nTrailer: t\r\n\r\nNEXT")
        reader = _reader(data)
        assert http11.read_response(reader) == (200, b"abc0123456789", True)
        assert reader.read() == b"NEXT"

    def test_an_unsized_body_runs_to_the_end_of_the_stream(self):
        data = b"HTTP/1.1 200 OK\r\n\r\neverything"
        assert http11.read_response(_reader(data)) == (200, b"everything", False)

    @pytest.mark.parametrize("version,connection,keep_alive", [
        (b"HTTP/1.1", b"", True),
        (b"HTTP/1.1", b"Connection: close\r\n", False),
        (b"HTTP/1.0", b"", False),
        (b"HTTP/1.0", b"Connection: Keep-Alive\r\n", True),
    ])
    def test_keep_alive(self, version, connection, keep_alive):
        data = version + b" 204 No Content\r\n" + connection + b"\r\n"
        assert http11.read_response(_reader(data)) == (204, b"", keep_alive)

    def test_end_of_stream_before_a_status_line_reads_as_a_reset(self):
        with pytest.raises(ConnectionResetError):
            http11.read_response(_reader(b""))

    @pytest.mark.parametrize("data,message", [
        (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab", "body ended after 2 of 5"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "bad Content-Length"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x3\r\nabc\r\n",
         "bad chunk size"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcd\r\n",
         "chunk not followed"),
        (b"HTTP/2 200\r\n\r\n", "bad status line"),
        (b"HTTP/1.1 OK\r\n\r\n", "bad status line"),
    ])
    def test_broken_responses(self, data, message):
        with pytest.raises(http11.ProtocolError, match=message):
            http11.read_response(_reader(data))


def test_a_chunked_body_over_its_limit_is_refused_before_it_is_read():
    with pytest.raises(http11.ProtocolError) as excinfo:
        http11.read_chunked(_reader(b"5\r\nabcde\r\n5\r\n"), limit=8)
    assert excinfo.value.status == 413


def test_importing_the_package_loads_no_stdlib_http_ssl_or_email():
    probe = (
        "import sys, repro, repro.server, repro.federation\n"
        "print(sorted(m for m in ('ssl', 'email', 'http.client', 'http.server')"
        " if m in sys.modules))"
    )
    env = dict(os.environ)
    source_dir = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(source_dir) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        check=True, env=env,
    )
    assert done.stdout.strip() == "[]"
