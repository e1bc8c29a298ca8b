"""HTTP/1.1 message framing shared by both ends of every hop (RFC 9112).

The SPARQL server (:mod:`repro.server.http`) and the sub-request client
(:class:`~repro.federation.http_endpoint.HttpSparqlEndpoint`) read and write
messages through these few functions, on buffered socket readers, instead of
``http.server`` and ``http.client``.  Those parse every header block with the
``email`` package, and importing ``http.client`` also loads ``ssl``.

* :func:`read_fields` reads a header (or trailer) section: field names are
  lower-cased, the first of a repeated name wins, a line may hold at most
  :data:`MAX_LINE` bytes and a section at most :data:`MAX_FIELDS` fields.
* :func:`head` builds a request or response head from a start line and fields.
* :func:`read_chunked` decodes a chunked body; :func:`read_response` reads
  the next final response (skipping 1xx interim responses) with its body
  delimited by ``Content-Length``, chunked coding or the end of the stream.

A message that breaks the framing raises :class:`ProtocolError`, whose
``status`` is what a server answers to it.
"""

from __future__ import annotations

import time
from typing import BinaryIO, Iterable

__all__ = [
    "MAX_FIELDS",
    "MAX_LINE",
    "ProtocolError",
    "format_date",
    "head",
    "read_chunked",
    "read_exactly",
    "read_fields",
    "read_line",
    "read_response",
]

#: Longest start line, field line or chunk-size line accepted, in bytes.
MAX_LINE = 65536
#: Most fields accepted in one header or trailer section.
MAX_FIELDS = 100

_HEX_DIGITS = b"0123456789abcdefABCDEF"
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class ProtocolError(Exception):
    """A message that breaks HTTP/1.1 framing; ``status`` is the server's answer."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def read_line(reader: BinaryIO, status: int = 400) -> bytes:
    """One line, with its line ending; ``b""`` at end of stream."""
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ProtocolError(f"line longer than {MAX_LINE} bytes", status)
    return line


def read_fields(reader: BinaryIO) -> dict[str, str]:
    """The field section up to its empty line, as ``{lower-cased name: value}``."""
    fields: dict[str, str] = {}
    for _ in range(MAX_FIELDS + 1):
        line = read_line(reader, 431)
        if line in (b"\r\n", b"\n"):
            return fields
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            if not line:
                raise ProtocolError("end of stream inside a header section")
            raise ProtocolError(f"bad header line {line[:40]!r}")
        fields.setdefault(name.decode("latin-1").lower(), value.strip().decode("latin-1"))
    raise ProtocolError(f"more than {MAX_FIELDS} header fields", 431)


def head(start_line: str, fields: Iterable[tuple[str, str]]) -> bytes:
    """A message head: start line, one line per field, then the empty line."""
    lines = [start_line, *(f"{name}: {value}" for name, value in fields), "", ""]
    return "\r\n".join(lines).encode("latin-1")


def format_date(seconds: float) -> str:
    """The IMF-fixdate of a POSIX time, as the ``Date`` field carries it."""
    t = time.gmtime(seconds)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def read_chunked(reader: BinaryIO, limit: int | None = None) -> bytes:
    """A chunked body and its trailer section; 413 once it would pass ``limit``."""
    chunks = []
    total = 0
    while True:
        size_text = read_line(reader).split(b";", 1)[0].strip()
        if not size_text or size_text.translate(None, _HEX_DIGITS):
            raise ProtocolError(f"bad chunk size {size_text[:40]!r}")
        size = int(size_text, 16)
        if size == 0:
            read_fields(reader)  # trailers carry nothing this program uses
            return b"".join(chunks)
        total += size
        if limit is not None and total > limit:
            raise ProtocolError("request body too large", 413)
        chunks.append(read_exactly(reader, size))
        if read_line(reader) not in (b"\r\n", b"\n"):
            raise ProtocolError("chunk not followed by a line ending")


def read_response(reader: BinaryIO) -> tuple[int, bytes, bool]:
    """``(status, body, keep_alive)`` of the next final response on ``reader``.

    Raises :class:`ConnectionResetError` when the stream ends before a
    status line (a kept-alive connection the server has closed).
    """
    while True:
        line = read_line(reader)
        if not line:
            raise ConnectionResetError("connection closed before a response")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not version.startswith(b"HTTP/1.") or not (code.isdigit() and len(code) == 3):
            raise ProtocolError(f"bad status line {line[:40]!r}")
        status = int(code)
        fields = read_fields(reader)
        if status >= 200:
            break
    tokens = fields.get("connection", "").lower()
    keep_alive = "keep-alive" in tokens if version == b"HTTP/1.0" else "close" not in tokens
    if status in (204, 304):
        return status, b"", keep_alive
    coding = fields.get("transfer-encoding")
    if coding is not None and coding.lower().endswith("chunked"):
        return status, read_chunked(reader), keep_alive
    length = fields.get("content-length")
    if coding is None and length is not None:
        if not (length.isascii() and length.isdigit()):
            raise ProtocolError(f"bad Content-Length {length[:40]!r}")
        return status, read_exactly(reader, int(length)), keep_alive
    return status, reader.read(), False


def read_exactly(reader: BinaryIO, size: int) -> bytes:
    """``size`` bytes; a stream that ends sooner is a framing error."""
    data = reader.read(size)
    if len(data) < size:
        raise ProtocolError(f"body ended after {len(data)} of {size} bytes")
    return data
