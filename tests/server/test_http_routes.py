"""HTTP parsing and route matching — the wire layer in isolation."""

import asyncio

import pytest

from repro.server.http import MAX_BODY, HttpError, Response, read_request
from repro.server.routes import ROUTES, match_route, route_table


def parse_request(raw: bytes):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(scenario())


def test_parses_request_line_headers_body():
    request = parse_request(
        b"POST /diff?x=1 HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Length: 4\r\n"
        b"\r\n"
        b"body"
    )
    assert request.method == "POST"
    assert request.path == "/diff"
    assert request.query == {"x": "1"}
    assert request.headers["host"] == "localhost"
    assert request.body == b"body"
    assert request.keep_alive


def test_clean_eof_returns_none():
    assert parse_request(b"") is None


def test_malformed_request_line_is_400():
    with pytest.raises(HttpError) as excinfo:
        parse_request(b"NOT-HTTP\r\n\r\n")
    assert excinfo.value.status == 400


def test_post_without_content_length_is_411():
    with pytest.raises(HttpError) as excinfo:
        parse_request(b"POST /diff HTTP/1.1\r\n\r\n")
    assert excinfo.value.status == 411


def test_chunked_transfer_encoding_is_411():
    with pytest.raises(HttpError) as excinfo:
        parse_request(
            b"POST /diff HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
    assert excinfo.value.status == 411


def test_oversized_body_is_413():
    # The cap is checked against Content-Length, before any body is read.
    with pytest.raises(HttpError) as excinfo:
        parse_request(
            f"POST /diff HTTP/1.1\r\nContent-Length: {MAX_BODY + 1}\r\n\r\n"
            .encode("latin-1")
        )
    assert excinfo.value.status == 413


def test_http10_defaults_to_close():
    request = parse_request(b"GET /healthz HTTP/1.0\r\n\r\n")
    assert not request.keep_alive


def test_connection_close_header_honoured():
    request = parse_request(
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    assert not request.keep_alive


def test_json_body_validation():
    request = parse_request(
        b"POST /diff HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot-json!"
    )
    with pytest.raises(HttpError) as excinfo:
        request.json()
    assert excinfo.value.status == 400


def test_response_rendering_includes_length_and_connection():
    wire = Response.json({"a": 1}).to_bytes(keep_alive=True)
    assert wire.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"Content-Length: " in wire
    assert b"Connection: keep-alive" in wire
    wire = Response.error(429, "overloaded", "later",
                          headers={"Retry-After": "1"}).to_bytes(False)
    assert b"429 Too Many Requests" in wire
    assert b"Retry-After: 1" in wire
    assert b"Connection: close" in wire


def test_match_route_binds_parameters():
    route, params, known = match_route(
        ROUTES, "GET", "/repos/main/docs/page%2F1/versions/3"
    )
    assert route is not None and route.name == "version"
    # Percent-decoding happens after splitting: an encoded slash stays
    # inside its segment instead of becoming a separator.
    assert params == {"store": "main", "doc_id": "page/1", "version": "3"}
    assert known


def test_match_route_distinguishes_405_from_404():
    route, _, known = match_route(ROUTES, "DELETE", "/diff")
    assert route is None and known
    route, _, known = match_route(ROUTES, "GET", "/no/such/path")
    assert route is None and not known


def test_route_table_is_unique_and_complete():
    table = route_table()
    assert len(table) == len(ROUTES)
    assert len(set(table)) == len(table)
    assert ("POST", "/diff") in table
    assert ("GET", "/metrics") in table
