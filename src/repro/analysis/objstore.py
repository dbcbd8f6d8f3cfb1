"""S3-style object-store backend for the experiment cache.

:class:`~repro.analysis.cache.LocalFSStore` needs every fleet machine to
mount one directory; this module removes that requirement.
:class:`ObjectStore` implements the :class:`~repro.analysis.cache.CacheStore`
interface over a minimal S3-style HTTP API — objects under ``bucket/key``,
ETag-conditional puts, paginated listings — so
``repro.analysis.distrib`` fleets can span machines whose only shared
substrate is a network endpoint.

The wire protocol is the S3 *model* without the S3 *ceremony* (no
signatures, no XML): exactly the subset the cache's contract needs, spoken
with nothing but the standard library.

==========================  ==============================================
request                     meaning
==========================  ==============================================
``GET /b/k``                fetch object ``k`` of bucket ``b`` (``ETag``
                            header; 404 when absent)
``HEAD /b/k``               existence/size/ETag probe without the payload
``PUT /b/k``                store the request body; the conditional
                            headers carry the cache's two write
                            primitives: ``If-None-Match: *`` = create
                            exclusively (412 when the key exists),
                            ``If-Match: <etag>`` = compare-and-swap
                            against the live ETag (412 on mismatch, 404
                            when absent)
``DELETE /b/k``             remove the object (404 when absent)
``GET /b?list&prefix=…``    page of keys: ``max-keys`` bounds the page,
                            ``start-after`` resumes after a key; the JSON
                            body reports ``truncated`` so clients page
                            until exhausted
==========================  ==============================================

ETags are hex MD5 of the object bytes (what S3 computes for single-part
puts), so conditional semantics agree exactly with the filesystem
backend's :func:`~repro.analysis.cache.object_etag`.

:class:`FakeObjectServer` is an in-process implementation of that
protocol (a threaded stdlib HTTP server over an in-memory dict), so the
test suite and CI exercise the full client/server path —
including subprocess fleet workers talking to it over real sockets —
without cloud credentials or third-party packages.  Conditional puts are
evaluated under one server-side lock, giving the genuine atomic
compare-and-swap the lease protocol is specified against.

Command line::

    python -m repro serve objstore [--host H] [--port P]

runs a standalone server (e.g. to back
``pytest benchmarks --runner-cache-backend obj:http://HOST:PORT/bench``
or a ``distrib worker --root http://HOST:PORT/fleet`` fleet on one
network).
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import (
    CacheStore,
    ObjectInfo,
    StoredObject,
    object_etag,
)
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "FakeObjectServer",
    "ObjectStore",
    "ObjectStoreError",
]

#: Keys per listing page the client requests (and the server caps at).
DEFAULT_PAGE_SIZE = 1000


class ObjectStoreError(OSError):
    """The endpoint misbehaved: unreachable, or an unexpected status.

    An :class:`OSError` subclass so callers that already tolerate
    filesystem faults (the distrib worker's payload loading, for one)
    treat a flaky endpoint the same way.
    """


# repro: allow[R4] -- must never ride a payload: workers rebuild stores
# from the root URL, and the lock makes accidental capture fail loudly
class ObjectStore(CacheStore):
    """A :class:`~repro.analysis.cache.CacheStore` over the HTTP protocol
    above.

    Parameters
    ----------
    url:
        ``http(s)://host:port/bucket`` — exactly one path segment, the
        bucket.  This is the string fleets pass around as their cache
        *root*.
    page_size:
        Keys requested per listing page (tests shrink it to exercise
        pagination).
    timeout_s:
        Socket timeout of every request.

    One persistent connection is reused across requests (re-opened
    transparently when the server drops it) and guarded by a lock, so a
    worker's heartbeat thread and its main loop can share the store.
    """

    def __init__(self, url: str, page_size: int = DEFAULT_PAGE_SIZE,
                 timeout_s: float = 10.0) -> None:
        parsed = urllib.parse.urlsplit(url)
        bucket = parsed.path.strip("/")
        if (parsed.scheme not in ("http", "https") or not parsed.netloc
                or not bucket or "/" in bucket):
            raise ConfigurationError(
                f"object-store URL must be http(s)://host:port/bucket, "
                f"got {url!r}")
        if page_size < 1:
            raise ConfigurationError("page_size must be >= 1")
        self.url = f"{parsed.scheme}://{parsed.netloc}/{bucket}"
        self.bucket = bucket
        self.page_size = page_size
        self.timeout_s = timeout_s
        self._scheme = parsed.scheme
        self._netloc = parsed.netloc
        self._lock = threading.Lock()
        self._conn: Optional[http.client.HTTPConnection] = None

    def describe(self) -> str:
        return self.url

    def __cache_fingerprint__(self) -> str:
        # Execution machinery: the endpoint must not leak into content keys.
        return type(self).__name__

    # -- transport ---------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        conn_type = (http.client.HTTPSConnection
                     if self._scheme == "https"
                     else http.client.HTTPConnection)
        return conn_type(self._netloc, timeout=self.timeout_s)

    def _request(self, method: str, path: str, body: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None,
                 ) -> Tuple[int, Dict[str, str], bytes]:
        with self._lock:
            last_error: Optional[Exception] = None
            # One transparent retry — but only when the request provably
            # never reached the server (the send itself failed, the usual
            # fate of a keep-alive connection the server idled out) or the
            # verb is read-only.  A conditional PUT whose *response* was
            # lost must NOT be replayed: the server may have committed it,
            # and the replay would then fail its own precondition (the
            # first write changed the ETag), turning a success into a
            # reported failure — e.g. a heartbeat owner concluding it
            # lost a lease it actually refreshed.
            for attempt in (0, 1):
                sent = False
                try:
                    if self._conn is None:
                        self._conn = self._connect()
                    self._conn.request(method, path, body=body,
                                       headers=headers or {})
                    sent = True
                    response = self._conn.getresponse()
                    data = response.read()
                    return (response.status,
                            {k.lower(): v for k, v in
                             response.getheaders()}, data)
                except (http.client.HTTPException, OSError) as exc:
                    last_error = exc
                    if self._conn is not None:
                        self._conn.close()
                        self._conn = None
                    if attempt or (sent and method not in ("GET", "HEAD")):
                        break
            raise ObjectStoreError(
                f"object store {self.url} unreachable: {last_error}")

    def _key_path(self, key: str) -> str:
        if not key or key.startswith("/"):
            raise ConfigurationError(f"invalid object key {key!r}")
        return f"/{self.bucket}/" + urllib.parse.quote(key, safe="/")

    @staticmethod
    def _etag_of(headers: Dict[str, str]) -> str:
        return headers.get("etag", "").strip('"')

    def close(self) -> None:
        """Drop the persistent connection (a new request reopens it)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # -- the CacheStore interface -------------------------------------------

    def get(self, key: str) -> Optional[StoredObject]:
        status, headers, data = self._request("GET", self._key_path(key))
        if status == 404:
            return None
        if status != 200:
            raise ObjectStoreError(f"GET {key}: unexpected status {status}")
        return StoredObject(data=data, etag=self._etag_of(headers))

    def put_atomic(self, key: str, data: bytes) -> str:
        status, headers, _ = self._request("PUT", self._key_path(key), data)
        if status not in (200, 201):
            raise ObjectStoreError(f"PUT {key}: unexpected status {status}")
        return self._etag_of(headers)

    def put_if_absent(self, key: str, data: bytes) -> Optional[str]:
        status, headers, _ = self._request(
            "PUT", self._key_path(key), data,
            headers={"If-None-Match": "*"})
        if status == 412:
            return None
        if status not in (200, 201):
            raise ObjectStoreError(f"PUT {key}: unexpected status {status}")
        return self._etag_of(headers)

    def put_if_match(self, key: str, data: bytes,
                     etag: str) -> Optional[str]:
        status, headers, _ = self._request(
            "PUT", self._key_path(key), data,
            headers={"If-Match": etag})
        if status in (404, 412):
            return None
        if status not in (200, 201):
            raise ObjectStoreError(f"PUT {key}: unexpected status {status}")
        return self._etag_of(headers)

    def list(self, prefix: str = "") -> List[ObjectInfo]:
        found: List[ObjectInfo] = []
        start_after = ""
        while True:
            query = urllib.parse.urlencode({
                "list": "1",
                "prefix": prefix,
                "max-keys": str(self.page_size),
                "start-after": start_after,
            })
            status, _, data = self._request(
                "GET", f"/{self.bucket}?{query}")
            if status != 200:
                raise ObjectStoreError(
                    f"LIST {prefix!r}: unexpected status {status}")
            try:
                page = json.loads(data)
                objects = page["objects"]
                truncated = bool(page["truncated"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ObjectStoreError(
                    f"LIST {prefix!r}: malformed page: {exc}") from exc
            for entry in objects:
                found.append(ObjectInfo(key=str(entry["key"]),
                                        size=int(entry["size"]),
                                        etag=str(entry["etag"])))
            if not truncated or not objects:
                break
            start_after = found[-1].key
        return found

    def delete(self, key: str) -> bool:
        status, _, _ = self._request("DELETE", self._key_path(key))
        if status == 404:
            return False
        if status not in (200, 204):
            raise ObjectStoreError(
                f"DELETE {key}: unexpected status {status}")
        return True

    def stat(self, key: str) -> Optional[ObjectInfo]:
        status, headers, _ = self._request("HEAD", self._key_path(key))
        if status == 404:
            return None
        if status != 200:
            raise ObjectStoreError(f"HEAD {key}: unexpected status {status}")
        return ObjectInfo(key=key,
                          size=int(headers.get("content-length", "0")),
                          etag=self._etag_of(headers))


# ---------------------------------------------------------------------------
# The fake server


class _ObjectStoreHandler(BaseHTTPRequestHandler):
    """One request against the in-memory bucket map.

    Every mutation is evaluated under the server's single lock, so the
    conditional puts are genuinely atomic compare-and-swaps — the
    property the lease protocol's steal path is specified against.
    """

    protocol_version = "HTTP/1.1"  # keep-alive, so clients reuse sockets
    server_version = "FakeObjectStore/1.0"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # test and CI logs stay readable

    # -- plumbing ----------------------------------------------------------

    def _split_path(self) -> Tuple[str, str, Dict[str, str]]:
        parsed = urllib.parse.urlsplit(self.path)
        parts = parsed.path.lstrip("/").split("/", 1)
        bucket = urllib.parse.unquote(parts[0])
        key = urllib.parse.unquote(parts[1]) if len(parts) > 1 else ""
        query = {name: values[-1] for name, values in
                 urllib.parse.parse_qs(parsed.query,
                                       keep_blank_values=True).items()}
        return bucket, key, query

    def _reply(self, status: int, body: bytes = b"",
               etag: Optional[str] = None) -> None:
        self.send_response(status)
        if etag is not None:
            self.send_header("ETag", etag)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    @property
    def _buckets(self) -> Dict[str, Dict[str, bytes]]:
        return self.server.buckets  # type: ignore[attr-defined]

    @property
    def _lock(self) -> threading.Lock:
        return self.server.lock  # type: ignore[attr-defined]

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler convention)
        bucket, key, query = self._split_path()
        if not key:
            self._list(bucket, query)
            return
        with self._lock:
            data = self._buckets.get(bucket, {}).get(key)
        if data is None:
            self._reply(404)
            return
        self._reply(200, body=data, etag=object_etag(data))

    def do_HEAD(self) -> None:  # noqa: N802
        bucket, key, _ = self._split_path()
        with self._lock:
            data = self._buckets.get(bucket, {}).get(key)
        if data is None:
            self._reply(404)
            return
        # HEAD advertises the size without a body; Content-Length is set
        # explicitly, so bypass _reply's len(body) logic.
        self.send_response(200)
        self.send_header("ETag", object_etag(data))
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()

    def do_PUT(self) -> None:  # noqa: N802
        bucket, key, _ = self._split_path()
        if not key:
            self._reply(400)
            return
        length = int(self.headers.get("Content-Length", "0"))
        data = self.rfile.read(length) if length else b""
        if_none_match = self.headers.get("If-None-Match")
        if_match = self.headers.get("If-Match")
        # Decide under the lock, reply after releasing it: a client that
        # stops reading must not stall every other request on the lock.
        with self._lock:
            objects = self._buckets.setdefault(bucket, {})
            existing = objects.get(key)
            if if_none_match == "*" and existing is not None:
                status = 412
            elif if_match is not None and existing is None:
                status = 404
            elif (if_match is not None
                  and object_etag(existing) != if_match.strip('"')):
                status = 412
            else:
                objects[key] = data
                status = 200
        if status == 200:
            self._reply(200, etag=object_etag(data))
        else:
            self._reply(status)

    def do_DELETE(self) -> None:  # noqa: N802
        bucket, key, _ = self._split_path()
        with self._lock:
            removed = self._buckets.get(bucket, {}).pop(key, None)
        self._reply(404 if removed is None else 204)

    def _list(self, bucket: str, query: Dict[str, str]) -> None:
        prefix = query.get("prefix", "")
        start_after = query.get("start-after", "")
        try:
            max_keys = int(query.get("max-keys", str(DEFAULT_PAGE_SIZE)))
        except ValueError:
            self._reply(400)
            return
        max_keys = max(1, min(max_keys, DEFAULT_PAGE_SIZE))
        with self._lock:
            snapshot = dict(self._buckets.get(bucket, {}))
        matching = sorted(key for key in snapshot
                          if key.startswith(prefix) and key > start_after)
        page = matching[:max_keys]
        body = json.dumps({
            "objects": [{"key": key, "size": len(snapshot[key]),
                         "etag": object_etag(snapshot[key])}
                        for key in page],
            "truncated": len(matching) > len(page),
        }).encode()
        self._reply(200, body=body)


class FakeObjectServer:
    """An in-process object-store endpoint (threaded, in-memory).

    Binds ``host:port`` (port 0 picks a free one), serves from a daemon
    thread, and exposes :attr:`url` for clients — in this process, in
    subprocess fleet workers, or on other machines when bound to a
    routable host.  Usable as a context manager::

        with FakeObjectServer() as server:
            store = ObjectStore(f"{server.url}/mybucket")
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _ObjectStoreHandler)
        self._httpd.daemon_threads = True
        self._httpd.buckets = {}  # type: ignore[attr-defined]
        self._httpd.lock = threading.Lock()  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """``http://host:port`` — append ``/bucket`` for a store root."""
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "FakeObjectServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="fake-object-server", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "FakeObjectServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# CLI (python -m repro serve objstore)


def register_cli(parser) -> None:
    """``python -m repro serve objstore``: a standalone server."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1; use "
                             "0.0.0.0 for a fleet-visible endpoint)")
    parser.add_argument("--port", type=int, default=9199,
                        help="bind port (default: 9199; 0 picks a free "
                             "port)")
    parser.set_defaults(func=_serve)


def _serve(args) -> int:
    server = FakeObjectServer(host=args.host, port=args.port)
    print(f"object store serving at {server.url} "
          f"(root spec: {server.url}/<bucket>)", flush=True)
    try:
        server.start()._thread.join()
    except KeyboardInterrupt:
        print("shutting down")
        server.stop()
    return 0
