"""HTTP front of the experiment service (stdlib ``http.server``).

The same idiom as :class:`~repro.analysis.objstore.FakeObjectServer`: a
:class:`~http.server.ThreadingHTTPServer` with keep-alive, serving JSON
from a daemon thread, nothing beyond the standard library.  Four
endpoints::

    POST /v1/plans               submit plans (MODULE:FACTORY spec or a
                                 campaign reference); 201 with the
                                 created records, 429 + Retry-After when
                                 the admission gate refuses, 400 on a
                                 malformed body
    GET  /v1/plans/{id}          one plan's record; ``?wait=S`` long-
                                 polls until the state changes (pass the
                                 last seen state as ``&state=X``), which
                                 is how clients stream status without
                                 busy-polling
    GET  /v1/plans/{id}/result   200 values + provenance when done, 202
                                 + record while queued/running, 500 +
                                 error when the plan failed
    GET  /v1/status              scheduler queue, per-tenant virtual
                                 time, admission counters, cache and
                                 distrib fleet stats
    GET  /v1/dashboard           the same state as a live, auto-
                                 refreshing HTML page (rendered by
                                 :mod:`repro.analysis.obs.dashboard`,
                                 with the committed bench trajectory
                                 as inline sparklines when the history
                                 file is present)

Request handling threads only ever *enqueue* work and read records —
execution stays on the service's dispatcher threads — so a slow client
cannot hold a dispatch slot.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.analysis.serve.admission import OverloadedError
from repro.analysis.serve.service import ExperimentService
from repro.errors import ConfigurationError

__all__ = ["DEFAULT_PORT", "ExperimentServer"]

#: Default service port (the object store's neighbour).
DEFAULT_PORT = 9210

#: Longest single long-poll a client may request (it re-polls after).
MAX_WAIT_S = 60.0


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes one request against the owning server's service."""

    protocol_version = "HTTP/1.1"
    server_version = "ReproExperimentService/1.0"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # test and CI logs stay readable

    @property
    def _service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: Dict[str, object],
               headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlsplit(self.path)
        query = {name: values[-1] for name, values in
                 parse_qs(parsed.query, keep_blank_values=True).items()}
        return parsed.path.rstrip("/"), query

    # -- verbs -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler convention)
        path, _ = self._route()
        if path != "/v1/plans":
            self._reply(404, {"error": f"no such endpoint {path!r}"})
            return
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw) if raw else {}
        except ValueError as exc:
            self._reply(400, {"error": f"body is not valid JSON: {exc}"})
            return
        try:
            records = self._service.submit(body)
        except OverloadedError as exc:
            decision = exc.decision
            self._reply(429, {
                "error": decision.reason,
                "retry_after_s": decision.retry_after_s,
            }, headers={"Retry-After":
                        str(max(1, round(decision.retry_after_s)))})
            return
        except ConfigurationError as exc:
            self._reply(400, {"error": str(exc)})
            return
        self._reply(201, {"plans": records})

    def do_GET(self) -> None:  # noqa: N802
        path, query = self._route()
        if path == "/v1/status":
            self._reply(200, self._service.status())
            return
        if path == "/v1/dashboard":
            self._get_dashboard()
            return
        if path.startswith("/v1/plans/"):
            rest = path[len("/v1/plans/"):]
            plan_id, _, tail = rest.partition("/")
            if tail not in ("", "result"):
                self._reply(404, {"error": f"no such endpoint {path!r}"})
                return
            if tail == "result":
                self._get_result(plan_id)
            else:
                self._get_record(plan_id, query)
            return
        self._reply(404, {"error": f"no such endpoint {path!r}"})

    def _get_record(self, plan_id: str, query: Dict[str, str]) -> None:
        wait_s = 0.0
        if "wait" in query:
            try:
                wait_s = min(max(0.0, float(query["wait"])), MAX_WAIT_S)
            except ValueError:
                self._reply(400, {"error": "wait must be a number"})
                return
        if wait_s > 0:
            record = self._service.wait_for(plan_id,
                                            known_state=query.get("state"),
                                            timeout_s=wait_s)
        else:
            record = self._service.record(plan_id)
        if record is None:
            self._reply(404, {"error": f"no plan {plan_id!r}"})
            return
        self._reply(200, {"plan": record})

    def _get_dashboard(self) -> None:
        """``GET /v1/dashboard`` — the status payload as a live page."""
        from repro.analysis.obs.dashboard import render_dashboard
        from repro.analysis.obs.trajectory import load_history

        history_path = getattr(self.server, "history_path", None)
        trajectory = load_history(history_path) if history_path else None
        page = render_dashboard(service=self._service.status(),
                                trajectory=trajectory or None,
                                title="repro experiment service").encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(page)))
        self.end_headers()
        self.wfile.write(page)

    def _get_result(self, plan_id: str) -> None:
        record = self._service.record(plan_id, with_values=True)
        if record is None:
            self._reply(404, {"error": f"no plan {plan_id!r}"})
            return
        state = record["state"]
        if state == "failed":
            self._reply(500, {"error": record["error"], "plan": record})
            return
        if state != "done":
            record.pop("values", None)
            self._reply(202, {"plan": record})
            return
        self._reply(200, {
            "id": record["id"],
            "values": record["values"],
            "provenance": record["provenance"],
        })


class ExperimentServer:
    """The service bound to a socket, serving from a daemon thread.

    Usable standalone (``python -m repro serve start``) or as a context
    manager in tests::

        with ExperimentServer(service, port=0) as server:
            client = ServiceClient(server.url)
    """

    def __init__(self, service: ExperimentService,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 history_path: Optional[str] = None) -> None:
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _ServiceHandler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        # The committed bench trajectory the dashboard plots; None keeps
        # /v1/dashboard alive with the trajectory section marked dark.
        self._httpd.history_path = history_path  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """``http://host:port`` clients point at."""
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ExperimentServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve-http", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ExperimentServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
