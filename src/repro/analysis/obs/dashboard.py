"""One pane of glass over the stack's operational feeds (stdlib HTML).

Every layer already speaks JSON — the experiment service's ``GET
/v1/status``, ``distrib status --json``, ``cache --stats --json``, and
the committed ``BENCH_history.jsonl`` trajectory.  This module renders
those feeds into **one auto-refreshing HTML page** with nothing beyond
the standard library (the same idiom as
:class:`~repro.analysis.objstore.FakeObjectServer`: a threaded stdlib
HTTP server, no templates, no JavaScript frameworks — the page is plain
HTML + inline SVG sparklines, refreshed by a ``<meta>`` tag).

Two ways to serve it:

* **From the experiment service** — ``GET /v1/dashboard`` on a running
  ``python -m repro serve start`` renders the service's own
  :meth:`~repro.analysis.serve.service.ExperimentService.status` payload
  (tenants, scheduler, admission, plus the cache/distrib feeds the
  session carries) and the trajectory file next to the server.
* **Standalone, fleet-only** — ``python -m repro obs dashboard --root
  ROOT`` watches a distrib root (and optionally a cache root, a
  trajectory file, or a remote service URL) without requiring the
  service at all: the fleet-operator view.

The page always renders all five sections — tenants, admission, fleet,
cache, trajectory — marking a feed that is absent or unreadable as
*unavailable* rather than dropping the section, so a half-lit dashboard
still shows the operator what is dark.  Section ids (``#tenants``,
``#admission``, ``#fleet``, ``#cache``, ``#trajectory``) are stable:
tests and deep links rely on them.
"""

from __future__ import annotations

import html
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.obs.trajectory import (
    DEFAULT_HISTORY,
    TrajectoryPoint,
    load_history,
)

__all__ = [
    "DEFAULT_DASHBOARD_PORT",
    "DashboardServer",
    "collect_feeds",
    "render_dashboard",
    "sparkline",
]

#: Default standalone-dashboard port (next to the service's 9210).
DEFAULT_DASHBOARD_PORT = 9211

#: Sparklines plot at most this many trailing points per benchmark.
SPARK_POINTS = 60

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 1.5rem; color: #222; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem;
border-bottom: 1px solid #ddd; padding-bottom: .2rem; }
table { border-collapse: collapse; margin: .4rem 0; }
td, th { padding: .15rem .6rem; text-align: left; font-size: .85rem; }
th { color: #666; font-weight: 600; }
tr:nth-child(even) td { background: #f7f7f7; }
.unavailable { color: #999; font-style: italic; }
.bad { color: #b00020; font-weight: 600; } .ok { color: #1a7f37; }
svg.spark { vertical-align: middle; }
.meta { color: #888; font-size: .75rem; margin-top: 2rem; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _fmt(value: object, digits: int = 3) -> str:
    """Numbers compactly, everything else escaped verbatim."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return _esc(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.{digits}g}"


def sparkline(values: Sequence[float], width: int = 140,
              height: int = 26) -> str:
    """Inline-SVG sparkline of *values* (oldest → newest), last point dotted.

    A flat series draws a midline; fewer than two points draw a single
    dot — callers never need to special-case short histories.
    """
    values = list(values)[-SPARK_POINTS:]
    if not values:
        return '<span class="unavailable">no data</span>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 3
    xs = ([pad + index * (width - 2 * pad) / max(1, len(values) - 1)
           for index in range(len(values))])
    ys = [height - pad - (value - lo) * (height - 2 * pad) / span
          for value in values]
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    line = (f'<polyline points="{points}" fill="none" stroke="#4576b5" '
            'stroke-width="1.5"/>' if len(values) > 1 else "")
    dot = (f'<circle cx="{xs[-1]:.1f}" cy="{ys[-1]:.1f}" r="2.5" '
           'fill="#b04545"/>')
    return (f'<svg class="spark" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">{line}{dot}</svg>')


def _table(rows: List[List[str]], header: Sequence[str]) -> str:
    """An HTML table from pre-rendered (already escaped) cells."""
    head = "".join(f"<th>{cell}</th>" for cell in header)
    body = "".join("<tr>" + "".join(f"<td>{cell}</td>" for cell in row)
                   + "</tr>" for row in rows)
    return f"<table><tr>{head}</tr>{body}</table>"


def _section(section_id: str, title: str, body: str) -> str:
    return (f'<section id="{section_id}"><h2>{_esc(title)}</h2>'
            f'{body}</section>')


def _unavailable(note: str) -> str:
    return f'<p class="unavailable">{_esc(note)}</p>'


# -- the five sections ------------------------------------------------------


def _tenants_section(service: Optional[Dict[str, object]]) -> str:
    if not isinstance(service, dict):
        return _section("tenants", "Tenants & scheduler", _unavailable(
            "no service feed — point the dashboard at a running "
            "`repro serve start` (GET /v1/status)"))
    scheduler = service.get("scheduler", {}) or {}
    tenants = service.get("tenants", {}) or {}
    plans = service.get("plans", {}) or {}
    queued_by = scheduler.get("queued_by_tenant", {}) or {}
    virtual = scheduler.get("virtual_time", {}) or {}
    dispatched = scheduler.get("dispatched", {}) or {}
    rows = []
    for tenant in sorted(set(tenants) | set(queued_by) | set(virtual)):
        entry = tenants.get(tenant, {})
        rows.append([
            _esc(tenant),
            _fmt(queued_by.get(tenant, 0)),
            _fmt(entry.get("submitted", 0)),
            _fmt(entry.get("completed", 0)),
            _fmt(entry.get("failed", 0)),
            _fmt(virtual.get(tenant, 0.0)),
            _fmt(dispatched.get(tenant, 0)),
        ])
    summary = (
        f"<p>scheduler <b>{_esc(scheduler.get('scheduler', '?'))}</b>, "
        f"queue depth <b>{_fmt(scheduler.get('depth', 0))}</b> "
        f"(cost {_fmt(scheduler.get('queued_cost', 0.0))}), "
        f"plans: {_fmt(plans.get('queued', 0))} queued / "
        f"{_fmt(plans.get('running', 0))} running / "
        f"{_fmt(plans.get('done', 0))} done / "
        f"{_fmt(plans.get('failed', 0))} failed, "
        f"up {_fmt(service.get('uptime_s', 0.0), 4)}s with "
        f"{_fmt(service.get('dispatchers', '?'))} dispatcher(s)</p>")
    table = (_table(rows, ["tenant", "queued", "submitted", "completed",
                           "failed", "virtual time", "dispatched"])
             if rows else _unavailable("no tenants yet"))
    return _section("tenants", "Tenants & scheduler", summary + table)


def _admission_section(service: Optional[Dict[str, object]]) -> str:
    if not isinstance(service, dict):
        return _section("admission", "Admission gate",
                        _unavailable("no service feed"))
    gate = service.get("admission", {}) or {}
    rejected = gate.get("rejected", 0)
    state = ('<span class="bad">shedding</span>' if rejected else
             '<span class="ok">open</span>')
    rows = [[
        state,
        _fmt(gate.get("admitted", 0)),
        _fmt(rejected),
        _fmt(gate.get("max_depth", "?")),
        _fmt(gate.get("max_cost", "∞") if gate.get("max_cost") is not None
             else "∞"),
        _fmt(gate.get("drain_rate_cost_per_s", 0.0)),
    ]]
    return _section("admission", "Admission gate", _table(
        rows, ["state", "admitted", "rejected", "depth watermark",
               "cost watermark", "drain rate (cost/s, EMA)"]))


def _fleet_section(fleet: Optional[Dict[str, object]]) -> str:
    if not isinstance(fleet, dict) or "error" in fleet:
        note = (f"fleet feed error: {fleet['error']}"
                if isinstance(fleet, dict) else
                "no distrib feed — pass --root ROOT (the shared fleet "
                "root `distrib status --json` reads)")
        return _section("fleet", "Distrib fleet", _unavailable(note))
    oldest = fleet.get("oldest_unclaimed_age_s")
    oldest_cell = ("—" if oldest is None else
                   f'<span class="{"bad" if oldest > 60 else "ok"}">'
                   f"{oldest:.1f}s</span>")
    rows = [[
        _fmt(fleet.get("jobs", 0)),
        _fmt(fleet.get("queue_depth", 0)),
        _fmt(fleet.get("leased", 0)),
        oldest_cell,
    ]]
    body = _table(rows, ["jobs", "queue depth (claimable)", "leased",
                         "oldest unclaimed"])
    workers = fleet.get("workers")
    if isinstance(workers, list):
        worker_rows = [[_esc(info.get("worker", "?")),
                        _fmt(info.get("executed", 0)),
                        _fmt(info.get("age_s", 0.0)) + "s ago"]
                       for info in workers]
        body += (_table(worker_rows, ["worker", "shards executed",
                                      "heartbeat"])
                 if worker_rows else _unavailable("no workers present"))
        skipped = fleet.get("workers_skipped", 0)
        if skipped:
            body += (f'<p class="bad">{_fmt(skipped)} unreadable worker '
                     "presence object(s) skipped</p>")
    return _section("fleet", "Distrib fleet", body)


def _cache_section(cache: Optional[Dict[str, object]],
                   technology: Optional[Dict[str, object]] = None) -> str:
    if not isinstance(cache, dict) or "error" in cache:
        note = (f"cache feed error: {cache['error']}"
                if isinstance(cache, dict) else
                "no persistent-cache feed — pass --cache-root SPEC, or "
                "run with a cache-enabled service")
        body = _unavailable(note)
    else:
        session = cache.get("session", {}) or {}
        hits = session.get("hits", 0)
        misses = session.get("misses", 0)
        total = hits + misses
        rate = f"{hits / total:.0%}" if total else "—"
        body = (f"<p>root <code>{_esc(cache.get('root', '?'))}</code>, "
                f"mode <b>{_esc(cache.get('mode', '?'))}</b>, hit rate "
                f"<b>{rate}</b> ({_fmt(hits)} hit(s) / {_fmt(misses)} "
                f"miss(es), {_fmt(session.get('writes', 0))} write(s) "
                "this session)</p>")
        salt_rows = []
        current = cache.get("current_salt")
        for salt, entry in (cache.get("salts", {}) or {}).items():
            label = _esc(salt[:12]) + ("  (current)" if salt == current
                                       else "")
            salt_rows.append([
                label,
                _fmt(entry.get("results", 0)),
                _fmt(entry.get("result_bytes", 0)),
                _fmt(entry.get("leases", 0)),
            ])
        if salt_rows:
            body += _table(salt_rows, ["code salt", "results", "bytes",
                                       "leases"])
    if isinstance(technology, dict):
        body += (f"<p>in-process technology cache: "
                 f"{_fmt(technology.get('entries', 0))} entr(ies), "
                 f"{_fmt(technology.get('hits', 0))} hit(s) / "
                 f"{_fmt(technology.get('misses', 0))} miss(es)</p>")
    return _section("cache", "Persistent cache", body)


def _trajectory_section(trajectory: Optional[Sequence[TrajectoryPoint]],
                        ) -> str:
    if not trajectory:
        return _section("trajectory", "Bench trajectory", _unavailable(
            "no committed trajectory — append one with "
            "`python -m repro obs append BENCH_ci.json`"))
    by_benchmark: Dict[str, List[TrajectoryPoint]] = {}
    for point in trajectory:
        by_benchmark.setdefault(point.benchmark, []).append(point)
    rows = []
    for name in sorted(by_benchmark):
        points = by_benchmark[name]
        medians = [point.median_s for point in points]
        latest = points[-1]
        first = medians[0]
        trend = latest.median_s / first if first > 0 else 1.0
        trend_cell = (f'<span class="{"bad" if trend > 1.2 else "ok"}">'
                      f"{trend:.2f}x</span>")
        speedup = latest.extra.get("speedup_vs_per_point")
        rows.append([
            f"<code>{_esc(name)}</code>",
            sparkline(medians),
            f"{latest.median_s * 1e3:.2f} ms",
            trend_cell,
            (f"{float(speedup):.0f}x"
             if isinstance(speedup, (int, float)) else "—"),
            _esc(latest.sha),
            _esc(latest.date),
        ])
    return _section("trajectory", "Bench trajectory", _table(
        rows, ["benchmark", "median wall time", "latest", "vs first",
               "batched speedup", "sha", "date"]))


def render_dashboard(service: Optional[Dict[str, object]] = None,
                     fleet: Optional[Dict[str, object]] = None,
                     cache: Optional[Dict[str, object]] = None,
                     trajectory: Optional[Sequence[TrajectoryPoint]] = None,
                     title: str = "repro observability",
                     refresh_s: Optional[int] = 5) -> str:
    """The full dashboard page from whichever feeds are available.

    *service* is a ``GET /v1/status`` payload (its embedded ``cache`` /
    ``distrib`` feeds are used as fallbacks for *cache* / *fleet*);
    *fleet* is a ``distrib status --json`` / ``fleet_queue_stats``
    payload; *cache* a ``cache --stats --json`` payload; *trajectory* a
    loaded ``BENCH_history.jsonl``.  ``refresh_s=None`` renders a
    static page (what ``--out`` writes).
    """
    if isinstance(service, dict):
        fleet = fleet if fleet is not None else service.get("distrib")
        cache = cache if cache is not None else service.get("cache")
    refresh = (f'<meta http-equiv="refresh" content="{int(refresh_s)}">'
               if refresh_s else "")
    technology = (service or {}).get("technology_cache") \
        if isinstance(service, dict) else None
    sections = "\n".join([
        _tenants_section(service),
        _admission_section(service),
        _fleet_section(fleet),
        _cache_section(cache, technology),
        _trajectory_section(trajectory),
    ])
    stamp = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    return (
        "<!DOCTYPE html>\n"
        f'<html lang="en"><head><meta charset="utf-8">{refresh}'
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head>"
        f"<body><h1>{_esc(title)}</h1>\n{sections}\n"
        f'<p class="meta">rendered {stamp}'
        + (f" · auto-refresh every {int(refresh_s)}s" if refresh_s else "")
        + " · feeds: GET /v1/status · distrib status --json · "
          "cache --stats --json · BENCH_history.jsonl</p>"
        "</body></html>\n")


# -- feed collection (the standalone CLI's data path) -----------------------


def collect_feeds(root: Optional[str] = None,
                  cache_root: Optional[str] = None,
                  history: Optional[str] = DEFAULT_HISTORY,
                  service_url: Optional[str] = None,
                  ) -> Dict[str, object]:
    """Gather whichever feeds the arguments select, swallowing feed errors.

    A dead fleet root or an unreachable service becomes an ``{"error":
    ...}`` feed (rendered as such), never an exception: the dashboard's
    job is precisely to stay up when parts of the stack are not.
    """
    feeds: Dict[str, object] = {"service": None, "fleet": None,
                                "cache": None, "trajectory": None}
    if service_url:
        from urllib.error import URLError
        from urllib.request import urlopen

        try:
            with urlopen(f"{service_url.rstrip('/')}/v1/status",
                         timeout=10) as response:
                feeds["service"] = json.loads(response.read())
        except (OSError, ValueError, URLError) as exc:
            feeds["service"] = {"error": str(exc)}
    if root:
        from repro.analysis.distrib import list_workers
        from repro.analysis.distrib import fleet_queue_stats

        try:
            fleet = fleet_queue_stats(root)
            workers = list_workers(root)
            fleet["workers"] = list(workers)
            fleet["workers_skipped"] = workers.skipped
            feeds["fleet"] = fleet
        except (OSError, ValueError) as exc:
            feeds["fleet"] = {"error": str(exc)}
    if cache_root:
        from repro.analysis.cache import ResultCache

        try:
            feeds["cache"] = ResultCache(root=cache_root, mode="ro").stats()
        except (OSError, ValueError) as exc:
            feeds["cache"] = {"error": str(exc)}
    if history:
        feeds["trajectory"] = load_history(history) or None
    return feeds


class _DashboardHandler(BaseHTTPRequestHandler):
    """Serves ``/`` by re-collecting the feeds on every request."""

    protocol_version = "HTTP/1.1"
    server_version = "ReproObsDashboard/1.0"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler convention)
        if self.path.split("?")[0].rstrip("/") not in ("", "/v1/dashboard"):
            body = b'{"error": "only / and /v1/dashboard exist here"}'
            self.send_response(404)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        collect: Callable[[], Dict[str, object]] = \
            self.server.collect  # type: ignore[attr-defined]
        feeds = collect()
        page = render_dashboard(
            service=feeds.get("service"), fleet=feeds.get("fleet"),
            cache=feeds.get("cache"), trajectory=feeds.get("trajectory"),
            title="repro fleet dashboard").encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(page)))
        self.end_headers()
        self.wfile.write(page)


class DashboardServer:
    """The standalone (fleet-only) dashboard, bound to a socket.

    Same shape as :class:`~repro.analysis.serve.http.ExperimentServer`:
    context-manager start/stop, daemon serving thread, ``url`` property.
    *collect* is called per request, so the page is always live.
    """

    def __init__(self, collect: Callable[[], Dict[str, object]],
                 host: str = "127.0.0.1",
                 port: int = DEFAULT_DASHBOARD_PORT) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _DashboardHandler)
        self._httpd.daemon_threads = True
        self._httpd.collect = collect  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "DashboardServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-obs-dashboard", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "DashboardServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def register_cli(parser) -> None:
    """``python -m repro obs dashboard`` — serve or render the page."""
    parser.description = (
        "Serve (or render once with --out) the live observability "
        "dashboard over the fleet/cache/trajectory feeds, no experiment "
        "service required.")
    parser.add_argument("--root", default=None, metavar="ROOT",
                        help="distrib fleet root (directory or bucket "
                             "URL) to watch")
    parser.add_argument("--cache-root", default=None, metavar="SPEC",
                        help="persistent-cache root to report stats for")
    parser.add_argument("--history", default=DEFAULT_HISTORY, metavar="FILE",
                        help="bench trajectory file (default: "
                             f"{DEFAULT_HISTORY})")
    parser.add_argument("--service-url", default=None, metavar="URL",
                        help="running experiment service to include the "
                             "tenant/admission feeds from")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_DASHBOARD_PORT,
                        help="bind port (default: "
                             f"{DEFAULT_DASHBOARD_PORT}; 0 picks a free "
                             "one)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="render one static page to FILE ('-' = "
                             "stdout) and exit instead of serving")
    parser.set_defaults(func=_dashboard_cmd)


def _dashboard_cmd(args) -> int:
    def collect() -> Dict[str, object]:
        return collect_feeds(root=args.root, cache_root=args.cache_root,
                             history=args.history,
                             service_url=args.service_url)

    if args.out is not None:
        feeds = collect()
        page = render_dashboard(
            service=feeds.get("service"), fleet=feeds.get("fleet"),
            cache=feeds.get("cache"), trajectory=feeds.get("trajectory"),
            title="repro fleet dashboard", refresh_s=None)
        if args.out == "-":
            print(page, end="")
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(page)
            print(f"wrote {args.out}")
        return 0

    server = DashboardServer(collect, host=args.host, port=args.port)
    print(f"observability dashboard on {server.url} "
          f"(root={args.root or '-'}, cache={args.cache_root or '-'}, "
          f"history={args.history}, "
          f"service={args.service_url or '-'})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.stop()
    return 0
