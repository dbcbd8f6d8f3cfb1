"""One front door for experiment execution: ``RunConfig`` + ``Session``.

The execution stack now spans four subsystems — the pool
(:mod:`repro.analysis.runner`), the persistent cache
(:mod:`repro.analysis.cache`), the sharded fleet
(:mod:`repro.analysis.distrib`) and the object store
(:mod:`repro.analysis.objstore`) — and before this module every consumer
hand-wired ``Executor(workers=..., persistent=ResultCache(...),
distrib=DistribBackend(...))`` with its own parsing of ``auto`` workers,
cache modes and root URLs.  This module is the single place that wiring
lives:

* :class:`RunConfig` is the one source of truth for execution *policy*
  (workers, cache mode, cache root, distrib root, shard size) with one
  documented resolution chain — explicit kwargs > ``REPRO_*`` environment
  variables > an optional ``repro.toml`` > defaults;
* :class:`Session` is the facade that lazily constructs and owns the
  ``Executor``/``ResultCache``/``DistribBackend`` stack for one resolved
  config, shares one :class:`~repro.analysis.runner.TechnologyCache`
  across every run, and adds an asynchronous
  :meth:`~Session.submit`/:meth:`~Session.gather` path so many plans can
  be in flight at once.

The two-line form every example and benchmark now uses::

    from repro import Session
    from repro.analysis.runner import ExperimentPlan

    session = Session()          # config from kwargs/REPRO_*/repro.toml
    result = session.run(ExperimentPlan.sweep("vdd", [0.3, 0.5, 1.0]),
                         energy=design.energy_per_operation)

Resolution chain (first hit wins, recorded per field in
``config.sources``):

===============  ====================  ==================  =============
field            environment variable  ``repro.toml`` key  default
===============  ====================  ==================  =============
``workers``      ``REPRO_WORKERS``     ``workers``         ``0`` (serial)
``cache_mode``   ``REPRO_CACHE_MODE``  ``cache_mode``      ``"off"``
``cache_root``   ``REPRO_CACHE_DIR``   ``cache_root``      ``None`` (= ``./.repro_cache``)
``distrib_root`` ``REPRO_DISTRIB_ROOT`` ``distrib_root``   ``None`` (no fleet)
``shard_size``   ``REPRO_SHARD_SIZE``  ``shard_size``      ``4``
===============  ====================  ==================  =============

``workers`` accepts ``"auto"`` (= the CPUs *available* to the process:
``os.sched_getaffinity(0)`` where the platform has it, ``os.cpu_count()``
otherwise) anywhere a value is given; the root specs accept a directory
path, an object-store bucket URL
(``http://host:port/bucket``) or the benchmark CLI's ``fs`` / ``obj:URL``
spellings.  The config file is ``./repro.toml`` (overridable through
``$REPRO_CONFIG`` or the ``config_file`` argument), read with the stdlib
``tomllib`` (Python >= 3.11; on older interpreters a present config file
is a :class:`~repro.errors.ConfigurationError` rather than a silent
ignore), keys under a ``[run]`` table::

    [run]
    workers = "auto"
    cache_mode = "rw"
    distrib_root = "http://store:9199/fleet"

Concurrency model: :meth:`Session.run` is synchronous;
:meth:`Session.submit` returns a :class:`RunHandle` backed by a small
thread pool, so several plans execute concurrently — with a distrib root
attached, shards from *different* plans interleave across the fleet.
Values are independent of the path taken (the engine's seeding and
ordering contract), so ``run``, ``submit`` and a serial executor all
return bit-identical results; only the provenance's cache *counters* are
approximate while runs overlap, because they are deltas against the one
shared technology cache.

The command line (``python -m repro run``) builds on this module.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.cache import CACHE_DIR_ENV, CACHE_MODES, ResultCache
from repro.analysis.runner import (
    Executor,
    ExperimentPlan,
    ExperimentResult,
    TechnologyCache,
)
from repro.errors import ConfigurationError

try:  # Python >= 3.11; gated, never a hard dependency
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None

__all__ = [
    "CONFIG_FILE_ENV",
    "DEFAULT_CONFIG_FILENAME",
    "RunConfig",
    "RunHandle",
    "Session",
    "default_session",
    "reset_default_session",
]

#: Environment variable naming the config file (default: ``./repro.toml``).
CONFIG_FILE_ENV = "REPRO_CONFIG"
#: Config file picked up from the working directory when present.
DEFAULT_CONFIG_FILENAME = "repro.toml"

#: field name -> environment variable of the resolution chain.
_ENV_VARS = {
    "workers": "REPRO_WORKERS",
    "cache_mode": "REPRO_CACHE_MODE",
    "cache_root": CACHE_DIR_ENV,
    "distrib_root": "REPRO_DISTRIB_ROOT",
    "shard_size": "REPRO_SHARD_SIZE",
}

#: Default points per shard; mirrored from the distrib module without
#: importing it (sessions without a distrib root never import distrib).
_DEFAULT_SHARD_SIZE = 4


@dataclass(frozen=True)
class RunConfig:
    """Execution policy: everything a :class:`Session` needs to wire up.

    Pure data — no executor, cache or backend objects live here, so a
    config can be resolved once and shared, logged, or compared.  Build
    through :meth:`resolve` (the documented kwargs > environment >
    ``repro.toml`` > defaults chain) rather than the raw constructor;
    the constructor validates but does not parse (``workers`` must
    already be an int, not ``"auto"``).
    """

    #: Pool size; 0/1 = the deterministic serial path.
    workers: int = 0
    #: Persistent-cache mode: ``off`` (no cache), ``rw``, ``ro``.
    cache_mode: str = "off"
    #: Persistent-cache root spec: a directory, a bucket URL, or ``None``
    #: for the cache's own default (``./.repro_cache``).
    cache_root: Optional[str] = None
    #: Shared fleet root (directory or bucket URL); ``None`` = no fleet.
    distrib_root: Optional[str] = None
    #: Points per distrib shard.
    shard_size: int = _DEFAULT_SHARD_SIZE
    #: field name -> where its value came from (``"kwargs"``,
    #: ``"env REPRO_X"``, ``"file <path>"`` or ``"default"``); filled in
    #: by :meth:`resolve`, informational only.
    sources: Mapping[str, str] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or self.workers < 0:
            raise ConfigurationError(
                f"workers must be an int >= 0, got {self.workers!r} "
                "(use RunConfig.resolve() to parse 'auto')")
        if self.cache_mode not in CACHE_MODES:
            raise ConfigurationError(
                f"unknown cache mode {self.cache_mode!r}; "
                f"choose from {CACHE_MODES}")
        if not isinstance(self.shard_size, int) or self.shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be an int >= 1, got {self.shard_size!r}")

    def __cache_fingerprint__(self) -> str:
        # Execution policy must never leak into result content keys: the
        # same plan run serial, pooled or distributed is the same result.
        return type(self).__name__

    # -- field parsers (shared with the benchmark and repro CLIs) ----------

    @staticmethod
    def available_cpus() -> int:
        """CPUs actually available to this process, not just installed.

        Prefers ``os.sched_getaffinity(0)`` where the platform has it:
        under cgroup/taskset-restricted containers ``os.cpu_count()``
        reports the whole machine while the scheduler only ever grants
        the affinity mask, and sizing the fork pool to the machine count
        oversubscribes the mask.  Falls back to ``os.cpu_count()`` on
        platforms without affinity support (macOS, Windows).
        """
        affinity = getattr(os, "sched_getaffinity", None)
        if affinity is not None:
            try:
                return max(1, len(affinity(0)))
            except OSError:
                pass
        return os.cpu_count() or 1

    @staticmethod
    def parse_workers(value) -> int:
        """``auto`` -> :meth:`available_cpus`; otherwise a non-negative int.

        The one implementation of the ``--runner-workers`` /
        ``$REPRO_WORKERS`` / ``workers=`` parsing rule (it used to be
        copied into ``benchmarks/conftest.py``).
        """
        if isinstance(value, bool):
            raise ConfigurationError(f"workers must be an int, got {value!r}")
        if isinstance(value, int):
            parsed = value
        elif isinstance(value, str):
            if value.strip().lower() == "auto":
                return RunConfig.available_cpus()
            try:
                parsed = int(value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"workers must be an integer or 'auto', "
                    f"got {value!r}") from exc
        else:
            raise ConfigurationError(
                f"workers must be an integer or 'auto', got {value!r}")
        if parsed < 0:
            raise ConfigurationError(f"workers must be >= 0, got {parsed}")
        return parsed

    @staticmethod
    def parse_cache_mode(value: str) -> str:
        """Validate a persistent-cache mode (``off`` / ``rw`` / ``ro``)."""
        if value not in CACHE_MODES:
            raise ConfigurationError(
                f"cache mode must be one of {CACHE_MODES}, got {value!r}")
        return value

    @staticmethod
    def parse_root(value) -> Optional[str]:
        """Normalise a storage-root spec to what ``open_store`` accepts.

        ``None``/empty mean "unset" and return ``None`` (the resolution
        chain falls through to its next tier); ``"fs"`` is an *explicit*
        choice of the default local root and returns ``.repro_cache`` —
        so a ``--runner-cache-backend fs`` flag overrides a
        ``$REPRO_CACHE_DIR`` pointing elsewhere, as the precedence chain
        documents; ``obj:URL`` (the benchmark CLI's object-store
        spelling) unwraps and validates the URL; a bare
        ``http(s)://host:port/bucket`` URL or directory path passes
        through.  Shared by ``--runner-cache-backend``, the ``repro``
        CLI's ``--cache-root``/``--distrib-root`` and the environment
        variables.
        """
        if value is None:
            return None
        if isinstance(value, Path):
            return str(value)
        if not isinstance(value, str):
            raise ConfigurationError(
                f"storage root must be a path or URL, got {value!r}")
        spec = value.strip()
        if spec == "":
            return None
        if spec == "fs":
            from repro.analysis.cache import DEFAULT_DIRNAME

            return DEFAULT_DIRNAME
        if spec.startswith("obj:"):
            url = spec[len("obj:"):]
            if not url.startswith(("http://", "https://")):
                raise ConfigurationError(
                    "an obj: storage root needs an http(s) bucket URL "
                    f"(obj:http://HOST:PORT/BUCKET), got {value!r}")
            return url
        return spec

    @staticmethod
    def parse_shard_size(value) -> int:
        """A positive int, from an int or a decimal string."""
        try:
            parsed = int(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"shard_size must be an integer, got {value!r}") from exc
        if parsed < 1:
            raise ConfigurationError(f"shard_size must be >= 1, got {parsed}")
        return parsed

    # -- resolution --------------------------------------------------------

    _PARSERS = {
        "workers": "parse_workers",
        "cache_mode": "parse_cache_mode",
        "cache_root": "parse_root",
        "distrib_root": "parse_root",
        "shard_size": "parse_shard_size",
    }

    @classmethod
    def _file_settings(cls, config_file, environ) -> Tuple[Dict, Optional[str]]:
        """The ``[run]`` table of the config file, plus the path read.

        An *explicitly* named file (argument or ``$REPRO_CONFIG``) must
        exist; the implicit ``./repro.toml`` is optional;
        ``config_file=False`` disables the file tier entirely (hermetic
        resolution for tests).
        """
        if config_file is False:
            return {}, None
        explicit = config_file if config_file is not None \
            else environ.get(CONFIG_FILE_ENV)
        path = Path(explicit) if explicit else Path(DEFAULT_CONFIG_FILENAME)
        if not path.is_file():
            if explicit:
                raise ConfigurationError(f"config file {path} does not exist")
            return {}, None
        if tomllib is None:
            raise ConfigurationError(
                f"config file {path} needs tomllib (Python >= 3.11); "
                "remove the file or pass settings explicitly")
        try:
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(
                f"config file {path} is not valid TOML: {exc}") from exc
        table = data.get("run", {})
        if not isinstance(table, dict):
            raise ConfigurationError(
                f"config file {path}: [run] must be a table")
        known = {f.name for f in dataclass_fields(cls)} - {"sources"}
        unknown = sorted(set(table) - known)
        if unknown:
            raise ConfigurationError(
                f"config file {path}: unknown [run] key(s) "
                f"{', '.join(unknown)}; known: {', '.join(sorted(known))}")
        return table, str(path)

    @classmethod
    def resolve(cls, config_file=None, environ=None,
                **kwargs) -> "RunConfig":
        """Build a config through the documented resolution chain.

        Per field, the first of: a non-``None`` keyword argument, the
        ``REPRO_*`` environment variable, the ``[run]`` table of
        ``repro.toml``, the dataclass default.  *environ* is injectable
        for tests (defaults to ``os.environ``); *config_file* overrides
        the ``$REPRO_CONFIG`` / ``./repro.toml`` lookup (``False``
        disables the file tier entirely).  Unknown keyword arguments are
        a :class:`~repro.errors.ConfigurationError`, not a silent
        ignore.
        """
        environ = os.environ if environ is None else environ
        known = {f.name for f in dataclass_fields(cls)} - {"sources"}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown RunConfig field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}")
        file_settings, file_path = cls._file_settings(config_file, environ)
        values: Dict[str, object] = {}
        sources: Dict[str, str] = {}
        for name in known:
            parser = getattr(cls, cls._PARSERS[name])
            if kwargs.get(name) is not None:
                values[name] = parser(kwargs[name])
                sources[name] = "kwargs"
            elif environ.get(_ENV_VARS[name]):
                values[name] = parser(environ[_ENV_VARS[name]])
                sources[name] = f"env {_ENV_VARS[name]}"
            elif name in file_settings:
                values[name] = parser(file_settings[name])
                sources[name] = f"file {file_path}"
            else:
                values[name] = cls.__dataclass_fields__[name].default
                sources[name] = "default"
        return cls(sources=sources, **values)

    def override(self, **kwargs) -> "RunConfig":
        """A copy with *kwargs* replaced (``None`` values ignored)."""
        changed = {name: value for name, value in kwargs.items()
                   if value is not None}
        if not changed:
            return self
        parsed = {}
        for name, value in changed.items():
            if name not in self._PARSERS:
                raise ConfigurationError(
                    f"unknown RunConfig field {name!r}")
            parsed[name] = getattr(self, self._PARSERS[name])(value)
        sources = dict(self.sources)
        sources.update({name: "kwargs" for name in parsed})
        return replace(self, sources=sources, **parsed)

    def describe(self) -> Dict[str, object]:
        """A plain-dict view (field -> value), for logging and ``--json``."""
        return {
            "workers": self.workers,
            "cache_mode": self.cache_mode,
            "cache_root": self.cache_root,
            "distrib_root": self.distrib_root,
            "shard_size": self.shard_size,
            "sources": dict(self.sources),
        }


# ---------------------------------------------------------------------------
# The facade


class RunHandle:
    """One in-flight :meth:`Session.submit`; a future over the result.

    Carries the plan and quantity names for introspection while the run
    executes on the session's thread pool.  :meth:`result` blocks (and
    re-raises whatever the run raised); :meth:`done` polls.
    """

    def __init__(self, plan: ExperimentPlan, names: Tuple[str, ...],
                 future: "concurrent.futures.Future") -> None:
        self.plan = plan
        self.names = names
        self._future = future

    def done(self) -> bool:
        """Whether the run has finished (successfully or not)."""
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> ExperimentResult:
        """Block until the run finishes and return its result."""
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None):
        """The exception the run raised, or ``None``."""
        return self._future.exception(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "done" if self.done() else "running"
        return (f"RunHandle({self.plan.kind}, {len(self.names)} "
                f"quantities, {state})")


# repro: allow[R4] -- a live Session (executor pool, caches) must never
# cross a process boundary; pickling fails loudly at submit()
class Session:
    """The facade owning one resolved config's execution stack.

    Construction is cheap and lazy: the
    :class:`~repro.analysis.runner.Executor`, the persistent
    :class:`~repro.analysis.cache.ResultCache` and the
    :class:`~repro.analysis.distrib.DistribBackend` are built on first
    use, from the session's :class:`RunConfig`; one
    :class:`~repro.analysis.runner.TechnologyCache` is shared by every
    run the session executes (and preloaded from the persistent store
    when one is attached).

    Either pass a ready :class:`RunConfig` or field overrides that feed
    :meth:`RunConfig.resolve`::

        Session()                          # env / repro.toml / defaults
        Session(workers="auto")            # kwargs beat env beat file
        Session(config)                    # a pre-resolved config

    ``run`` executes synchronously; ``submit`` returns a
    :class:`RunHandle` and executes on a small thread pool so many plans
    are in flight at once (with a distrib root, their shards interleave
    across the fleet).  Serial, pooled and submitted runs of the same
    plan are bit-identical — the engine's ordering/seeding contract —
    so which path a session takes is pure policy.  Sessions are context
    managers; :meth:`close` drains the thread pool.
    """

    #: Concurrent in-flight submits; beyond this, submits queue.  The
    #: intra-plan parallelism is the executor's (workers / the fleet),
    #: so a small constant suffices to keep a fleet saturated with
    #: shards from several plans.
    MAX_INFLIGHT = 4

    def __init__(self, config: Optional[RunConfig] = None,
                 max_inflight: Optional[int] = None, **overrides) -> None:
        if config is None:
            config = RunConfig.resolve(**overrides)
        elif not isinstance(config, RunConfig):
            raise ConfigurationError(
                f"config must be a RunConfig, got {type(config).__name__} "
                "(field overrides go through keyword arguments)")
        elif overrides:
            config = config.override(**overrides)
        if max_inflight is not None and max_inflight < 1:
            raise ConfigurationError("max_inflight must be >= 1")
        self.config = config
        self.max_inflight = max_inflight or self.MAX_INFLIGHT
        #: The one TechnologyCache every run of this session shares.
        self.cache = TechnologyCache()
        self._lock = threading.Lock()
        self._executor: Optional[Executor] = None
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._closed = False

    def __cache_fingerprint__(self) -> str:
        # Like the executor: pure machinery, must not enter content keys.
        return type(self).__name__

    # -- lazy wiring -------------------------------------------------------

    @property
    def executor(self) -> Executor:
        """The lazily built executor (one per session, shared by runs)."""
        with self._lock:
            if self._executor is None:
                self._executor = self._build_executor()
            return self._executor

    def _build_executor(self) -> Executor:
        config = self.config
        persistent = None
        if config.cache_mode != "off":
            persistent = ResultCache(root=config.cache_root,
                                     mode=config.cache_mode)
        distrib = None
        if config.distrib_root is not None:
            from repro.analysis.distrib import DistribBackend

            distrib = DistribBackend(root=config.distrib_root,
                                     shard_size=config.shard_size,
                                     executor_workers=config.workers)
        return Executor(workers=config.workers, cache=self.cache,
                        persistent=persistent, distrib=distrib)

    @property
    def persistent(self) -> Optional[ResultCache]:
        """The persistent cache behind this session (``None`` when off)."""
        return self.executor.persistent

    @property
    def distrib(self):
        """The distrib backend behind this session (``None`` when local)."""
        return self.executor.distrib

    # -- execution ---------------------------------------------------------

    @staticmethod
    def _merge_quantities(quantities, named) -> Dict[str, Callable]:
        merged: Dict[str, Callable] = dict(quantities or {})
        for name, fn in named.items():
            if name in merged:
                raise ConfigurationError(
                    f"quantity {name!r} given both in the mapping and as "
                    "a keyword")
            merged[name] = fn
        if not merged:
            raise ConfigurationError("at least one quantity is required")
        return merged

    def run(self, plan: ExperimentPlan,
            quantities: Optional[Mapping[str, Callable]] = None,
            **named: Callable) -> ExperimentResult:
        """Execute *plan* synchronously; quantities as a mapping or kwargs.

        ``session.run(plan, energy=fn)`` and
        ``session.run(plan, {"energy": fn})`` are the same call; both
        delegate to :meth:`Executor.run
        <repro.analysis.runner.Executor.run>` on the session's executor,
        so the persistent cache and distrib backend (when configured)
        participate exactly as in the hand-wired form.
        """
        return self.executor.run(plan, self._merge_quantities(quantities,
                                                              named))

    def submit(self, plan: ExperimentPlan,
               quantities: Optional[Mapping[str, Callable]] = None,
               **named: Callable) -> RunHandle:
        """Start *plan* asynchronously; returns a :class:`RunHandle`.

        Runs execute on the session's thread pool (at most
        ``max_inflight`` concurrently; further submits queue), all
        against the shared executor stack — so with a distrib backend,
        shards of different submitted plans interleave across the fleet,
        and with a persistent cache every finished plan lands in the one
        store.  Results are bit-identical to :meth:`run`; while runs
        overlap, only the *counter* fields of their provenance
        (technology-cache hits/misses) are approximate, because they are
        deltas against the shared cache.
        """
        merged = self._merge_quantities(quantities, named)
        executor = self.executor  # takes self._lock; build before entering
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "session is closed; create a new Session")
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.max_inflight,
                    thread_name_prefix="repro-session")
            # Submit under the lock: a concurrent close() otherwise shuts
            # the pool between the _closed check and the submit, leaking
            # a RuntimeError where the contract promises the
            # ConfigurationError above.
            future = self._pool.submit(executor.run, plan, merged)
        return RunHandle(plan=plan, names=tuple(merged), future=future)

    def gather(self, *handles) -> List[ExperimentResult]:
        """Block until every handle finishes; results in argument order.

        Accepts handles variadically or as one iterable:
        ``session.gather(h1, h2)`` == ``session.gather([h1, h2])``.
        The first failed run re-raises its exception.
        """
        if len(handles) == 1 and not isinstance(handles[0], RunHandle):
            handles = tuple(handles[0])
        return [handle.result() for handle in handles]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight submits and release the thread pool.

        Idempotent.  The executor stays usable for synchronous
        :meth:`run` calls; only :meth:`submit` is refused afterwards.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The process-default session (what the legacy sweep() helper rides on)


_DEFAULT_SESSION: Optional[Session] = None
_DEFAULT_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide session, resolved lazily from env/``repro.toml``.

    Ad-hoc helpers that predate the session layer
    (:func:`repro.analysis.sweep.sweep`) execute here when not handed an
    explicit executor, so they share the same technology cache and
    persistent store as everything else instead of a parallel code path.
    """
    global _DEFAULT_SESSION
    with _DEFAULT_LOCK:
        if _DEFAULT_SESSION is None:
            _DEFAULT_SESSION = Session()
        return _DEFAULT_SESSION


def reset_default_session() -> None:
    """Drop the process-default session (tests, or after env changes)."""
    global _DEFAULT_SESSION
    with _DEFAULT_LOCK:
        stale, _DEFAULT_SESSION = _DEFAULT_SESSION, None
    if stale is not None:
        stale.close()
