"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one figure or in-text number from the paper's
evaluation and prints the corresponding rows; the accompanying assertions pin
the *shape* the paper reports (who wins, by roughly what factor, where the
crossovers and minima fall).

Figure benchmarks declare :class:`~repro.analysis.runner.ExperimentPlan`
grids and run them through one shared
:class:`~repro.analysis.session.Session` — the same front door the
examples, the ``python -m repro`` CLI and library callers use.  Execution
policy resolves through the session's
:class:`~repro.analysis.session.RunConfig` chain: the ``--runner-*``
command-line options below (when given) > ``REPRO_*`` environment
variables > an optional ``repro.toml`` > defaults (serial, cache off,
no fleet).

``pytest benchmarks --runner-workers N`` fans the plan points out over an
``N``-process pool (``auto`` = the CPUs available to the process, i.e.
``os.sched_getaffinity(0)`` where supported); serial and pooled
runs produce bit-identical figures.

``pytest benchmarks --runner-cache {off,rw,ro}`` attaches the persistent
:class:`~repro.analysis.cache.ResultCache` under ``.repro_cache/``: with
``rw``, a second consecutive run answers every plan from disk (the
:class:`~repro.analysis.runner.RunRecord` provenance then reports nonzero
persistent hits); ``ro`` replays an existing cache without ever writing.
CI passes ``off`` explicitly so timing numbers always measure real
evaluation.

``pytest benchmarks --runner-distrib ROOT`` attaches the sharded
multi-machine backend (:class:`~repro.analysis.distrib.DistribBackend`)
over the shared root ``ROOT`` (a directory, or an object-store bucket
URL): plans whose quantities can cross a pickle boundary are partitioned
into leased shards that any fleet worker
(``python -m repro distrib worker --root ROOT``) may claim; the
coordinating pytest process participates, so the suite completes with or
without external workers.  Plans with closure-bound quantities fall back
to the local executor transparently.

``pytest benchmarks --runner-cache-backend {fs,obj:URL}`` selects the
persistent cache's storage backend through the same spec parser the
session layer uses (:meth:`RunConfig.parse_root
<repro.analysis.session.RunConfig.parse_root>`): ``fs`` (the default)
keeps ``.repro_cache/`` on the local filesystem,
``obj:http://HOST:PORT/BUCKET`` aims it at an S3-style object store
(``python -m repro serve objstore`` runs the credential-free fake
server) so
shared-nothing fleet machines replay one another's results.

**Rounds.**  A benchmark that only pins values runs for a single round
unless ``--benchmark-json`` is given: a plain ``pytest`` run checks
every value and ``float.hex`` pin without the calibrated rounds nobody
reads.  A benchmark whose assertions read its own timings (a speedup
floor, an overhead ceiling) is marked ``timed`` and keeps its rounds
everywhere.  Runs that write ``--benchmark-json`` (CI's benchmarks job,
perf-trajectory snapshots) keep the rounds of every benchmark.
"""

from pathlib import Path

import pytest

from repro.analysis.cache import CACHE_MODES
from repro.analysis.session import RunConfig, Session
from repro.errors import ConfigurationError
from repro.models.technology import get_technology


def _workers_option(value):
    """``--runner-workers`` parser: delegates to the one implementation."""
    try:
        return RunConfig.parse_workers(value)
    except ConfigurationError as exc:
        raise pytest.UsageError(f"--runner-workers: {exc}")


def _backend_option(value):
    """``--runner-cache-backend`` parser: ``fs``, ``obj:URL``, dir or URL.

    Reuses the session layer's backend-spec parser, so the benchmark CLI
    accepts exactly what ``$REPRO_CACHE_DIR`` and ``repro.toml`` do;
    returns the cache-root spec (``None`` = the filesystem default).
    """
    try:
        return RunConfig.parse_root(value)
    except ConfigurationError as exc:
        raise pytest.UsageError(f"--runner-cache-backend: {exc}")


def pytest_addoption(parser):
    parser.addoption(
        "--runner-workers", action="store", type=_workers_option,
        default=None,
        help="process-pool size for ExperimentPlan execution "
             "(0 = deterministic serial path, auto = available cpus; "
             "default: resolved from REPRO_WORKERS / repro.toml)")
    parser.addoption(
        "--runner-cache", action="store", choices=CACHE_MODES, default=None,
        help="persistent result cache "
             "(off = always evaluate, rw = read and write, ro = read only; "
             "default: resolved from REPRO_CACHE_MODE / repro.toml)")
    parser.addoption(
        "--runner-cache-backend", action="store", type=_backend_option,
        default=None, metavar="{fs,obj:URL}",
        help="storage backend of the persistent cache: fs = .repro_cache/ "
             "on the local filesystem, obj:URL = an S3-style object store "
             "at URL (http://HOST:PORT/BUCKET); a directory path or bare "
             "bucket URL also works (default: resolved from "
             "REPRO_CACHE_DIR / repro.toml)")
    parser.addoption(
        "--runner-distrib", action="store", default=None, metavar="ROOT",
        help="shared root for sharded multi-machine execution — a "
             "directory or an object-store bucket URL (default: resolved "
             "from REPRO_DISTRIB_ROOT / repro.toml; none = local)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "timed: the benchmark asserts on its own timings, so it "
                   "keeps its calibrated rounds on every run")


def pytest_collection_modifyitems(config, items):
    if config.getoption("benchmark_json", None):
        return
    here = Path(__file__).parent
    single_round = pytest.mark.benchmark(min_rounds=1, max_time=0,
                                         warmup=False)
    for item in items:
        if (here in item.path.parents
                and "benchmark" in getattr(item, "fixturenames", ())
                and item.get_closest_marker("timed") is None):
            item.add_marker(single_round)


def _option(request, name, default):
    try:
        return request.config.getoption(name)
    except ValueError:
        # The options are registered by this conftest; when pytest is invoked
        # from the repository root the registration happens too late for the
        # command line, so fall back to the defaults.
        return default


@pytest.fixture(scope="session")
def run_config(request):
    """Execution policy: CLI options > REPRO_* env > repro.toml > defaults.

    Options left at their ``None`` defaults fall through to the
    environment/file/default tiers of the one documented chain.
    """
    return RunConfig.resolve(
        workers=_option(request, "--runner-workers", None),
        cache_mode=_option(request, "--runner-cache", None),
        cache_root=_option(request, "--runner-cache-backend", None),
        distrib_root=_option(request, "--runner-distrib", None),
    )


@pytest.fixture(scope="session")
def run_session(run_config):
    """The one Session every figure benchmark executes through."""
    with Session(run_config) as session:
        yield session


@pytest.fixture(scope="session")
def executor(run_session):
    """The experiment executor every figure benchmark runs its plan on."""
    return run_session.executor


@pytest.fixture(scope="session")
def tech():
    """The paper's 90 nm CMOS process."""
    return get_technology("cmos90")


@pytest.fixture(scope="session")
def smoke_campaign():
    """The bundled ``paper_space`` campaign, trimmed to its smoke skeleton.

    Compiled once per session: the campaign benchmarks measure execution
    through the shared Session, not TOML parsing.  Skips on interpreters
    without :mod:`tomllib` (the campaign file format needs Python 3.11).
    """
    pytest.importorskip("tomllib")
    from repro.analysis.campaign import compile_campaign, load_campaign
    from repro.analysis.campaign.spec import builtin_campaign_path

    spec = load_campaign(builtin_campaign_path("paper_space"))
    return compile_campaign(spec.trimmed())


def emit(text: str) -> None:
    """Print a benchmark table with a blank line around it."""
    print("\n" + text + "\n")
