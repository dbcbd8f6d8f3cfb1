"""Analysis and reporting helpers.

The paper's evaluation artefacts are curves and in-text numbers (delay
mismatch versus Vdd, energy per operation versus Vdd, count versus sampled
voltage, QoS versus Vdd).  This package provides the generic machinery the
benchmark harness uses to regenerate them:

* :mod:`repro.analysis.metrics` — energy/delay figures of merit (minimum
  energy point, energy-delay product, crossover voltages);
* :mod:`repro.analysis.sweep` — one-dimensional parameter sweeps with named
  series;
* :mod:`repro.analysis.montecarlo` — Monte-Carlo studies over process
  variation;
* :mod:`repro.analysis.runner` — the parallel experiment engine: declarative
  :class:`~repro.analysis.runner.ExperimentPlan` grids (1-D sweeps, 2-D
  grids, seeded Monte-Carlo batches) executed serially or over a process
  pool with bit-identical results;
* :mod:`repro.analysis.cache` — the persistent, content-keyed store that
  carries finished plan results and Technology rebuilds across processes
  (keyed by plan hash + quantity fingerprints + code-version salt),
  backed by a pluggable :class:`~repro.analysis.cache.CacheStore`
  (a local ``.repro_cache/`` directory, or an object store);
* :mod:`repro.analysis.objstore` — the S3-style object-store backend
  (ETag-conditional puts, paginated listings) plus the in-process fake
  server tests and CI run against;
* :mod:`repro.analysis.distrib` — sharded multi-machine execution over a
  shared cache root (a directory or an object-store bucket URL): plans
  partition into content-addressed shards that fleet workers claim via
  heartbeated leases, execute, publish and merge bit-identically to the
  serial path;
* :mod:`repro.analysis.session` — the front door: a
  :class:`~repro.analysis.session.RunConfig` resolved through one chain
  (kwargs > ``REPRO_*`` env vars > ``repro.toml`` > defaults) and a
  :class:`~repro.analysis.session.Session` facade that owns the
  executor/cache/distrib stack and adds an async
  ``submit()``/``gather()`` path (see also ``python -m repro``);
* :mod:`repro.analysis.serve` — the multi-tenant experiment service
  (``python -m repro serve``): an HTTP tier over one shared Session
  where tenants POST plans (``MODULE:FACTORY`` specs or campaign
  references), a fair-share VTC scheduler orders them so a burst tenant
  cannot starve a steady one, and an admission gate sheds overload with
  429 + retry hints without ever throttling plans in flight — results
  bit-identical to a direct ``Session.run``;
* :mod:`repro.analysis.campaign` — declarative scenario campaigns
  (``campaigns/*.toml`` cross-products compiled to plan batches run
  through the Session) and the seeded invariant fuzzer with its
  byte-for-byte replayable violation corpus
  (``python -m repro campaign``);
* :mod:`repro.analysis.report` — plain-text table/series rendering so every
  benchmark prints "the same rows the paper reports".
"""

from repro.analysis.metrics import (
    crossover_voltage,
    energy_delay_product,
    minimum_energy_point,
    ratio_between,
)
from repro.analysis.montecarlo import (
    MonteCarloStudy,
    MonteCarloSummary,
    run_study,
)
from repro.analysis.report import Table, format_series, format_table
from repro.analysis.sweep import Series, SweepResult, sweep

#: Runner, cache and distrib names re-exported lazily (PEP 562) so
#: ``import repro.analysis`` stays light: the execution stack (and the
#: ``python -m repro`` subcommands that need only part of it) import the
#: modules they use, not all of them.
_LAZY_EXPORTS = {
    "Executor": "repro.analysis.runner",
    "ExperimentPlan": "repro.analysis.runner",
    "ExperimentResult": "repro.analysis.runner",
    "RunRecord": "repro.analysis.runner",
    "TechnologyCache": "repro.analysis.runner",
    "CacheStore": "repro.analysis.cache",
    "LocalFSStore": "repro.analysis.cache",
    "ResultCache": "repro.analysis.cache",
    "open_store": "repro.analysis.cache",
    "FakeObjectServer": "repro.analysis.objstore",
    "ObjectStore": "repro.analysis.objstore",
    "DistribBackend": "repro.analysis.distrib",
    "DistribJob": "repro.analysis.distrib",
    "Worker": "repro.analysis.distrib",
    "RunConfig": "repro.analysis.session",
    "RunHandle": "repro.analysis.session",
    "Session": "repro.analysis.session",
    "default_session": "repro.analysis.session",
    "reset_default_session": "repro.analysis.session",
    "AdmissionGate": "repro.analysis.serve",
    "ExperimentServer": "repro.analysis.serve",
    "ExperimentService": "repro.analysis.serve",
    "ServiceClient": "repro.analysis.serve",
    "VTCScheduler": "repro.analysis.serve",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdmissionGate",
    "ExperimentServer",
    "ExperimentService",
    "ServiceClient",
    "VTCScheduler",
    "crossover_voltage",
    "energy_delay_product",
    "minimum_energy_point",
    "ratio_between",
    "MonteCarloStudy",
    "MonteCarloSummary",
    "run_study",
    "Table",
    "format_series",
    "format_table",
    "CacheStore",
    "DistribBackend",
    "DistribJob",
    "Executor",
    "ExperimentPlan",
    "ExperimentResult",
    "FakeObjectServer",
    "LocalFSStore",
    "ObjectStore",
    "ResultCache",
    "RunConfig",
    "RunHandle",
    "RunRecord",
    "Session",
    "TechnologyCache",
    "Worker",
    "default_session",
    "open_store",
    "reset_default_session",
    "Series",
    "SweepResult",
    "sweep",
]
