"""Parallel experiment engine: declarative plans over a worker pool.

Every figure the paper reports is a loop over independent points — Vdd
steps, (Vdd, temperature) grid cells or Monte-Carlo samples.  This module
captures that loop once: an :class:`ExperimentPlan` names the axes and
enumerates the point grid, and an :class:`Executor` fans the points out
over a ``multiprocessing`` pool (falling back to a deterministic serial
loop), deduplicates repeated :class:`~repro.models.technology.Technology`
rebuilds through a keyed :class:`TechnologyCache`, streams the values into
the existing :class:`~repro.analysis.sweep.Series` /
:class:`~repro.analysis.montecarlo.MonteCarloSummary` types and records
per-run provenance (seed, axes, wall time) in a :class:`RunRecord`.

Usage, mirroring ``examples/quickstart.py``:

    from repro import get_technology
    from repro.analysis.runner import Executor, ExperimentPlan
    from repro.core.design_styles import SpeedIndependentDesign

    tech = get_technology("cmos90")
    design = SpeedIndependentDesign(tech)
    plan = ExperimentPlan.sweep("vdd", [0.3, 0.5, 0.7, 1.0])
    result = Executor(workers=4).run(
        plan, {"energy": design.energy_per_operation})
    print(result.series("energy").argmin())

Results are reassembled in point order, so a parallel run is bit-identical
to the serial fallback for the same plan and seed.

Quantities that can evaluate a whole shard as numpy arrays can opt into
the *batched* protocol (:func:`batched` / :class:`BatchedQuantity`): when
every requested quantity supports it, the executor evaluates the plan in
one vectorised pass instead of one Python call per point, with Monte-Carlo
sample streams pre-drawn per index so seeding is unchanged.  The derived
per-point path evaluates the same kernel on a one-point batch, so batched
and per-point execution are bit-identical by construction.

Runs can additionally be persisted *between* processes through
:class:`repro.analysis.cache.ResultCache`: construct the executor as
``Executor(persistent=ResultCache(mode="rw"))`` and a plan whose content
key (plan declaration + quantity fingerprints + code-version salt) was
executed before is answered from ``.repro_cache/`` without evaluating a
single point, bit-identically to the original run.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields as dataclass_fields
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.cache import ResultCache, callable_fingerprint
from repro.errors import ConfigurationError
from repro.models.batch import TechnologyBatch
from repro.models.technology import Technology
from repro.models.variation import Corner, ProcessVariation

__all__ = [
    "Axis",
    "BatchedQuantity",
    "ExperimentPlan",
    "ExperimentResult",
    "Executor",
    "RunRecord",
    "TechnologyCache",
    "VariationSpec",
    "batched",
    "sample_seed",
]


# ---------------------------------------------------------------------------
# Plans


@dataclass(frozen=True)
class Axis:
    """One named experiment axis and its ordered point values."""

    name: str
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("axis name must not be empty")
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class VariationSpec:
    """Process-variation magnitudes for a Monte-Carlo plan."""

    sigma_vth: float = 0.03
    sigma_drive: float = 0.05
    sigma_leak: float = 0.3
    corner: Corner = Corner.TYPICAL

    def key(self) -> Tuple:
        return (self.sigma_vth, self.sigma_drive, self.sigma_leak,
                self.corner.value)


@dataclass(frozen=True)
class ExperimentPlan:
    """A declarative grid of experiment points.

    A plan is pure data — axes, point values and (for Monte-Carlo) the
    seed, base technology and variation magnitudes; execution policy lives
    entirely in the :class:`Executor`.  Build plans through the
    constructors (:meth:`sweep`, :meth:`grid`, :meth:`monte_carlo`) rather
    than directly.  Three kinds are supported:

    * ``"sweep"`` — one axis; quantities are called as ``fn(x)``;
    * ``"grid"`` — two axes, the second varying fastest (row-major);
      quantities are called as ``fn(x, y)``;
    * ``"montecarlo"`` — one synthetic ``sample`` axis; quantities are
      called as ``fn(perturbed_technology)`` where sample *i* is drawn from
      its own RNG stream seeded :func:`sample_seed(seed, i) <sample_seed>`,
      so execution order (and the serial/parallel split) cannot change the
      values.

    :meth:`points` enumerates the coordinate tuples in the one canonical
    order every executor (and the persistent cache) reassembles results
    by; :attr:`shape` and :attr:`point_count` describe the geometry.
    """

    kind: str
    axes: Tuple[Axis, ...]
    seed: Optional[int] = None
    technology: Optional[Technology] = None
    variation: Optional[VariationSpec] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def sweep(cls, variable: str,
              values: Sequence[float]) -> "ExperimentPlan":
        """A 1-D sweep of *variable* over *values*."""
        if len(values) == 0:
            raise ConfigurationError("sweep values must not be empty")
        return cls(kind="sweep",
                   axes=(Axis(variable, tuple(float(v) for v in values)),))

    @classmethod
    def grid(cls, x_name: str, x_values: Sequence[float],
             y_name: str, y_values: Sequence[float]) -> "ExperimentPlan":
        """A 2-D grid; the second axis varies fastest (row-major order)."""
        if x_name == y_name:
            raise ConfigurationError("grid axes must have distinct names")
        if len(x_values) == 0 or len(y_values) == 0:
            raise ConfigurationError("grid axes must not be empty")
        return cls(kind="grid",
                   axes=(Axis(x_name, tuple(float(v) for v in x_values)),
                         Axis(y_name, tuple(float(v) for v in y_values))))

    @classmethod
    def monte_carlo(cls, samples: int, *, technology: Technology,
                    seed: int = 0, sigma_vth: float = 0.03,
                    sigma_drive: float = 0.05, sigma_leak: float = 0.3,
                    corner: Corner = Corner.TYPICAL) -> "ExperimentPlan":
        """A seeded Monte-Carlo batch of *samples* perturbed technologies."""
        if samples < 1:
            raise ConfigurationError("samples must be >= 1")
        if technology is None:
            raise ConfigurationError("a Monte-Carlo plan needs a technology")
        return cls(kind="montecarlo",
                   axes=(Axis("sample", tuple(range(samples))),),
                   seed=int(seed),
                   technology=technology,
                   variation=VariationSpec(sigma_vth=sigma_vth,
                                           sigma_drive=sigma_drive,
                                           sigma_leak=sigma_leak,
                                           corner=corner))

    # -- geometry ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        """Axis lengths, outermost first."""
        return tuple(len(axis.values) for axis in self.axes)

    @property
    def point_count(self) -> int:
        """Total number of points in the grid."""
        count = 1
        for n in self.shape:
            count *= n
        return count

    def points(self) -> List[Tuple[float, ...]]:
        """All coordinate tuples in row-major order (last axis fastest)."""
        return list(itertools.product(*(axis.values for axis in self.axes)))

    def describe_axes(self) -> Dict[str, int]:
        """Axis name → point count, for provenance."""
        return {axis.name: len(axis.values) for axis in self.axes}

    def shard_ranges(self, shard_size: int) -> List[Tuple[int, int]]:
        """Contiguous ``(start, stop)`` index ranges covering the plan.

        The partitioning primitive of the distributed runner
        (:mod:`repro.analysis.distrib`): every shard holds at most
        *shard_size* points, sizes differ by at most one (so a fleet sees
        evenly weighted claims rather than a runt tail shard), and
        concatenating the ranges in order re-enumerates :meth:`points`
        exactly.  Indices are *global*, which is what keeps Monte-Carlo
        seeding shard-invariant: sample ``i`` draws from
        :func:`sample_seed(seed, i) <sample_seed>` no matter which shard —
        or machine — evaluates it.
        """
        if shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")
        count = self.point_count
        shards = -(-count // shard_size)
        base, extra = divmod(count, shards)
        ranges: List[Tuple[int, int]] = []
        start = 0
        for index in range(shards):
            stop = start + base + (1 if index < extra else 0)
            ranges.append((start, stop))
            start = stop
        return ranges


# ---------------------------------------------------------------------------
# Technology cache


def sample_seed(seed: int, index: int) -> int:
    """The RNG seed of Monte-Carlo sample *index* of a study seeded *seed*.

    Derived through :class:`numpy.random.SeedSequence` over the ``(seed,
    index)`` pair rather than ``seed + index``, so studies with nearby base
    seeds do not share sample streams (``seed + index`` would make seed 1's
    sample *i* identical to seed 0's sample *i + 1*, turning "independent
    replications" over seeds 0, 1, 2, ... into near-copies).
    """
    return int(np.random.SeedSequence((seed, index)).generate_state(1,
                                                                    np.uint64)[0])


def _technology_key(technology: Technology) -> Tuple:
    """A hashable identity for a (frozen, dict-bearing) Technology."""
    parts: List = []
    for field in dataclass_fields(technology):
        value = getattr(technology, field.name)
        if isinstance(value, dict):
            value = tuple(sorted(value.items()))
        parts.append(value)
    return tuple(parts)


class TechnologyCache:
    """Keyed, bounded cache of rebuilt :class:`Technology` objects.

    Rebuilding a technology — a corner shift, a temperature override or a
    Monte-Carlo perturbation — is pure, so identical rebuild requests can
    share one object.  Grid sweeps rebuild the same technology once per
    row and Monte-Carlo studies rebuild the same sample once per quantity;
    both collapse to a single construction here.  The cache is per-process:
    pool workers each hold their own copy, so the hit counters reported in
    provenance describe the coordinating process only.

    Entry bookkeeping is guarded by a lock, so one cache may be shared by
    the concurrent runs of a :class:`repro.analysis.session.Session`;
    builds happen outside the lock (two threads missing the same key both
    build — benign, rebuilds are pure — and the first insert wins).
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, Technology]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        _LIVE_CACHES.add(self)

    def __getstate__(self):
        # Pickled closures carry the entries, not the (unpicklable) lock.
        # Snapshot under the lock: a concurrent Session run may be
        # inserting entries, and iterating a mutating OrderedDict raises.
        with self._lock:
            state = self.__dict__.copy()
            state["_entries"] = OrderedDict(self._entries)
        del state["_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        _LIVE_CACHES.add(self)

    def fork_guard(self) -> threading.Lock:
        """The entry lock, for callers about to ``fork()``.

        A fork taken while *another* thread holds the lock would hand
        every child a permanently-held lock copy (and possibly a
        mid-mutation entry dict).  Forking under ``with
        cache.fork_guard():`` quiesces the cache for the instant of the
        fork; the children's inherited (held) locks are re-armed by the
        :func:`os.register_at_fork` hook below.
        """
        return self._lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __cache_fingerprint__(self) -> str:
        # Persistent-cache keys must not depend on execution machinery:
        # the hit/miss counters and entry set vary run to run.
        return type(self).__name__

    def snapshot(self) -> Dict[Tuple, Technology]:
        """A copy of the current entries (for persistence between runs)."""
        with self._lock:
            return dict(self._entries)

    def preload(self, entries: Mapping[Tuple, Technology]) -> None:
        """Adopt previously persisted *entries* without touching counters."""
        with self._lock:
            for key, value in entries.items():
                if key not in self._entries:
                    self._entries[key] = value
                    if len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)

    def _get_or_build(self, key: Tuple,
                      build: Callable[[], Technology]) -> Technology:
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
        # Build outside the lock: rebuilds are pure, so a concurrent miss
        # on the same key costs a duplicated build, never a wrong entry.
        value = self._get_or_build_locked(key, build())
        return value

    def _get_or_build_locked(self, key: Tuple,
                             built: Technology) -> Technology:
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = built
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return built

    def scaled(self, base: Technology, **overrides: float) -> Technology:
        """Cached equivalent of ``base.scaled(**overrides)``."""
        key = ("scaled", _technology_key(base),
               tuple(sorted(overrides.items())))
        return self._get_or_build(key, lambda: base.scaled(**overrides))

    def perturbed(self, base: Technology, variation: VariationSpec,
                  stream_seed: int) -> Technology:
        """The Monte-Carlo sample drawn from the stream seeded *stream_seed*.

        The key is the (technology, variation, seed) triple, so evaluating
        several quantities on the same sample perturbs the technology once.
        """
        key = ("perturbed", _technology_key(base), variation.key(),
               stream_seed)

        def build() -> Technology:
            sampler = ProcessVariation(sigma_vth=variation.sigma_vth,
                                       sigma_drive=variation.sigma_drive,
                                       sigma_leak=variation.sigma_leak,
                                       corner=variation.corner,
                                       seed=stream_seed)
            return sampler.apply_to(base)

        return self._get_or_build(key, build)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: Every live TechnologyCache, so a fork (the pool's start method) can
#: re-arm the locks its children inherit.  A child forked while a
#: sibling thread held a cache's lock would otherwise deadlock on first
#: cache access — the lock's holder does not exist in the child.
_LIVE_CACHES: "weakref.WeakSet[TechnologyCache]" = weakref.WeakSet()


def _rearm_cache_locks_after_fork() -> None:  # pragma: no cover - in child
    for cache in list(_LIVE_CACHES):
        cache._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; fork is the pool's method
    os.register_at_fork(after_in_child=_rearm_cache_locks_after_fork)


# ---------------------------------------------------------------------------
# Provenance


@dataclass
class RunRecord:
    """Provenance of one executed plan, for regression comparison.

    One record is produced per :meth:`Executor.run` call and answers, after
    the fact, "what exactly ran and how": the plan geometry (``kind``,
    ``axes``, ``points``), the reproducibility inputs (``seed``), which
    execution path evaluated the points (``executor`` is ``"serial"``,
    ``"fork-pool[N]"``, ``"batched[N points]"``, ``"distrib[N shards]"``
    or ``"persistent-cache"``), the wall time, and the
    cache economics — ``cache_hits``/``cache_misses`` count deduplicated
    :class:`Technology` rebuilds in this run, while the ``persistent_*``
    fields count plan points served from / missing in the on-disk store
    (``persistent_mode`` is ``"off"`` when no store was attached).
    """

    kind: str
    axes: Dict[str, int]
    quantities: Tuple[str, ...]
    points: int
    seed: Optional[int]
    executor: str
    workers: int
    wall_time_s: float
    cache_hits: int
    cache_misses: int
    persistent_mode: str = "off"
    persistent_hits: int = 0
    persistent_misses: int = 0
    #: Per-shard provenance of a distributed run (one dict per shard:
    #: worker id, index range, wall time, cache economics); empty for
    #: single-process runs.
    shards: Tuple[Dict[str, object], ...] = ()

    @property
    def shard_workers(self) -> Tuple[str, ...]:
        """Distinct worker ids that contributed shards, in first-seen order."""
        seen: Dict[str, None] = {}
        for shard in self.shards:
            worker = str(shard.get("worker", "?"))
            seen.setdefault(worker, None)
        return tuple(seen)

    def as_dict(self) -> Dict[str, object]:
        """A plain-dict view, convenient for logging or JSON dumps."""
        return {
            "kind": self.kind,
            "axes": dict(self.axes),
            "quantities": list(self.quantities),
            "points": self.points,
            "seed": self.seed,
            "executor": self.executor,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "persistent_mode": self.persistent_mode,
            "persistent_hits": self.persistent_hits,
            "persistent_misses": self.persistent_misses,
            "shards": [dict(shard) for shard in self.shards],
        }


# ---------------------------------------------------------------------------
# Results


@dataclass
class ExperimentResult:
    """Per-point values of every quantity, plus the run's provenance.

    ``values[name]`` lists the quantity over the plan's points in row-major
    order, regardless of which executor produced them.
    """

    plan: ExperimentPlan
    values: Dict[str, List[float]]
    provenance: RunRecord

    @property
    def names(self) -> List[str]:
        """Names of the recorded quantities."""
        return list(self.values)

    def _values_for(self, name: str) -> List[float]:
        try:
            return self.values[name]
        except KeyError as exc:
            raise ConfigurationError(f"unknown quantity {name!r}") from exc

    # -- 1-D views ---------------------------------------------------------

    def series(self, name: str):
        """The quantity as a :class:`Series` (sweep and MC plans only)."""
        from repro.analysis.sweep import Series

        if len(self.plan.axes) != 1:
            raise ConfigurationError(
                "series() needs a one-axis plan; use series_at() for grids")
        xs = self.plan.axes[0].values
        return Series(name=name,
                      points=[(float(x), y)
                              for x, y in zip(xs, self._values_for(name))])

    def to_sweep_result(self):
        """All quantities bundled as a legacy :class:`SweepResult`."""
        from repro.analysis.sweep import SweepResult

        if self.plan.kind not in ("sweep", "montecarlo"):
            raise ConfigurationError(
                "to_sweep_result() needs a one-axis plan")
        axis = self.plan.axes[0]
        return SweepResult(variable=axis.name,
                           xs=[float(x) for x in axis.values],
                           series={name: self.series(name)
                                   for name in self.values})

    # -- 2-D views ---------------------------------------------------------

    def value_grid(self, name: str) -> List[List[float]]:
        """Grid plans: ``grid[i][j]`` is the value at ``(x_i, y_j)``."""
        if self.plan.kind != "grid":
            raise ConfigurationError("value_grid() needs a grid plan")
        n_x, n_y = self.plan.shape
        flat = self._values_for(name)
        return [flat[i * n_y:(i + 1) * n_y] for i in range(n_x)]

    def series_at(self, name: str, **fixed: float):
        """A 1-D cut through a grid, fixing exactly one axis by name.

        ``result.series_at("energy", temperature_k=350.0)`` returns energy
        versus the *other* axis at the fixed axis's sampled value nearest
        350 K.
        """
        from repro.analysis.sweep import Series

        if self.plan.kind != "grid":
            raise ConfigurationError("series_at() needs a grid plan")
        if len(fixed) != 1:
            raise ConfigurationError("fix exactly one axis by name")
        (fixed_name, fixed_value), = fixed.items()
        names = [axis.name for axis in self.plan.axes]
        if fixed_name not in names:
            raise ConfigurationError(
                f"unknown axis {fixed_name!r}; plan axes: {names}")
        fixed_index = names.index(fixed_name)
        free_index = 1 - fixed_index
        fixed_axis = self.plan.axes[fixed_index]
        free_axis = self.plan.axes[free_index]
        nearest = min(range(len(fixed_axis.values)),
                      key=lambda i: (abs(fixed_axis.values[i] - fixed_value),
                                     fixed_axis.values[i]))
        grid = self.value_grid(name)
        if fixed_index == 0:
            column = grid[nearest]
        else:
            column = [row[nearest] for row in grid]
        label = f"{name}@{fixed_name}={fixed_axis.values[nearest]:g}"
        return Series(name=label,
                      points=[(float(x), y)
                              for x, y in zip(free_axis.values, column)])

    # -- Monte-Carlo views -------------------------------------------------

    def summary(self, name: str):
        """The quantity's :class:`MonteCarloSummary` (MC plans only)."""
        from repro.analysis.montecarlo import MonteCarloSummary

        if self.plan.kind != "montecarlo":
            raise ConfigurationError("summary() needs a Monte-Carlo plan")
        return MonteCarloSummary(samples=list(self._values_for(name)))

    # -- generic -----------------------------------------------------------

    def argmin(self, name: str) -> Tuple[Tuple[float, ...], float]:
        """``(coords, value)`` of the smallest value (first hit on ties).

        A NaN value raises :class:`ConfigurationError` — ``min()`` over
        NaNs would silently return an arbitrary point.
        """
        flat = self._values_for(name)
        points = self.plan.points()
        for index, value in enumerate(flat):
            if math.isnan(value):
                raise ConfigurationError(
                    f"quantity {name!r} is NaN at point {points[index]!r}; "
                    "a quantity that produced NaN is a modelling bug")
        best = min(range(len(flat)), key=lambda i: flat[i])
        return tuple(float(c) for c in points[best]), flat[best]


# ---------------------------------------------------------------------------
# Batched quantities


class BatchedQuantity:
    """A quantity that can evaluate a whole batch of plan points at once.

    Wraps a *batch kernel* ``batch_fn(*axis_arrays) -> array``:

    * sweep plans call it with one float array (the axis values of the
      shard's points);
    * grid plans call it with two float arrays (the per-point ``x`` and
      ``y`` coordinates, row-major order);
    * Monte-Carlo plans call it with one
      :class:`~repro.models.batch.TechnologyBatch` holding the per-sample
      perturbed parameters, pre-drawn from the exact per-index
      :func:`sample_seed` streams the scalar path uses.

    The kernel must be elementwise — sample ``i`` of the output may depend
    only on sample ``i`` of the inputs — and return a 1-D float array of
    the batch length.

    Instances are also plain per-point callables: unless an explicit
    ``point_fn`` is given, ``fn(x)`` / ``fn(x, y)`` /
    ``fn(perturbed_technology)`` lifts the coordinates into a one-point
    batch and evaluates the same kernel, which makes batched and
    point-by-point execution bit-identical *by construction*.  Pass
    ``point_fn`` only when a hand-written scalar path is genuinely needed;
    equivalence with the kernel is then the author's responsibility.
    """

    def __init__(self, batch_fn: Callable,
                 point_fn: Optional[Callable] = None) -> None:
        if not callable(batch_fn):
            raise ConfigurationError("batch_fn must be callable")
        if point_fn is not None and not callable(point_fn):
            raise ConfigurationError("point_fn must be callable when given")
        self.batch_fn = batch_fn
        self.point_fn = point_fn
        self.__name__ = getattr(batch_fn, "__name__", "batched_quantity")

    @staticmethod
    def _lift(coord) -> object:
        if isinstance(coord, Technology):
            return TechnologyBatch.of(coord)
        return np.asarray([float(coord)], dtype=float)

    def __call__(self, *coords):
        if self.point_fn is not None:
            return self.point_fn(*coords)
        out = np.asarray(self.batch_fn(*(self._lift(c) for c in coords)),
                         dtype=float)
        if out.shape != (1,):
            raise ConfigurationError(
                f"batch kernel returned shape {out.shape} for a "
                "one-point batch; kernels must return one value per point")
        return float(out[0])

    def batch(self, *axis_arrays) -> np.ndarray:
        """Evaluate the kernel over whole axis arrays (the batched path)."""
        return np.asarray(self.batch_fn(*axis_arrays), dtype=float)

    def __cache_fingerprint__(self) -> str:
        # Content-address by the wrapped callables, not by this wrapper
        # instance: two BatchedQuantity objects around the same kernel must
        # share persistent-cache entries (and differ from the bare kernel).
        parts = ["batched", callable_fingerprint(self.batch_fn)]
        if self.point_fn is not None:
            parts.append(callable_fingerprint(self.point_fn))
        return "(" + "|".join(parts) + ")"


def batched(batch_fn: Optional[Callable] = None, *,
            point: Optional[Callable] = None):
    """Declare a batch-capable quantity; usable as decorator or factory.

    ``batched(kernel)`` (or ``@batched`` above the kernel) wraps an
    elementwise array kernel as a :class:`BatchedQuantity`; the optional
    ``point=`` argument supplies an explicit scalar path instead of the
    derived one-point-batch evaluation.
    """
    def wrap(fn: Callable) -> BatchedQuantity:
        return BatchedQuantity(fn, point_fn=point)

    if batch_fn is None:
        return wrap
    return wrap(batch_fn)


def _supports_batch(quantity: Callable) -> bool:
    """Whether *quantity* implements the batched protocol.

    The protocol is structural — any callable exposing a callable
    ``batch`` attribute qualifies, not just :class:`BatchedQuantity` —
    so quantity authors can bring their own wrapper types.
    """
    return callable(getattr(quantity, "batch", None))


# ---------------------------------------------------------------------------
# Execution


class _Payload:
    """Everything one point evaluation needs; inherited by forked workers."""

    def __init__(self, plan: ExperimentPlan,
                 functions: Sequence[Callable],
                 cache: TechnologyCache) -> None:
        self.plan = plan
        self.functions = list(functions)
        self.cache = cache
        self.points = plan.points()

    def evaluate(self, index: int) -> Tuple[float, ...]:
        if self.plan.kind == "montecarlo":
            assert self.plan.seed is not None
            assert self.plan.technology is not None
            assert self.plan.variation is not None
            perturbed = self.cache.perturbed(self.plan.technology,
                                             self.plan.variation,
                                             sample_seed(self.plan.seed,
                                                         index))
            return tuple(float(fn(perturbed)) for fn in self.functions)
        coords = self.points[index]
        return tuple(float(fn(*coords)) for fn in self.functions)


#: Payload of the in-flight parallel run; forked workers inherit it, so the
#: quantities may be closures/lambdas that could never cross a pickle
#: boundary.  Only the point *indices* travel through the pool's queues.
#: Guarded by ``_POOL_CLAIM``: one pool run at a time per process, so a
#: concurrent run from another thread can never fork workers that inherit
#: the wrong plan's payload (those runs take the serial path instead).
_ACTIVE_PAYLOAD: Optional[_Payload] = None
_POOL_CLAIM = threading.Lock()


def _pool_worker(index: int) -> Tuple[float, ...]:
    assert _ACTIVE_PAYLOAD is not None, "worker started without a payload"
    return _ACTIVE_PAYLOAD.evaluate(index)


class Executor:
    """Runs an :class:`ExperimentPlan` over a worker pool or serially.

    Parameters
    ----------
    workers:
        Number of pool processes.  ``0`` or ``1`` selects the serial path;
        the pool also falls back to serial when the platform cannot fork.
        Both paths enumerate points in the same order and reassemble by
        index, so results are bit-identical.
    cache:
        Shared :class:`TechnologyCache`; a private one is created if omitted.
    chunk_size:
        Points per pool task; defaults to ``points // (4 * workers)``.
    persistent:
        Optional :class:`repro.analysis.cache.ResultCache`.  When attached
        (and not in ``"off"`` mode), :meth:`run` first looks the plan up in
        the on-disk store and, on a hit, returns the persisted per-point
        values without evaluating anything; in ``"rw"`` mode computed runs
        are stored afterwards.  The technology cache's entries are
        persisted alongside so later processes skip the rebuilds too —
        like the cache's hit counters, this covers the coordinating
        process only: rebuilds that happened inside pool workers stay in
        the workers' copies and are not captured.
    distrib:
        Optional :class:`repro.analysis.distrib.DistribBackend`.  When
        attached, a plan whose payload can cross a pickle boundary is
        partitioned into content-addressed shards over the backend's
        shared root, executed by whichever fleet workers claim them (the
        coordinator participates by default, so progress never depends on
        external workers), and merged bit-identically to the serial path;
        the :class:`RunRecord` then reports the ``"distrib[N shards]"``
        executor plus per-shard provenance.  Plans whose quantities cannot
        be pickled (closures over local state) fall back to the local
        pool/serial paths.
    batch:
        Whether to use the vectorised path when *every* requested quantity
        supports the batched protocol (see :func:`batched`); ``False``
        forces point-by-point evaluation, which is bit-identical and only
        useful for comparison and tests.  Mixed quantity sets (some
        batched, some not) always evaluate point by point, so one result
        never mixes the two paths.
    """

    def __init__(self, workers: int = 0,
                 cache: Optional[TechnologyCache] = None,
                 chunk_size: Optional[int] = None,
                 persistent: Optional[ResultCache] = None,
                 distrib: Optional[object] = None,
                 batch: bool = True) -> None:
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        self.workers = workers
        self.cache = cache if cache is not None else TechnologyCache()
        self.chunk_size = chunk_size
        if persistent is not None and not persistent.enabled:
            persistent = None
        self.persistent = persistent
        self.distrib = distrib
        self.batch = batch
        if self.persistent is not None:
            self.cache.preload(self.persistent.load_technologies())

    def __cache_fingerprint__(self) -> str:
        # An executor captured in a quantity closure must not leak its
        # volatile state (cache counters, pool size) into content keys.
        return type(self).__name__

    # ------------------------------------------------------------------

    def run(self, plan: ExperimentPlan,
            quantities: Mapping[str, Callable]) -> ExperimentResult:
        """Evaluate every quantity at every plan point.

        ``quantities`` maps series names to callables taking the point
        coordinates (sweep: ``fn(x)``, grid: ``fn(x, y)``) or, for
        Monte-Carlo plans, the perturbed technology.  Exceptions are not
        swallowed: a quantity that cannot be evaluated is a modelling bug
        the experiment should surface, exactly as in the legacy loops.

        With a ``persistent`` cache attached, a plan whose content key is
        already stored returns the persisted values without calling any
        quantity (the :class:`RunRecord` then reports the
        ``"persistent-cache"`` executor and ``persistent_hits ==
        points``); quantities must therefore be pure functions of the plan
        point — see :mod:`repro.analysis.cache` for the keying contract.
        """
        if not quantities:
            raise ConfigurationError("at least one quantity is required")
        names = tuple(quantities)
        count = plan.point_count
        hits_before = self.cache.hits
        misses_before = self.cache.misses
        started = time.perf_counter()
        persistent_hits = persistent_misses = 0
        key = None
        cached_values = None
        if self.persistent is not None:
            key = self.persistent.result_key(plan, quantities)
            cached_values = self.persistent.load_result(key, names, count)
        shard_records: Tuple[Dict[str, object], ...] = ()
        if cached_values is not None:
            values = cached_values
            mode = "persistent-cache"
            persistent_hits = count
        else:
            if self.persistent is not None:
                persistent_misses = count
            values = None
            mode = "serial"
            if self.distrib is not None:
                distributed = self.distrib.execute(plan, quantities)
                if distributed is not None:
                    values, shard_records = distributed
                    mode = f"distrib[{len(shard_records)} shards]"
            if values is None:
                values, mode = self._local_values(plan, quantities, names)
            store_needed = (self.persistent is not None
                            and self.persistent.writable)
            if store_needed and shard_records:
                # The distrib coordinator already stored the merge under
                # this very key when its root is the persistent cache's
                # root, with the fleet's provenance meta a re-store would
                # clobber.  Skip only if that entry is well-formed — a
                # pre-existing *corrupt* payload must still be healed.
                store_needed = not self.persistent.result_valid(
                    key, names, count)
            if store_needed:
                self.persistent.store_result(key, values, meta={
                    "kind": plan.kind,
                    "axes": plan.describe_axes(),
                    "points": count,
                    "seed": plan.seed,
                    "quantities": list(names),
                })
                self.persistent.merge_technologies(self.cache.snapshot())
        provenance = RunRecord(
            kind=plan.kind,
            axes=plan.describe_axes(),
            quantities=names,
            points=count,
            seed=plan.seed,
            executor=mode,
            workers=self.workers,
            wall_time_s=time.perf_counter() - started,
            # Deltas, not the shared cache's lifetime counters: an executor
            # (and its cache) outlives many runs, and each RunRecord
            # describes exactly one of them.
            cache_hits=self.cache.hits - hits_before,
            cache_misses=self.cache.misses - misses_before,
            persistent_mode=(self.persistent.mode if self.persistent is not None
                             else "off"),
            persistent_hits=persistent_hits,
            persistent_misses=persistent_misses,
            shards=shard_records,
        )
        return ExperimentResult(plan=plan, values=values,
                                provenance=provenance)

    def run_shard(self, plan: ExperimentPlan,
                  quantities: Mapping[str, Callable],
                  start: int, stop: int) -> Dict[str, List[float]]:
        """Evaluate every quantity at plan points ``start <= index < stop``.

        The shard primitive of :mod:`repro.analysis.distrib`: indices are
        *global* plan indices, so a Monte-Carlo sample keeps its own seed
        stream no matter which shard (or machine) evaluates it, and
        concatenating the slices of :meth:`ExperimentPlan.shard_ranges` in
        order is bit-identical to a :meth:`run` over the whole plan.
        """
        if not quantities:
            raise ConfigurationError("at least one quantity is required")
        if not 0 <= start <= stop <= plan.point_count:
            raise ConfigurationError(
                f"shard [{start}, {stop}) outside plan of "
                f"{plan.point_count} points")
        names = tuple(quantities)
        values, _ = self._local_values(plan, quantities, names,
                                       indices=range(start, stop))
        return values

    def _local_values(self, plan: ExperimentPlan,
                      quantities: Mapping[str, Callable],
                      names: Tuple[str, ...],
                      indices: Optional[range] = None,
                      ) -> Tuple[Dict[str, List[float]], str]:
        """Evaluate *indices* (default: all points) in this process tree."""
        if indices is None:
            indices = range(plan.point_count)
        functions = [quantities[name] for name in names]
        if self.batch and all(_supports_batch(fn) for fn in functions):
            return (self._batched_values(plan, names, functions, indices),
                    f"batched[{len(indices)} points]")
        payload = _Payload(plan, functions, self.cache)
        values: Dict[str, List[float]] = {name: [] for name in names}
        mode = "serial"
        rows: Iterable[Tuple[float, ...]]
        if (self.workers >= 2
                and "fork" in multiprocessing.get_all_start_methods()
                and _POOL_CLAIM.acquire(blocking=False)):
            # The claim is released by _parallel_rows once the pool is
            # done.
            rows = self._parallel_rows(payload, indices)
            mode = f"fork-pool[{self.workers}]"
        else:
            rows = (payload.evaluate(i) for i in indices)
        for row in rows:
            for name, value in zip(names, row):
                values[name].append(value)
        return values, mode

    def _batched_values(self, plan: ExperimentPlan, names: Tuple[str, ...],
                        functions: Sequence[Callable],
                        indices: range) -> Dict[str, List[float]]:
        """One vectorised pass over *indices* for batch-capable quantities."""
        idx = list(indices)
        if not idx:
            return {name: [] for name in names}
        if plan.kind == "montecarlo":
            args: Tuple = (self._predrawn_batch(plan, idx),)
        elif plan.kind == "grid":
            points = plan.points()
            args = (np.asarray([points[i][0] for i in idx], dtype=float),
                    np.asarray([points[i][1] for i in idx], dtype=float))
        else:
            axis = plan.axes[0].values
            args = (np.asarray([axis[i] for i in idx], dtype=float),)
        values: Dict[str, List[float]] = {}
        for name, fn in zip(names, functions):
            out = np.asarray(fn.batch(*args), dtype=float)
            if out.shape != (len(idx),):
                raise ConfigurationError(
                    f"batch kernel for quantity {name!r} returned shape "
                    f"{out.shape}, expected ({len(idx)},)")
            values[name] = [float(v) for v in out]
        return values

    def _predrawn_batch(self, plan: ExperimentPlan,
                        idx: Sequence[int]) -> TechnologyBatch:
        """Per-sample variation draws for *idx*, as a technology batch.

        Replicates :meth:`repro.models.variation.ProcessVariation.sample`
        draw for draw — one ``default_rng(sample_seed(seed, i))`` stream
        per global index ``i``, same draw order, same clamping — so sample
        assignment is identical to the scalar path no matter how the plan
        is sharded.
        """
        assert plan.seed is not None
        assert plan.technology is not None
        assert plan.variation is not None
        spec = plan.variation
        mismatch = spec.corner.mismatch_factor
        offsets = np.empty(len(idx))
        deratings = np.empty(len(idx))
        factors = np.empty(len(idx))
        for j, i in enumerate(idx):
            rng = np.random.default_rng(sample_seed(plan.seed, i))
            offsets[j] = float(rng.normal(spec.corner.vth_shift,
                                          spec.sigma_vth * mismatch))
            deratings[j] = max(0.2, float(rng.normal(spec.corner.drive_factor,
                                                     spec.sigma_drive
                                                     * mismatch)))
            factors[j] = float(rng.lognormal(mean=0.0, sigma=spec.sigma_leak))
        return TechnologyBatch.from_samples(plan.technology, offsets,
                                            deratings, factors)

    def _parallel_rows(self, payload: _Payload,
                       indices: range) -> Iterable[Tuple[float, ...]]:
        """Pool evaluation; the caller must hold ``_POOL_CLAIM``."""
        global _ACTIVE_PAYLOAD
        context = multiprocessing.get_context("fork")
        chunk = self.chunk_size or max(1, len(indices) // (4 * self.workers))
        try:
            _ACTIVE_PAYLOAD = payload
            # Fork the workers with the shared technology cache quiesced:
            # a concurrent Session run mutating it at the fork instant
            # would hand the children a held lock / torn entry dict.
            with payload.cache.fork_guard():
                pool = context.Pool(processes=self.workers)
            with pool:
                # imap preserves submission order, so the reassembled rows
                # match the serial enumeration exactly.
                for row in pool.imap(_pool_worker, indices,
                                     chunksize=chunk):
                    yield row
        finally:
            _ACTIVE_PAYLOAD = None
            _POOL_CLAIM.release()


# ---------------------------------------------------------------------------
# Demo quantities: importable by reference, so pickled jobs and served plans
# that name them (repro.analysis.serve:demo_plan, the distrib demo job)
# resolve in any worker process.


def _selftest_delay(vdd: float) -> float:
    from repro.models.gate import GateModel
    from repro.models.technology import get_technology

    return GateModel(technology=get_technology("cmos90")).delay(vdd)


def _selftest_energy(vdd: float) -> float:
    from repro.models.gate import GateModel
    from repro.models.technology import get_technology

    return GateModel(technology=get_technology("cmos90")).transition_energy(vdd)


def _selftest_batch_mc_delay(batch: TechnologyBatch) -> np.ndarray:
    from repro.models.batch import gate_delay

    return gate_delay(batch, 0.4)
