"""Persistent, content-keyed experiment cache (``.repro_cache/``).

The in-memory :class:`~repro.analysis.runner.TechnologyCache` deduplicates
work *within* one process; this module persists finished work *between*
processes and runs.  Two stores live under one cache root (by default
``.repro_cache/`` in the working directory, overridable through the
``REPRO_CACHE_DIR`` environment variable):

* **results** — the complete per-point value lists of an executed
  :class:`~repro.analysis.runner.ExperimentPlan`, keyed by a content hash
  of the plan (kind, axes, seed, variation, technology), the quantity
  names and a best-effort fingerprint of each quantity callable;
* **technologies** — the entries of the executor's keyed
  :class:`~repro.analysis.runner.TechnologyCache`, so corner shifts,
  temperature overrides and Monte-Carlo perturbations built in a previous
  run are not rebuilt in the next one.

Every key is namespaced by a **code-version salt**: a hash over the source
of the whole ``repro`` package.  Any edit to any module under ``repro``
changes the salt, which atomically invalidates every cached result — the
cache can return stale values only if the code that produced them is
byte-identical to the code asking for them.

The fingerprinting of quantity callables is *best effort*: it hashes the
function's compiled code, its closure contents and (for bound methods)
the instance state through :func:`stable_repr`.  The documented contract
is therefore the same one the runner already imposes: quantities must be
pure functions of the plan point and of code/state reachable from the
callable.  Objects that are pure execution machinery can opt out of
fingerprint recursion by defining ``__cache_fingerprint__()``.

Because every entry is content-keyed, the store doubles as the
coordination substrate for sharded multi-machine execution
(:mod:`repro.analysis.distrib`): workers claim disjoint shards through
the **lease** primitives (:meth:`ResultCache.claim_lease` /
:meth:`~ResultCache.heartbeat_lease` / :meth:`~ResultCache.release_lease`),
publish shard results with :meth:`~ResultCache.store_result` under shard
keys, and coordinators merge by key.  A lease records its owner, its TTL
and a heartbeat timestamp; a lease whose heartbeat is older than its TTL
is *expired* and may be atomically stolen, so a killed worker's shard is
reclaimed by a survivor.

All I/O goes through a pluggable **storage backend** (:class:`CacheStore`):
:class:`LocalFSStore` keeps today's ``.repro_cache/`` directory layout
byte for byte, and :class:`repro.analysis.objstore.ObjectStore` speaks a
minimal S3-style HTTP API (bucket/key, ETag-conditional puts, pagination)
so a distrib fleet can span machines **without a shared filesystem**.
The backend is chosen by the *root* spec: a directory path selects the
filesystem store, an ``http(s)://host:port/bucket`` URL the object store
(``$REPRO_CACHE_DIR`` accepts either).

Inspect or reset the store from the command line::

    python -m repro cache --stats           # human-readable
    python -m repro cache --stats --json    # machine-readable
    python -m repro cache --clear           # everything
    python -m repro cache --clear --stale   # old code versions only

Selection of the cache at run time is a one-argument affair: pass
``Executor(persistent=ResultCache(mode="rw"))``, or for the benchmark
suite ``pytest benchmarks --runner-cache rw`` (add
``--runner-cache-backend obj:URL`` to aim it at an object store).
"""

from __future__ import annotations

import contextvars
import dataclasses
import enum
import functools
import hashlib
import json
import os
import pickle
import re
import time
import types
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_MODES",
    "DEFAULT_LEASE_TTL",
    "CacheStore",
    "LocalFSStore",
    "ObjectInfo",
    "ResultCache",
    "StoredObject",
    "callable_fingerprint",
    "code_version_salt",
    "default_cache_root",
    "object_etag",
    "open_store",
    "result_key",
    "stable_repr",
]

#: Environment variable that overrides the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Directory created in the working directory when the variable is unset.
DEFAULT_DIRNAME = ".repro_cache"
#: Accepted cache modes: ``off`` (inert), ``rw`` (read and write),
#: ``ro`` (read only — never creates or modifies any file).
CACHE_MODES = ("off", "rw", "ro")
#: Seconds a lease may go without a heartbeat before it is expired and
#: stealable by another worker.
DEFAULT_LEASE_TTL = 30.0

_RECURSION_DEPTH = 4
#: Code objects whose hash and global-name list are remembered across calls.
_CODE_MEMO_SIZE = 1024

#: The callable-fingerprint memo of the :func:`result_key` call in progress
#: in this thread (``None`` outside one): ``(id(fn), depth, seen ids)`` ->
#: ``(fn, fingerprint)``.  It lives for one call only, because module
#: globals, defaults, closure cells and registries may all change between
#: calls; holding *fn* keeps its id from being reused during the call.
_WALK_MEMO: contextvars.ContextVar = contextvars.ContextVar(
    "repro_fingerprint_memo", default=None)


def default_cache_root():
    """The cache root spec: ``$REPRO_CACHE_DIR`` or ``./.repro_cache``.

    A directory :class:`~pathlib.Path` normally; the environment variable
    may instead name an object-store bucket URL
    (``http://host:port/bucket``), which is returned as a string for
    :func:`open_store` to resolve.
    """
    value = os.environ.get(CACHE_DIR_ENV)
    if value and value.startswith(("http://", "https://")):
        return value
    return Path(value or DEFAULT_DIRNAME)


@functools.lru_cache(maxsize=None)
def _salt_of_package_dir(package_dir: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(package_dir).rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode())
        digest.update(b"\0")
        # repro: allow[R2] -- code-version salt hashes source files, not store bytes
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def code_version_salt() -> str:
    """A hash over the source of every module in the ``repro`` package.

    Used to namespace all persisted entries: editing any library source file
    yields a different salt, so results computed by older code are never
    served to newer code (they linger on disk until ``--clear --stale``).
    """
    import repro

    return _salt_of_package_dir(str(Path(repro.__file__).resolve().parent))


# ---------------------------------------------------------------------------
# Content fingerprinting


def stable_repr(value, depth: int = _RECURSION_DEPTH,
                _seen: Optional[set] = None) -> str:
    """A process-independent textual identity for *value*.

    Unlike ``repr()``, the result never embeds object addresses: scalars
    render exactly (``repr`` of a float round-trips), containers, enums and
    dataclasses recurse field by field, callables delegate to
    :func:`callable_fingerprint`, sets, numpy values and the other value
    types of :func:`_value_repr` render by content, and any other object
    renders as its type name plus (depth permitting) its sorted
    ``__dict__``.  Objects that
    define ``__cache_fingerprint__()`` render as whatever that returns —
    the opt-out used by execution machinery such as the executor itself,
    whose counters must not leak into content keys.
    """
    if _seen is None:
        _seen = set()
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    marker = id(value)
    if marker in _seen:
        return f"<cycle:{type(value).__name__}>"
    _seen.add(marker)
    try:
        custom = getattr(value, "__cache_fingerprint__", None)
        if custom is not None:
            return str(custom())
        if isinstance(value, types.ModuleType):
            return f"<module:{value.__name__}>"
        if isinstance(value, enum.Enum):
            return f"{type(value).__name__}.{value.name}"
        if isinstance(value, (tuple, list)):
            inner = ",".join(stable_repr(v, depth, _seen) for v in value)
            return f"[{inner}]"
        if isinstance(value, (dict,)):
            items = sorted((stable_repr(k, depth, _seen),
                            stable_repr(v, depth, _seen))
                           for k, v in value.items())
            return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            fields = ",".join(
                f"{f.name}={stable_repr(getattr(value, f.name), depth, _seen)}"
                for f in dataclasses.fields(value))
            return f"{type(value).__name__}({fields})"
        if callable(value):
            return callable_fingerprint(value, depth, _seen)
        attrs = getattr(value, "__dict__", None)
        if attrs and depth > 0:
            inner = ",".join(
                f"{name}={stable_repr(attr, depth - 1, _seen)}"
                for name, attr in sorted(attrs.items()))
            return f"{type(value).__name__}<{inner}>"
        return _value_repr(value, depth, _seen)
    finally:
        _seen.discard(marker)


def _value_repr(value, depth: int, _seen: set) -> str:
    """Content renderings of value types without a ``__dict__``.

    Sets render their sorted element renderings, numpy scalars their dtype
    and value, arrays their dtype, shape and a digest of their C-order
    bytes (``repr`` truncates), and complex numbers, ranges, decimals and
    fractions their exact ``repr``.  Anything else renders as its bare
    type name.
    """
    import decimal
    import fractions

    import numpy as np

    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(stable_repr(v, depth, _seen) for v in value))
        return f"{type(value).__name__}{{{inner}}}"
    if isinstance(value, np.generic):
        return f"{value.dtype}({value.item()!r})"
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:  # the bytes would be object addresses
            body = stable_repr(value.tolist(), depth, _seen)
        else:
            body = hashlib.sha256(value.tobytes(order="C")).hexdigest()[:16]
        return f"ndarray({value.dtype},{value.shape},{body})"
    if isinstance(value, (complex, range, decimal.Decimal,
                          fractions.Fraction)):
        return repr(value)
    return f"<{type(value).__name__}>"


# Code objects are immutable and equal ones hash equal, so these two may
# remember their answers across calls; nothing a code object refers to
# at run time (globals, defaults, cells) is remembered.
@functools.lru_cache(maxsize=_CODE_MEMO_SIZE)
def _referenced_global_names(code) -> Tuple[str, ...]:
    """All global names a code object (or its nested lambdas) may read."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            names.update(_referenced_global_names(const))
    return tuple(sorted(names))


@functools.lru_cache(maxsize=_CODE_MEMO_SIZE)
def _code_hash(code) -> str:
    digest = hashlib.sha256(code.co_code)
    for const in code.co_consts:
        if hasattr(const, "co_code"):  # nested lambda/def
            digest.update(_code_hash(const).encode())
        else:
            digest.update(repr(const).encode())
    digest.update(repr(code.co_names).encode())
    digest.update(repr(code.co_varnames).encode())
    return digest.hexdigest()[:16]


def callable_fingerprint(fn: Callable, depth: int = _RECURSION_DEPTH,
                         _seen: Optional[set] = None) -> str:
    """A content identity for a quantity callable.

    Plain functions and lambdas hash their compiled code plus their
    default arguments, the contents of their closure cells *and* every
    module-level global they reference (benchmark constants like sweep
    periods live outside the ``repro`` package, so the code-version salt
    alone would not see them change); bound methods add the instance
    state; partials add the frozen arguments.  Two callables with the same
    name but different bodies, defaults (the ``lambda x, metric=metric:``
    binding idiom), closures, referenced constants or instance parameters
    therefore key different cache entries.

    Within one :func:`result_key` call, a callable already walked at the
    same *depth* and with the same objects in progress returns its earlier
    fingerprint, so the quantities of one plan that share a function (the
    campaign registry's partials) walk its code graph once.
    """
    if _seen is None:
        _seen = set()
    memo = _WALK_MEMO.get()
    if memo is None:
        return _walk_callable(fn, depth, _seen)
    key = (id(fn), depth, frozenset(_seen))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (fn, _walk_callable(fn, depth, _seen))
    return entry[1]


def _walk_callable(fn: Callable, depth: int, _seen: set) -> str:
    custom = getattr(fn, "__cache_fingerprint__", None)
    if custom is not None:
        # Wrapper types (e.g. the runner's BatchedQuantity) define their
        # identity in terms of what they wrap; without this, every
        # instance of such a class would fingerprint identically by
        # class name and alias unrelated quantities to one key.
        return str(custom())
    if isinstance(fn, functools.partial):
        return ("partial(" + callable_fingerprint(fn.func, depth, _seen)
                + "," + stable_repr(fn.args, depth, _seen)
                + "," + stable_repr(fn.keywords, depth, _seen) + ")")
    parts: List[str] = [getattr(fn, "__module__", "?") or "?",
                        getattr(fn, "__qualname__", type(fn).__name__)]
    bound_self = getattr(fn, "__self__", None)
    if bound_self is not None:
        parts.append(stable_repr(bound_self, depth - 1, _seen))
        fn = fn.__func__
    code = getattr(fn, "__code__", None)
    if code is not None:
        parts.append(_code_hash(code))
        defaults = getattr(fn, "__defaults__", None)
        if defaults:
            parts.append("defaults=" + stable_repr(defaults, depth - 1,
                                                   _seen))
        kwdefaults = getattr(fn, "__kwdefaults__", None)
        if kwdefaults:
            parts.append("kwdefaults=" + stable_repr(kwdefaults, depth - 1,
                                                     _seen))
        module_globals = getattr(fn, "__globals__", None)
        if module_globals is not None:
            for name in _referenced_global_names(code):
                # Builtins and attribute names fail this membership test;
                # what remains are the module-level constants, helpers and
                # classes the function actually reads.
                if name in module_globals:
                    parts.append(name + "=" + stable_repr(
                        module_globals[name], depth - 1, _seen))
    closure = getattr(fn, "__closure__", None)
    if closure:
        for cell in closure:
            try:
                contents = cell.cell_contents
            except ValueError:  # empty cell
                parts.append("<empty-cell>")
            else:
                parts.append(stable_repr(contents, depth - 1, _seen))
    return "fn(" + "|".join(parts) + ")"


def result_key(plan, quantities: Mapping[str, Callable],
               salt: Optional[str] = None) -> str:
    """The content key of one ``(plan, quantities)`` execution.

    The key covers the plan's full declaration (kind, axes and their exact
    point values, seed, variation spec, base technology), the quantity
    names in evaluation order, the fingerprint of each quantity callable
    and the code-version salt.  Identical keys therefore mean "the same
    code would evaluate the same functions at the same points".
    """
    digest = hashlib.sha256()
    digest.update((salt or code_version_salt()).encode())
    token = _WALK_MEMO.set({})
    try:
        digest.update(stable_repr(plan).encode())
        for name, fn in quantities.items():
            digest.update(name.encode())
            digest.update(b"\0")
            digest.update(callable_fingerprint(fn).encode())
            digest.update(b"\0")
    finally:
        _WALK_MEMO.reset(token)
    return digest.hexdigest()[:32]


# ---------------------------------------------------------------------------
# Storage backends
#
# Every persisted entry — results, leases, technology pickles, distrib job
# manifests/payloads, worker presence — is one *object* under a
# slash-separated string key ("results/<salt>/<key>.json").  The
# :class:`CacheStore` interface is the complete I/O surface of the cache
# and of the distributed runner built on it; anything satisfying it (a
# local directory, an S3-style bucket, a fault-injecting test wrapper)
# can back a :class:`ResultCache`.


def object_etag(data: bytes) -> str:
    """The ETag identifying the exact byte content *data*.

    Hex MD5, matching what S3 computes for single-part puts, so a
    filesystem store and a real object store agree on conditional-write
    semantics.
    """
    return hashlib.md5(data).hexdigest()


@dataclasses.dataclass(frozen=True)
class StoredObject:
    """One fetched object: its payload plus the ETag of those bytes."""

    data: bytes
    etag: str


@dataclasses.dataclass(frozen=True)
class ObjectInfo:
    """Listing/stat metadata of one stored object.

    ``etag`` may be ``None`` when the backend cannot report it without a
    full read (the filesystem store's listings); conditional writes always
    go through :meth:`CacheStore.get`, which does return one.
    """

    key: str
    size: int
    etag: Optional[str] = None


class CacheStore:
    """Abstract storage backend: atomic, conditionally-writable objects.

    The contract every implementation must honour (it is exactly what the
    lease protocol's correctness rests on):

    * :meth:`put_atomic` is all-or-nothing — no reader ever observes a
      half-written object;
    * :meth:`put_if_absent` creates an object *with its payload in one
      atomic step* iff no object exists under the key — exactly one of
      any number of concurrent creators wins;
    * :meth:`put_if_match` (the conditional-write primitive) replaces an
      object only if it still carries *etag* — at most one of any number
      of concurrent replacers against the same ETag wins, which is what
      makes stealing an expired lease race-free;
    * :meth:`list` returns every object whose key starts with *prefix*
      (paginating internally as needed), never in-flight staging files;
    * keys are opaque ``/``-separated strings; implementations must not
      interpret them beyond hierarchy.

    Methods returning ETags return ``None`` on a failed precondition, so
    callers can chain a successful write into a later conditional write.
    """

    def get(self, key: str) -> Optional[StoredObject]:
        """The object under *key* with its ETag, or ``None``."""
        raise NotImplementedError

    def put_atomic(self, key: str, data: bytes) -> str:
        """Store *data* under *key* unconditionally; returns the new ETag."""
        raise NotImplementedError

    def put_if_absent(self, key: str, data: bytes) -> Optional[str]:
        """Create *key* iff absent; the new ETag, or ``None`` if it exists."""
        raise NotImplementedError

    def put_if_match(self, key: str, data: bytes,
                     etag: str) -> Optional[str]:
        """Replace *key* iff it still carries *etag*; ``None`` otherwise."""
        raise NotImplementedError

    def list(self, prefix: str = "") -> List[ObjectInfo]:
        """Every stored object whose key starts with *prefix*, sorted."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove *key*; whether an object was actually removed."""
        raise NotImplementedError

    def stat(self, key: str) -> Optional[ObjectInfo]:
        """Existence/size probe for *key* without fetching the payload."""
        raise NotImplementedError

    def describe(self) -> str:
        """A human-readable root spec (directory path or bucket URL)."""
        raise NotImplementedError

    def prune(self) -> None:
        """Reclaim backend housekeeping debris (empty directories).

        A maintenance hook — called from :meth:`ResultCache.clear`, never
        from hot paths: pruning a just-emptied directory races a
        concurrent writer re-creating it, which is acceptable in an
        explicit maintenance action but not on every lease release.
        Backends with flat namespaces need nothing; the default is a
        no-op.
        """


#: In-flight staging files the filesystem store writes next to its
#: targets; they must never surface in listings.
_STAGING_RE = re.compile(r"\.(tmp|claim)[0-9a-f]+$")


class LocalFSStore(CacheStore):
    """The filesystem backend: one file per object under a root directory.

    Byte-for-byte compatible with every pre-backend ``.repro_cache/``
    root — the key *is* the relative path, payload formats are untouched,
    so existing caches stay readable and new entries stay readable to old
    code.  Atomicity comes from POSIX rename/link semantics:
    ``put_atomic`` renames a fully-written temporary over the target,
    ``put_if_absent`` hard-links one onto the target (exclusive creation
    *with* the payload already in place).  ``put_if_match`` has no true
    filesystem compare-and-swap; it verifies the precondition, replaces
    atomically, then re-reads to confirm its bytes won any concurrent
    race — the residual window is the one the lease protocol documents as
    benign (duplicated work, never a torn or wrong result).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def describe(self) -> str:
        return str(self.root)

    def _path(self, key: str) -> Path:
        if not key or key.startswith(("/", "../")) or "/../" in key:
            raise ConfigurationError(f"invalid object key {key!r}")
        return self.root / key

    @staticmethod
    def _atomic_write(target: Path, data: bytes) -> None:
        target.parent.mkdir(parents=True, exist_ok=True)
        # Unique per call, like put_if_absent's staging: a pid alone
        # collides between threads of one process writing the same key.
        tmp = target.with_name(target.name + f".tmp{uuid.uuid4().hex[:16]}")
        tmp.write_bytes(data)
        os.replace(tmp, target)

    def get(self, key: str) -> Optional[StoredObject]:
        try:
            data = self._path(key).read_bytes()
        except OSError:
            return None
        return StoredObject(data=data, etag=object_etag(data))

    def put_atomic(self, key: str, data: bytes) -> str:
        self._atomic_write(self._path(key), data)
        return object_etag(data)

    def put_if_absent(self, key: str, data: bytes) -> Optional[str]:
        target = self._path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        # Exclusive-create must carry the payload in the same atomic step:
        # an O_EXCL create followed by a separate write would expose a
        # momentarily empty object, which a concurrent lease claimer would
        # read as corrupt (hence expired) and steal.  The staging name
        # must be unique across the whole fleet — a pid alone collides
        # between machines sharing the root.
        staging = target.with_name(target.name
                                   + f".claim{uuid.uuid4().hex[:16]}")
        staging.write_bytes(data)
        try:
            try:
                os.link(staging, target)
            except FileExistsError:
                return None
            return object_etag(data)
        finally:
            try:
                staging.unlink()
            except OSError:
                pass

    def put_if_match(self, key: str, data: bytes,
                     etag: str) -> Optional[str]:
        current = self.get(key)
        if current is None or current.etag != etag:
            return None
        self._atomic_write(self._path(key), data)
        confirmed = self.get(key)
        if confirmed is None or confirmed.data != data:
            return None  # a concurrent replacer won the rename race
        return confirmed.etag

    def list(self, prefix: str = "") -> List[ObjectInfo]:
        # Key prefixes in practice are directory-style ("results/",
        # "leases/<salt>/"); start the walk at the deepest directory the
        # prefix pins down rather than scanning the whole root.
        base = self.root
        head, _, _ = prefix.rpartition("/")
        if head:
            base = self.root / head
        if not base.is_dir():
            return []
        found: List[ObjectInfo] = []
        for path in sorted(base.rglob("*")):
            if not path.is_file():
                continue
            key = path.relative_to(self.root).as_posix()
            if not key.startswith(prefix) or _STAGING_RE.search(key):
                continue
            found.append(ObjectInfo(key=key, size=path.stat().st_size))
        return found

    def delete(self, key: str) -> bool:
        # No directory pruning here: delete sits on hot paths (every
        # lease release), and pruning a just-emptied directory would race
        # a concurrent claimer between its mkdir and its staging write —
        # crashing the claimer with FileNotFoundError.  Empty directories
        # are reclaimed by :meth:`prune` during explicit maintenance.
        try:
            self._path(key).unlink()
        except OSError:
            return False
        return True

    def prune(self) -> None:
        """Remove emptied directories bottom-up (maintenance only).

        A concurrent writer may repopulate a directory between the
        emptiness check and the rmdir; the failed rmdir is silently
        skipped, exactly like a failed unlink in :meth:`delete`.
        """
        if not self.root.is_dir():
            return
        for directory in sorted((d for d in self.root.rglob("*")
                                 if d.is_dir()), reverse=True):
            try:
                if not any(directory.iterdir()):
                    directory.rmdir()
            except OSError:
                pass

    def stat(self, key: str) -> Optional[ObjectInfo]:
        try:
            size = self._path(key).stat().st_size
        except OSError:
            return None
        return ObjectInfo(key=key, size=size)


def open_store(spec=None) -> CacheStore:
    """Resolve a root *spec* into a :class:`CacheStore`.

    ``None`` selects :func:`default_cache_root`; an existing
    :class:`CacheStore` passes through; an ``http(s)://host:port/bucket``
    URL opens an :class:`repro.analysis.objstore.ObjectStore`; anything
    else is a directory for :class:`LocalFSStore`.
    """
    if spec is None:
        spec = default_cache_root()
    if isinstance(spec, CacheStore):
        return spec
    if isinstance(spec, str) and spec.startswith(("http://", "https://")):
        from repro.analysis.objstore import ObjectStore

        return ObjectStore(spec)
    return LocalFSStore(spec)


# ---------------------------------------------------------------------------
# The store


class ResultCache:
    """Persistent store of executed-plan results and Technology rebuilds.

    Parameters
    ----------
    root:
        Backend spec — a cache directory, or an object-store bucket URL
        (``http://host:port/bucket``); defaults to
        :func:`default_cache_root`.  Resolved through :func:`open_store`.
    mode:
        ``"rw"`` reads and writes, ``"ro"`` only reads (guaranteed never to
        create or modify an object), ``"off"`` is inert — an ``off`` cache
        can be passed anywhere a cache is accepted and behaves like
        ``None``.
    salt:
        Code-version namespace; defaults to :func:`code_version_salt`.
        Tests inject fixed salts to exercise invalidation.
    store:
        An explicit :class:`CacheStore` to use instead of resolving
        *root* — how the distributed runner shares one backend handle
        across salts, and how tests inject fault-wrapped stores.

    Object layout (identical relative keys on every backend; for the
    filesystem store the key is literally the path under *root*)::

        results/<salt>/<key>.json   one executed plan (or shard) each
        technology/<salt>.pkl       pickled TechnologyCache entries
        leases/<salt>/<key>.json    one live shard claim each

    Result payloads are JSON with floats serialised via ``repr`` round-trip,
    so a cache hit reproduces the computed values bit for bit.
    """

    def __init__(self, root=None, mode: str = "rw",
                 salt: Optional[str] = None,
                 store: Optional[CacheStore] = None) -> None:
        if mode not in CACHE_MODES:
            raise ConfigurationError(
                f"unknown cache mode {mode!r}; choose from {CACHE_MODES}")
        self.store = store if store is not None else open_store(root)
        self.root = root if root is not None else self.store.describe()
        self.mode = mode
        self.salt = salt if salt is not None else code_version_salt()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        # Lease-expiry observations: key -> (last heartbeat value seen,
        # monotonic clock when that value was first seen, whether this
        # reader has ever witnessed the heartbeat advance).  See
        # _lease_state for the skew-tolerant expiry rules built on it.
        self._lease_seen: Dict[str, Tuple[float, float, bool]] = {}

    def __cache_fingerprint__(self) -> str:
        return type(self).__name__

    # -- mode predicates ---------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether the cache participates at all (``rw`` or ``ro``)."""
        return self.mode != "off"

    @property
    def writable(self) -> bool:
        """Whether stores are permitted (``rw`` only)."""
        return self.mode == "rw"

    # -- object keys -------------------------------------------------------

    def _get(self, key: str) -> Optional[StoredObject]:
        """``store.get`` degraded to a miss on transient backend faults.

        Read paths keep the filesystem backend's historical contract —
        an unreadable entry is a miss, recomputed and healed — on every
        backend: one HTTP blip must degrade a cache lookup, never abort
        the run.  Writes stay loud (the worker daemon's retry loop
        handles them).
        """
        try:
            return self.store.get(key)
        except OSError:
            return None

    def _stat(self, key: str) -> Optional[ObjectInfo]:
        """``store.stat`` with the same degrade-to-miss contract."""
        try:
            return self.store.stat(key)
        except OSError:
            return None

    def _result_obj(self, key: str) -> str:
        return f"results/{self.salt}/{key}.json"

    def _technology_obj(self, salt: Optional[str] = None) -> str:
        return f"technology/{salt or self.salt}.pkl"

    def _lease_obj(self, key: str) -> str:
        return f"leases/{self.salt}/{key}.json"

    # -- result payloads ---------------------------------------------------

    def result_key(self, plan, quantities: Mapping[str, Callable]) -> str:
        """Content key of ``(plan, quantities)`` under this cache's salt."""
        return result_key(plan, quantities, salt=self.salt)

    def _read_values(self, key: str, names: Sequence[str],
                     points: int) -> Optional[Dict[str, List[float]]]:
        """Parse *key*'s payload; ``None`` unless it carries exactly
        *names*, each with *points* values.  No counter updates."""
        obj = self._get(self._result_obj(key))
        if obj is None:
            return None
        try:
            payload = json.loads(obj.data)
            values = payload["values"]
        except (ValueError, KeyError, TypeError):
            return None
        if (sorted(values) != sorted(names)
                or any(len(values[name]) != points for name in names)):
            return None
        return {name: [float(v) for v in values[name]] for name in names}

    def load_result(self, key: str,
                    names: Sequence[str],
                    points: int) -> Optional[Dict[str, List[float]]]:
        """The stored per-point values for *key*, or ``None`` on a miss.

        A payload that does not carry exactly *names*, each with *points*
        values, is treated as a miss rather than served partially.
        """
        if not self.enabled:
            return None
        values = self._read_values(key, names, points)
        if values is None:
            self.misses += 1
            return None
        self.hits += 1
        return values

    def result_valid(self, key: str, names: Sequence[str],
                     points: int) -> bool:
        """Whether a well-formed payload for *key* exists.

        An integrity probe, not a cache access: unlike
        :meth:`load_result` it never touches the session hit/miss
        counters, so heal checks (store only over a missing-or-corrupt
        entry) do not skew the stats that ``--stats --json`` exposes to
        fleet monitoring.
        """
        return self.enabled and self._read_values(key, names,
                                                  points) is not None

    def load_meta(self, key: str) -> Optional[Dict[str, object]]:
        """The ``meta`` mapping stored with *key*, or ``None`` on a miss.

        Shard results carry their provenance (worker id, wall time, cache
        hits) here; the coordinator folds it into the merged
        :class:`~repro.analysis.runner.RunRecord`.
        """
        if not self.enabled:
            return None
        obj = self._get(self._result_obj(key))
        if obj is None:
            return None
        try:
            meta = json.loads(obj.data)["meta"]
        except (ValueError, KeyError, TypeError):
            return None
        return meta if isinstance(meta, dict) else None

    def has_result(self, key: str) -> bool:
        """Whether a payload for *key* exists (without counting a hit)."""
        return self.enabled and self._stat(self._result_obj(key)) \
            is not None

    def store_result(self, key: str, values: Mapping[str, Sequence[float]],
                     meta: Optional[Mapping[str, object]] = None,
                     if_absent: bool = False) -> bool:
        """Persist one executed plan's values; no-op unless ``rw``.

        With *if_absent*, the write is an atomic exclusive create and
        ``False`` means an entry already existed — how fleet workers
        publish shard results so the loser of a stolen-lease race can
        never re-publish (and clobber the provenance of) a shard a
        survivor already landed.
        """
        if not self.writable:
            return False
        payload = json.dumps({
            "values": {name: list(vals) for name, vals in values.items()},
            "meta": dict(meta or {}),
            "created": time.time(),
        }).encode()
        target = self._result_obj(key)
        if if_absent:
            if self.store.put_if_absent(target, payload) is None:
                return False
        else:
            self.store.put_atomic(target, payload)
        self.writes += 1
        return True

    # -- technology entries ------------------------------------------------

    def load_technologies(self) -> Dict[Tuple, object]:
        """All persisted Technology rebuilds of this code version."""
        if not self.enabled:
            return {}
        obj = self._get(self._technology_obj())
        if obj is None:
            return {}
        try:
            entries = pickle.loads(obj.data)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ValueError, TypeError):
            return {}
        return entries if isinstance(entries, dict) else {}

    def merge_technologies(self, entries: Mapping[Tuple, object]) -> int:
        """Union *entries* into the persisted set; returns entries added.

        No-op unless ``rw``.  Read-modify-write, so concurrent runs lose at
        worst each other's newest entries, never corrupt the object.
        """
        if not self.writable or not entries:
            return 0
        stored = self.load_technologies()
        added = 0
        for key, value in entries.items():
            if key not in stored:
                stored[key] = value
                added += 1
        if added:
            self.store.put_atomic(self._technology_obj(),
                                  pickle.dumps(stored))
            self.writes += 1
        return added

    # -- shard leases ------------------------------------------------------
    #
    # The distributed runner's mutual-exclusion primitive, built entirely
    # on the store's conditional writes.  A lease object names its owner,
    # its TTL and the owner's last heartbeat; creation goes through
    # ``put_if_absent`` (exclusive, with the payload in place), so exactly
    # one worker claims an unleased key and no reader ever sees a
    # half-written lease.  A lease whose heartbeat is older than its TTL
    # is *expired*: any worker may steal it with a ``put_if_match``
    # conditioned on the exact bytes it read, so at most one concurrent
    # stealer wins.  On a backend whose conditional put is approximate
    # (the filesystem store's replace-and-confirm), the residual race is
    # benign — shard results are content-keyed and published atomically,
    # so a doubly-executed shard costs duplicated work, never a wrong or
    # torn result.  Expiry does not trust wall clocks across machines:
    # each reader also tracks, per lease, how long the heartbeat value has
    # gone *unchanged on the store* (by its own monotonic clock), and a
    # lease whose heartbeat advanced since the reader last looked is never
    # expired — the owner is demonstrably alive no matter what the clocks
    # say — and once a reader has witnessed an advance, only staleness
    # (never wall-clock age) expires that lease.  Wall-clock age still
    # triggers expiry before the first witnessed advance (a single-reader
    # process needs no second look to reap a long-dead lease), so the
    # tolerated skew is: a writer clock *ahead* of the reader by any
    # amount is handled exactly after one poll interval, and a writer
    # clock *behind* the reader by more than the TTL can cost a premature
    # steal only until the reader first sees its heartbeat move —
    # degrading, as always, to duplicated work, never a torn result.

    def _lease_state(self, key: str):
        """``(info, etag)`` of the lease on *key*; ``(None, None)`` if
        unleased.  The etag feeds the steal's conditional write."""
        obj = self._get(self._lease_obj(key))
        if obj is None:
            self._lease_seen.pop(key, None)
            return None, None
        try:
            info = json.loads(obj.data)
            owner = str(info["owner"])
            heartbeat = float(info["heartbeat"])
            ttl = float(info["ttl"])
        except (ValueError, KeyError, TypeError):
            # Corrupt or field-incomplete: report as an expired lease
            # owned by "?" so a healthy worker can steal and repair it.
            return ({"owner": "?", "heartbeat": 0.0, "ttl": 0.0,
                     "expired": True}, obj.etag)
        now_mono = time.monotonic()
        # repro: allow[R3] -- documented pre-first-advance fallback only
        wall_age = time.time() - heartbeat
        seen = self._lease_seen.get(key)
        if seen is not None and seen[0] == heartbeat:
            # Unchanged since the last look.  A heartbeat this reader has
            # ever witnessed advancing belongs to a demonstrably live
            # owner whose clock may sit anywhere — only the unchanged-on-
            # store stopwatch may expire it.  One never seen advancing
            # also expires by wall-clock age, so a single-reader process
            # reaps a long-dead lease without a second look.
            stale_for = now_mono - seen[1]
            age = stale_for if seen[2] else max(wall_age, stale_for)
            expired = age > ttl
        else:
            # First observation, or the heartbeat moved since the last
            # one: (re)start the staleness stopwatch.  A moving heartbeat
            # proves a live owner regardless of clock skew.
            advanced = seen is not None
            if len(self._lease_seen) >= 8192:
                # Bounded bookkeeping; forgetting observations only delays
                # staleness-based expiry by one extra poll interval.
                self._lease_seen.clear()
            self._lease_seen[key] = (heartbeat, now_mono, advanced)
            expired = (not advanced) and wall_age > ttl
        return ({"owner": owner, "heartbeat": heartbeat, "ttl": ttl,
                 "expired": expired}, obj.etag)

    def lease_info(self, key: str) -> Optional[Dict[str, object]]:
        """The live lease on *key* (owner/heartbeat/ttl/expired) or
        ``None``."""
        info, _ = self._lease_state(key)
        return info

    def claim_lease(self, key: str, owner: str,
                    ttl: float = DEFAULT_LEASE_TTL) -> bool:
        """Atomically claim *key* for *owner*; only expired leases are stolen.

        Returns ``True`` when *owner* holds the lease afterwards — a fresh
        claim, a re-claim of its own live lease, or a confirmed steal of an
        expired one.  ``False`` means another worker holds a live lease (or
        the cache is not writable).
        """
        if not self.writable:
            return False
        if ttl <= 0:
            raise ConfigurationError("lease ttl must be > 0")
        # Read fast-path: while another worker holds a live lease — the
        # common case for every contended shard on every poll — deciding
        # costs one read, no writes against the shared root.
        info, etag = self._lease_state(key)
        if info is not None and not info["expired"]:
            return info["owner"] == owner
        # repro: allow[R3] -- advisory payload timestamp; expiry is monotonic
        now = time.time()
        payload = json.dumps({"owner": owner, "ttl": ttl,
                              "heartbeat": now, "claimed": now}).encode()
        target = self._lease_obj(key)
        if info is None:
            if self.store.put_if_absent(target, payload) is not None:
                return True
            info, etag = self._lease_state(key)
            if info is None:
                # Claimed and released between the failed create and the
                # re-read: retry the exclusive create once rather than
                # overwriting a lease someone else may be claiming.
                return self.store.put_if_absent(target, payload) is not None
            if not info["expired"]:
                return info["owner"] == owner
        # Expired (or corrupt): steal with a write conditioned on the
        # exact bytes read above, so of any number of concurrent stealers
        # at most one — the one whose precondition still held — wins.
        return self.store.put_if_match(target, payload, etag) is not None

    def heartbeat_lease(self, key: str, owner: str) -> bool:
        """Refresh *owner*'s lease on *key*; ``False`` if no longer held.

        The refresh is conditioned on the lease bytes just read, so an
        owner whose lease was stolen between read and write (it expired,
        a survivor took it) can never resurrect it — the conditional put
        fails and the owner learns it lost the lease.
        """
        if not self.writable:
            return False
        info, etag = self._lease_state(key)
        if info is None or info["owner"] != owner:
            return False
        payload = json.dumps({"owner": owner, "ttl": info["ttl"],
                              # repro: allow[R3] -- advisory payload timestamp
                              "heartbeat": time.time()}).encode()
        return self.store.put_if_match(self._lease_obj(key), payload,
                                       etag) is not None

    def release_lease(self, key: str, owner: str) -> bool:
        """Drop *owner*'s lease on *key*; ``False`` if not held by *owner*."""
        if not self.writable:
            return False
        info, _ = self._lease_state(key)
        if info is None or info["owner"] != owner:
            return False
        return self.store.delete(self._lease_obj(key))

    # -- maintenance -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Per-salt entry counts and sizes, plus this session's counters."""
        salts: Dict[str, Dict[str, object]] = {}
        for info in self.store.list("results/"):
            parts = info.key.split("/")
            if len(parts) != 3 or not parts[2].endswith(".json"):
                continue
            entry = salts.setdefault(parts[1], {})
            entry["results"] = entry.get("results", 0) + 1
            entry["result_bytes"] = entry.get("result_bytes", 0) + info.size
        for info in self.store.list("leases/"):
            parts = info.key.split("/")
            if len(parts) != 3 or not parts[2].endswith(".json"):
                continue
            entry = salts.setdefault(parts[1], {})
            entry["leases"] = entry.get("leases", 0) + 1
        for info in self.store.list("technology/"):
            parts = info.key.split("/")
            if len(parts) != 2 or not parts[1].endswith(".pkl"):
                continue
            entry = salts.setdefault(parts[1][:-len(".pkl")], {})
            obj = self._get(info.key)
            try:
                entry["technologies"] = (0 if obj is None
                                         else len(pickle.loads(obj.data)))
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ValueError, TypeError):
                entry["technologies"] = 0
            entry["technology_bytes"] = info.size
        return {
            "root": str(self.root),
            "mode": self.mode,
            "current_salt": self.salt,
            "salts": dict(sorted(salts.items())),
            "session": {"hits": self.hits, "misses": self.misses,
                        "writes": self.writes},
        }

    def clear(self, stale_only: bool = False) -> int:
        """Delete cached objects; with *stale_only*, keep the current salt.

        Covers results, leases, distrib job manifests/payloads and (on a
        full clear) worker presence objects — a cleared root must not
        leave job entries behind, or a still-running fleet would rescan
        them, see every shard missing and re-execute the whole job
        unprompted.  Returns the number of objects removed.  Permitted in
        any mode — a deliberate maintenance action, unlike the implicit
        writes ``ro`` forbids.
        """
        removed = 0
        # (prefix, index of the salt segment in the key's path parts)
        specs = (("results/", 1), ("leases/", 1), ("jobs/", 1),
                 ("technology/", None))
        for prefix, salt_part in specs:
            for info in self.store.list(prefix):
                parts = info.key.split("/")
                if salt_part is None:  # technology/<salt>.pkl
                    owner = parts[-1].rsplit(".", 1)[0]
                elif len(parts) > salt_part:
                    owner = parts[salt_part]
                else:
                    continue
                if stale_only and owner == self.salt:
                    continue
                if self.store.delete(info.key):
                    removed += 1
        if not stale_only:
            # Presence objects are salt-less heartbeats; a stale-only
            # clear keeps the live fleet's announcements.
            for info in self.store.list("workers/"):
                if self.store.delete(info.key):
                    removed += 1
        self.store.prune()
        return removed


# ---------------------------------------------------------------------------
# CLI (python -m repro cache)


def register_cli(parser) -> None:
    """``python -m repro cache``: inspect (``--stats [--json]``) or reset
    (``--clear [--stale]``) the store."""
    parser.add_argument("--root", default=None,
                        help="cache directory or object-store bucket URL "
                             "(default: $REPRO_CACHE_DIR or ./.repro_cache)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-code-version entry counts and sizes")
    parser.add_argument("--json", action="store_true",
                        help="with --stats: emit machine-readable JSON")
    parser.add_argument("--clear", action="store_true",
                        help="delete cached entries")
    parser.add_argument("--stale", action="store_true",
                        help="with --clear: only entries of old code versions")

    def run(args) -> int:
        if not (args.stats or args.clear):
            parser.print_help()
            return 2
        return _cli(args)

    parser.set_defaults(func=run)


def _cli(args) -> int:
    cache = ResultCache(root=args.root, mode="ro")
    if args.clear:
        removed = cache.clear(stale_only=args.stale)
        scope = "stale" if args.stale else "all"
        print(f"cleared {removed} cached file(s) ({scope}) under {cache.root}")
    if args.stats:
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"cache root    : {stats['root']}")
        print(f"current salt  : {stats['current_salt']}")
        if not stats["salts"]:
            print("(empty)")
        for salt, entry in stats["salts"].items():
            tag = "  <- current" if salt == stats["current_salt"] else ""
            print(f"  {salt}: {entry.get('results', 0)} result(s), "
                  f"{entry.get('result_bytes', 0)} B, "
                  f"{entry.get('technologies', 0)} technolog(ies), "
                  f"{entry.get('technology_bytes', 0)} B, "
                  f"{entry.get('leases', 0)} lease(s){tag}")
    return 0
