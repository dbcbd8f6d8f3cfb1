"""Tests for the persistent experiment cache (:mod:`repro.analysis.cache`).

The cache's contract: a second run of an identical ``(plan, quantities)``
pair under the same code version is served from disk bit-identically; a
read-only cache never touches the filesystem; and any change to the code
version salt (i.e. to any library source file) invalidates everything.
"""

import json
import pickle
import threading
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from repro.analysis import cache
from repro.analysis.cache import (
    CACHE_MODES,
    CacheStore,
    LocalFSStore,
    ResultCache,
    StoredObject,
    callable_fingerprint,
    code_version_salt,
    object_etag,
    open_store,
    result_key,
    stable_repr,
)
from repro.analysis.runner import Executor, ExperimentPlan, TechnologyCache
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.models.gate import GateModel

VDDS = [0.25, 0.3, 0.4, 0.6, 0.8, 1.0]


def _delay(vdd):
    from repro.models.technology import get_technology

    return GateModel(technology=get_technology("cmos90")).delay(vdd)


def _energy(vdd):
    from repro.models.technology import get_technology

    return GateModel(technology=get_technology("cmos90")).transition_energy(vdd)


def _mc_delay(perturbed):
    return GateModel(technology=perturbed).delay(0.4)


def _mc_energy(perturbed):
    return GateModel(technology=perturbed).transition_energy(0.4)


def _seeded(vdd, seed=0):
    return vdd * seed


_BIG = np.arange(5000, dtype=np.float64)
_BIG_EDITED = _BIG.copy()
_BIG_EDITED[2500] = -1.0  # repr would elide the middle of the array

# Value pairs that the key once rendered as a bare type name, so the two
# quantities of each pair shared one key.
OPAQUE_PAIRS = {
    "set": ({1}, {2}),
    "frozenset": (frozenset({1}), frozenset({2})),
    "np-int64": (np.int64(3), np.int64(4)),
    "np-dtype": (np.int64(3), np.int32(3)),
    "ndarray-values": (np.array([1.0, 2.0]), np.array([1.0, 3.0])),
    "ndarray-shape": (np.zeros(4), np.zeros((2, 2))),
    "ndarray-elided": (_BIG, _BIG_EDITED),
    "ndarray-object": (np.array(["a", 1], dtype=object),
                       np.array(["a", 2], dtype=object)),
    "complex": (1 + 2j, 1 + 3j),
    "range": (range(3), range(4)),
    "decimal": (Decimal("1.1"), Decimal("1.2")),
    "fraction": (Fraction(1, 3), Fraction(1, 4)),
}


def _mutable_quantity(kind):
    """A quantity plus a mutation of state its key must reflect."""
    if kind == "global":
        namespace = {"SCALE": 2.0}
        fn = eval("lambda v: SCALE * v", namespace)
        return fn, lambda: namespace.update(SCALE=3.0)
    if kind == "dict":
        table = {"scale": 2.0}
        fn = eval("lambda v: TABLE['scale'] * v", {"TABLE": table})
        return fn, lambda: table.update(scale=3.0)
    if kind == "defaults":
        fn = eval("lambda v, scale=2.0: scale * v")
        return fn, lambda: setattr(fn, "__defaults__", (3.0,))
    scale = 2.0

    def fn(v):
        return scale * v

    def mutate():
        fn.__closure__[0].cell_contents = 3.0

    return fn, mutate


@pytest.fixture()
def plan():
    return ExperimentPlan.sweep("vdd", VDDS)


@pytest.fixture()
def quantities():
    return {"delay": _delay, "energy": _energy}


class CountingStore(CacheStore):
    """Forwards to *inner*, recording every call as ``(operation, key)``."""

    def __init__(self, inner: CacheStore) -> None:
        self.inner = inner
        self.calls = []

    def _forward(operation):
        def call(self, key="", *args):
            self.calls.append((operation, key))
            return getattr(self.inner, operation)(key, *args)

        return call

    get = _forward("get")
    put_atomic = _forward("put_atomic")
    put_if_absent = _forward("put_if_absent")
    put_if_match = _forward("put_if_match")
    list = _forward("list")
    delete = _forward("delete")
    stat = _forward("stat")
    del _forward

    def describe(self):
        return self.inner.describe()


def cache_main(argv):
    """``python -m repro cache ARGV`` in-process; returns the exit code."""
    return cli_main(["cache", *argv])


@pytest.fixture(params=["fs", "obj"])
def raw_store(request, tmp_path):
    """One empty ``CacheStore`` per backend: a directory, or a bucket."""
    if request.param == "obj":
        from repro.analysis.objstore import FakeObjectServer

        with FakeObjectServer() as server:
            yield open_store(f"{server.url}/contract")
    else:
        yield open_store(tmp_path)


class TestStoreContract:
    """The ``CacheStore`` interface both backends implement identically."""

    def test_put_atomic_get_round_trip_with_content_etag(self, raw_store):
        etag = raw_store.put_atomic("contract/a", b"alpha")
        assert etag == object_etag(b"alpha")
        assert raw_store.get("contract/a") == StoredObject(b"alpha", etag)

    def test_stat_reports_existence_and_size(self, raw_store):
        raw_store.put_atomic("contract/a", b"alpha")
        assert raw_store.stat("contract/a").size == 5
        assert raw_store.stat("contract/missing") is None

    def test_put_if_absent_creates_exactly_once(self, raw_store):
        assert raw_store.put_if_absent("contract/b", b"beta") is not None
        assert raw_store.put_if_absent("contract/b", b"other") is None
        assert raw_store.get("contract/b").data == b"beta"

    def test_put_if_match_replaces_only_the_live_etag(self, raw_store):
        created = raw_store.put_if_absent("contract/b", b"beta")
        assert raw_store.put_if_match("contract/b", b"beta2", "stale") is None
        assert raw_store.put_if_match("contract/b", b"beta2",
                                      created) is not None
        assert raw_store.get("contract/b").data == b"beta2"
        assert raw_store.put_if_match("contract/missing", b"x",
                                      created) is None

    def test_list_is_prefix_scoped_and_sorted(self, raw_store):
        for key in ("contract/b", "contract/a", "other/c"):
            raw_store.put_atomic(key, b"x")
        assert [info.key for info in raw_store.list("contract/")] == \
            ["contract/a", "contract/b"]
        assert [info.key for info in raw_store.list("contract/a")] == \
            ["contract/a"]

    def test_delete_removes_exactly_once(self, raw_store):
        raw_store.put_atomic("contract/a", b"alpha")
        assert raw_store.delete("contract/a")
        assert not raw_store.delete("contract/a")
        assert raw_store.get("contract/a") is None


class TestLocalFSConcurrentWrites:
    """Threads of one process writing one key must not share a staging file."""

    THREADS = 8

    def test_concurrent_put_atomic_of_one_key(self, tmp_path):
        store = LocalFSStore(tmp_path)
        payloads = [f"payload-{i}".encode() * 64 for i in range(self.THREADS)]
        for round_ in range(20):
            key = f"technology/k{round_}.pkl"
            barrier = threading.Barrier(self.THREADS)
            errors = []

            def write(data):
                barrier.wait()
                try:
                    store.put_atomic(key, data)
                except Exception as exc:  # collected, asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(data,))
                       for data in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert store.get(key).data in payloads
        written = sorted(p.name for p in (tmp_path / "technology").iterdir())
        assert written == sorted(f"k{i}.pkl" for i in range(20))  # no staging

    def test_list_hides_staging_files(self, tmp_path):
        store = LocalFSStore(tmp_path)
        store.put_atomic("results/a.json", b"{}")
        for staging in ("a.json.tmp4711", "a.json.tmp0123456789abcdef",
                        "a.json.claim0123456789abcdef"):
            (tmp_path / "results" / staging).write_bytes(b"partial")
        assert [info.key for info in store.list("results/")] == \
            ["results/a.json"]


class TestContentKeys:
    def test_key_is_deterministic(self, plan, quantities):
        assert (result_key(plan, quantities, salt="s")
                == result_key(plan, quantities, salt="s"))

    def test_key_depends_on_plan_points(self, quantities):
        a = ExperimentPlan.sweep("vdd", VDDS)
        b = ExperimentPlan.sweep("vdd", VDDS[:-1])
        assert result_key(a, quantities, salt="s") != \
            result_key(b, quantities, salt="s")

    def test_key_depends_on_quantity_code_not_just_name(self, plan):
        # Two different functions registered under the same series name
        # must key different entries.
        assert result_key(plan, {"q": _delay}, salt="s") != \
            result_key(plan, {"q": _energy}, salt="s")

    def test_key_depends_on_closure_contents(self, plan):
        def bound(scale):
            return lambda v: scale * v

        assert result_key(plan, {"q": bound(2.0)}, salt="s") != \
            result_key(plan, {"q": bound(3.0)}, salt="s")

    def test_key_depends_on_default_arguments(self, plan):
        # The benchmarks bind loop variables as defaults
        # (``lambda v, metric=metric: ...``); a changed default must
        # invalidate even though code, closure and globals are identical.
        a = eval("lambda v, scale=2.0: scale * v")
        b = eval("lambda v, scale=3.0: scale * v")
        assert result_key(plan, {"q": a}, salt="s") != \
            result_key(plan, {"q": b}, salt="s")

    def test_key_depends_on_referenced_module_globals(self, plan):
        # Benchmark constants (module globals outside repro/) must land in
        # the key: the code-version salt cannot see them change.
        def lambda_reading_global(scale):
            namespace = {"SCALE": scale}
            return eval("lambda v: SCALE * v", namespace)

        assert result_key(plan, {"q": lambda_reading_global(2.0)},
                          salt="s") != \
            result_key(plan, {"q": lambda_reading_global(3.0)}, salt="s")
        assert result_key(plan, {"q": lambda_reading_global(2.0)},
                          salt="s") == \
            result_key(plan, {"q": lambda_reading_global(2.0)}, salt="s")

    def test_key_depends_on_salt(self, plan, quantities):
        assert result_key(plan, quantities, salt="a") != \
            result_key(plan, quantities, salt="b")

    def test_seeded_plans_key_by_seed(self, tech):
        a = ExperimentPlan.monte_carlo(8, technology=tech, seed=1)
        b = ExperimentPlan.monte_carlo(8, technology=tech, seed=2)
        assert result_key(a, {"d": _mc_delay}, salt="s") != \
            result_key(b, {"d": _mc_delay}, salt="s")

    def test_stable_repr_has_no_addresses(self, tech):
        text = stable_repr({"tech": tech, "xs": (1, 2.5), "flag": True})
        assert "0x" not in text
        assert text == stable_repr({"flag": True, "xs": (1, 2.5),
                                    "tech": tech})

    def test_executor_machinery_is_opaque(self):
        # Volatile executor/cache state must not leak into fingerprints.
        executor = Executor(workers=0)
        executor.cache.misses = 123
        assert stable_repr(executor) == "Executor"
        assert stable_repr(executor.cache) == "TechnologyCache"

    def test_bound_method_fingerprint_includes_instance(self, tech):
        gate_a = GateModel(technology=tech)
        gate_b = GateModel(technology=tech, gate_type=gate_a.gate_type)
        other = GateModel(technology=tech.scaled(temperature_k=350.0))
        assert callable_fingerprint(gate_a.delay) == \
            callable_fingerprint(gate_b.delay)
        assert callable_fingerprint(gate_a.delay) != \
            callable_fingerprint(other.delay)

    def test_code_version_salt_is_stable_within_a_session(self):
        assert code_version_salt() == code_version_salt()
        assert len(code_version_salt()) == 16

    @pytest.mark.parametrize("pair", sorted(OPAQUE_PAIRS))
    def test_key_depends_on_value_contents(self, plan, pair):
        a, b = OPAQUE_PAIRS[pair]
        assert result_key(plan, {"q": partial(_seeded, seed=a)}, salt="s") \
            != result_key(plan, {"q": partial(_seeded, seed=b)}, salt="s")
        assert stable_repr(a) == stable_repr(a)
        assert "0x" not in stable_repr(a)

    def test_set_rendering_is_order_free(self):
        words = ["gamma", "alpha", "beta"]
        assert stable_repr(frozenset(words)) == \
            "frozenset{'alpha','beta','gamma'}"
        assert stable_repr(set(reversed(words))) == \
            "set{'alpha','beta','gamma'}"

    # The fingerprint memo lives for one result_key call only: state a
    # function reads may change between calls on the same function object.
    @pytest.mark.parametrize("kind", ["global", "dict", "defaults", "cell"])
    def test_key_follows_state_mutated_between_calls(self, plan, kind):
        fn, mutate = _mutable_quantity(kind)
        quantities = {"q": fn, "r": partial(fn)}
        before = result_key(plan, quantities, salt="s")
        assert result_key(plan, quantities, salt="s") == before
        mutate()
        assert result_key(plan, quantities, salt="s") != before

    def test_shared_function_is_walked_once_per_key(self, monkeypatch,
                                                    plan):
        # k partials of one registry function cost one walk of its code
        # graph plus k renderings of the partials' own arguments.
        from repro.analysis.campaign.registry import (get_point_function,
                                                      quantities_for)

        calls = []
        original = cache.stable_repr

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def count(thunk):
            calls.clear()
            thunk()
            return len(calls)

        def arguments(fn):
            return count(lambda: (cache.stable_repr(fn.args),
                                  cache.stable_repr(fn.keywords)))

        monkeypatch.setattr(cache, "stable_repr", counted)
        entry = get_point_function("gate_metrics")
        one = quantities_for(entry, "cmos90", {}, ("delay",))
        four = quantities_for(entry, "cmos90", {})
        assert len(four) == 4
        walk_one = count(lambda: result_key(plan, one, salt="s"))
        walk_four = count(lambda: result_key(plan, four, salt="s"))
        assert walk_four - walk_one == \
            sum(map(arguments, four.values())) - arguments(one["delay"])
        assert walk_one > 10 * arguments(one["delay"])


class TestResultCacheStore:
    def test_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(root=tmp_path, mode="frobnicate")
        assert set(CACHE_MODES) == {"off", "rw", "ro"}

    def test_off_mode_is_inert(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="off")
        assert not cache.enabled
        assert cache.load_result("k", ["a"], 1) is None
        assert not cache.store_result("k", {"a": [1.0]})
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        values = {"q": [0.1 + 0.2, 1e-300, float("inf"), -0.0, 3.14159]}
        assert cache.store_result("key", values)
        loaded = cache.load_result("key", ["q"], 5)
        assert loaded == values

    def test_mismatched_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.store_result("key", {"q": [1.0, 2.0]})
        # Wrong names or wrong point count: treated as a miss, not served.
        assert cache.load_result("key", ["other"], 2) is None
        assert cache.load_result("key", ["q"], 3) is None
        assert cache.load_result("key", ["q"], 2) == {"q": [1.0, 2.0]}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.store_result("key", {"q": [1.0]})
        cache.store.put_atomic(cache._result_obj("key"), b"{not json")
        assert cache.load_result("key", ["q"], 1) is None

    def test_corrupt_entry_is_healed_on_recompute(self, tmp_path, plan,
                                                  quantities):
        store = ResultCache(root=tmp_path, mode="rw")
        first = Executor(persistent=store).run(plan, quantities)
        key = store.result_key(plan, quantities)
        store.store.put_atomic(store._result_obj(key), b"{truncated")
        recomputed = Executor(persistent=store).run(plan, quantities)
        assert recomputed.provenance.persistent_misses == len(VDDS)
        # The recompute overwrote the corrupt payload: the next run hits.
        replay = Executor(persistent=store).run(plan, quantities)
        assert replay.provenance.executor == "persistent-cache"
        assert replay.values == first.values

    def test_stale_salt_invalidates(self, tmp_path, plan, quantities):
        old = ResultCache(root=tmp_path, mode="rw", salt="old-code")
        Executor(persistent=old).run(plan, quantities)
        fresh = ResultCache(root=tmp_path, mode="rw", salt="new-code")
        record = Executor(persistent=fresh).run(plan, quantities).provenance
        assert record.persistent_hits == 0
        assert record.persistent_misses == len(VDDS)

    def test_clear_and_stale_clear(self, tmp_path):
        old = ResultCache(root=tmp_path, mode="rw", salt="old")
        new = ResultCache(root=tmp_path, mode="rw", salt="new")
        old.store_result("a", {"q": [1.0]})
        new.store_result("b", {"q": [2.0]})
        removed = new.clear(stale_only=True)
        assert removed == 1
        assert new.load_result("b", ["q"], 1) == {"q": [2.0]}
        assert new.clear() == 1
        assert new.load_result("b", ["q"], 1) is None


class TestExecutorIntegration:
    def test_second_run_is_a_bit_identical_hit(self, tmp_path, plan,
                                               quantities):
        store = ResultCache(root=tmp_path, mode="rw")
        first = Executor(persistent=store).run(plan, quantities)
        second = Executor(persistent=store).run(plan, quantities)
        assert first.provenance.persistent_mode == "rw"
        assert first.provenance.persistent_hits == 0
        assert first.provenance.persistent_misses == len(VDDS)
        assert second.provenance.executor == "persistent-cache"
        assert second.provenance.persistent_hits == len(VDDS)
        assert second.provenance.persistent_misses == 0
        assert second.values == first.values
        assert "persistent_hits" in second.provenance.as_dict()

    def test_hit_rate_survives_new_process_state(self, tmp_path, plan,
                                                 quantities):
        # A brand-new cache object over the same directory (a later pytest
        # invocation) must hit.
        Executor(persistent=ResultCache(root=tmp_path, mode="rw")).run(
            plan, quantities)
        replay = Executor(
            persistent=ResultCache(root=tmp_path, mode="rw")).run(
            plan, quantities)
        assert replay.provenance.persistent_hits == len(VDDS)

    def test_ro_mode_never_writes(self, tmp_path, plan, quantities):
        readonly = ResultCache(root=tmp_path, mode="ro")
        result = Executor(persistent=readonly).run(plan, quantities)
        assert result.provenance.persistent_mode == "ro"
        assert result.provenance.persistent_hits == 0
        assert readonly.writes == 0
        assert list(tmp_path.iterdir()) == []

    def test_ro_mode_replays_an_existing_cache(self, tmp_path, plan,
                                               quantities):
        computed = Executor(
            persistent=ResultCache(root=tmp_path, mode="rw")).run(
            plan, quantities)
        replay = Executor(
            persistent=ResultCache(root=tmp_path, mode="ro")).run(
            plan, quantities)
        assert replay.provenance.persistent_hits == len(VDDS)
        assert replay.values == computed.values

    def test_off_cache_behaves_like_none(self, tmp_path, plan, quantities):
        executor = Executor(persistent=ResultCache(root=tmp_path, mode="off"))
        assert executor.persistent is None
        record = executor.run(plan, quantities).provenance
        assert record.persistent_mode == "off"
        assert record.persistent_hits == record.persistent_misses == 0

    def test_monte_carlo_round_trip(self, tmp_path, tech):
        plan = ExperimentPlan.monte_carlo(12, technology=tech, seed=7)
        store = ResultCache(root=tmp_path, mode="rw")
        first = Executor(persistent=store).run(plan, {"d": _mc_delay})
        second = Executor(persistent=store).run(plan, {"d": _mc_delay})
        assert second.provenance.persistent_hits == 12
        assert second.values == first.values
        assert second.summary("d").mean == first.summary("d").mean

    def test_new_quantity_in_fresh_executor_is_bit_identical(self, tmp_path,
                                                             tech):
        # A later process evaluating a new quantity over the same samples
        # rebuilds every perturbed technology; the values must equal a
        # serial run that never saw a cache.
        plan = ExperimentPlan.monte_carlo(6, technology=tech, seed=3)
        Executor(persistent=ResultCache(root=tmp_path, mode="rw")).run(
            plan, {"d": _mc_delay})
        fresh = Executor(cache=TechnologyCache(),
                         persistent=ResultCache(root=tmp_path, mode="rw"))
        later = fresh.run(plan, {"e": _mc_energy})
        reference = Executor().run(plan, {"e": _mc_energy})
        assert later.provenance.persistent_misses == 6
        assert [v.hex() for v in later.values["e"]] == \
            [v.hex() for v in reference.values["e"]]


class TestStoreTraffic:
    """Which store operations a run and an executor cost."""

    def test_cold_plan_is_one_lookup_and_one_write(self, tmp_path, tech):
        store = CountingStore(LocalFSStore(tmp_path))
        persistent = ResultCache(mode="rw", salt="s", store=store)
        plan = ExperimentPlan.monte_carlo(16, technology=tech, seed=5)
        key = persistent.result_key(plan, {"d": _mc_delay})
        Executor(persistent=persistent).run(plan, {"d": _mc_delay})
        target = f"results/s/{key}.json"
        assert store.calls == [("get", target), ("put_atomic", target)]

    def test_executor_on_a_warm_root_touches_no_store(self, tmp_path, tech):
        plan = ExperimentPlan.monte_carlo(16, technology=tech, seed=5)
        Executor(persistent=ResultCache(root=tmp_path, mode="rw",
                                        salt="s")).run(plan, {"d": _mc_delay})
        store = CountingStore(LocalFSStore(tmp_path))
        Executor(persistent=ResultCache(mode="rw", salt="s", store=store))
        assert store.calls == []


class TestLegacyTechnologyPickle:
    """Roots written by older versions hold ``technology/<salt>.pkl``."""

    @pytest.fixture()
    def legacy_root(self, tmp_path, plan, quantities):
        Executor(persistent=ResultCache(root=tmp_path, mode="rw",
                                        salt="s")).run(plan, quantities)
        from repro.models.technology import get_technology

        legacy = pickle.dumps({("cmos90",): get_technology("cmos90")})
        fs = LocalFSStore(tmp_path)
        fs.put_atomic("technology/s.pkl", legacy)
        fs.put_atomic("technology/old.pkl", legacy)
        return tmp_path

    def test_results_are_still_served(self, legacy_root, plan, quantities):
        replay = Executor(persistent=ResultCache(
            root=legacy_root, mode="rw", salt="s")).run(plan, quantities)
        assert replay.provenance.executor == "persistent-cache"
        assert replay.values == Executor().run(plan, quantities).values

    def test_stats_neither_lists_nor_reads_the_pickle(self, legacy_root):
        store = CountingStore(LocalFSStore(legacy_root))
        stats = ResultCache(mode="ro", salt="s", store=store).stats()
        assert not [call for call in store.calls
                    if call[1].startswith("technology/")]
        assert list(stats["salts"]) == ["s"]
        assert set(stats["salts"]["s"]) == {"results", "result_bytes"}

    def test_clear_deletes_the_pickle(self, legacy_root):
        cache = ResultCache(root=legacy_root, mode="rw", salt="s")
        assert cache.clear(stale_only=True) == 1
        assert not (legacy_root / "technology" / "old.pkl").exists()
        assert (legacy_root / "technology" / "s.pkl").exists()
        assert cache.clear() == 2  # the result and the current pickle
        assert not any(path.is_file() for path in legacy_root.rglob("*"))

    def test_cli_clear_empties_the_root(self, legacy_root, capsys):
        assert cache_main(["--root", str(legacy_root), "--clear"]) == 0
        assert "cleared 3 cached file(s)" in capsys.readouterr().out
        assert not any(path.is_file() for path in legacy_root.rglob("*"))


class TestShardPrimitives:
    """The lease/claim and shard-result hooks the distributed runner uses."""

    def test_meta_round_trip_and_has_result(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.store_result("key", {"q": [1.0]}, meta={"worker": "host:1"})
        assert cache.has_result("key")
        assert not cache.has_result("missing")
        assert cache.load_meta("key") == {"worker": "host:1"}
        assert cache.load_meta("missing") is None

    def test_result_valid_probe_does_not_count(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.store_result("key", {"q": [1.0, 2.0]})
        assert cache.result_valid("key", ["q"], 2)
        assert not cache.result_valid("key", ["q"], 3)
        assert not cache.result_valid("missing", ["q"], 2)
        cache.store.put_atomic(cache._result_obj("key"), b"{corrupt")
        assert not cache.result_valid("key", ["q"], 2)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_fresh_claim_is_exclusive(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        assert cache.claim_lease("shard", "a", ttl=30.0)
        assert not cache.claim_lease("shard", "b", ttl=30.0)
        # Re-claiming one's own live lease is allowed (worker restart on
        # the same pid would be a new id, so this is the idempotent case).
        assert cache.claim_lease("shard", "a", ttl=30.0)
        info = cache.lease_info("shard")
        assert info["owner"] == "a" and not info["expired"]

    def test_expired_lease_is_stolen(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        assert cache.claim_lease("shard", "dead", ttl=0.05)
        import time as _time

        _time.sleep(0.1)
        assert cache.lease_info("shard")["expired"]
        assert cache.claim_lease("shard", "survivor", ttl=30.0)
        assert cache.lease_info("shard")["owner"] == "survivor"

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.claim_lease("shard", "a", ttl=0.2)
        import time as _time

        for _ in range(3):
            _time.sleep(0.1)
            assert cache.heartbeat_lease("shard", "a")
        assert not cache.lease_info("shard")["expired"]
        assert not cache.heartbeat_lease("shard", "b")

    def test_release_only_by_owner(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.claim_lease("shard", "a", ttl=30.0)
        assert not cache.release_lease("shard", "b")
        assert cache.release_lease("shard", "a")
        assert cache.lease_info("shard") is None
        assert not cache.release_lease("shard", "a")

    def test_corrupt_lease_reports_expired_and_is_stolen(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.claim_lease("shard", "a", ttl=30.0)
        cache.store.put_atomic(cache._lease_obj("shard"), b"{not json")
        info = cache.lease_info("shard")
        assert info["expired"] and info["owner"] == "?"
        assert cache.claim_lease("shard", "repair", ttl=30.0)

    def test_ro_cache_never_touches_leases(self, tmp_path):
        readonly = ResultCache(root=tmp_path, mode="ro", salt="s")
        assert not readonly.claim_lease("shard", "a")
        assert not readonly.heartbeat_lease("shard", "a")
        assert not readonly.release_lease("shard", "a")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_ttl_rejected(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        with pytest.raises(ConfigurationError):
            cache.claim_lease("shard", "a", ttl=0.0)

    def test_clear_removes_leases_too(self, tmp_path):
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.store_result("key", {"q": [1.0]})
        cache.claim_lease("shard", "a", ttl=30.0)
        assert cache.stats()["salts"]["s"]["leases"] == 1
        assert cache.clear() == 2
        assert cache.lease_info("shard") is None

    def test_release_never_prunes_directories(self, tmp_path):
        # Hot-path deletes must not rmdir an emptied lease directory: a
        # concurrent claimer between its mkdir and its staging write
        # would crash.  Only the explicit clear() maintenance path prunes.
        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.claim_lease("shard", "a", ttl=30.0)
        cache.release_lease("shard", "a")
        assert (tmp_path / "leases" / "s").is_dir()
        cache.clear()
        assert not (tmp_path / "leases").exists()


class TestLeaseClockSkew:
    """Lease expiry must not trust wall clocks across machines.

    The reader tracks how long a heartbeat value has gone unchanged *on
    the store* by its own monotonic clock; an advancing heartbeat proves
    a live owner no matter what either clock says.
    """

    @staticmethod
    def _write_lease(cache, key, owner, heartbeat, ttl):
        import time as _time

        payload = json.dumps({"owner": owner, "ttl": ttl,
                              "heartbeat": heartbeat,
                              "claimed": _time.time()}).encode()
        cache.store.put_atomic(cache._lease_obj(key), payload)

    def test_writer_clock_ahead_expires_by_staleness(self, tmp_path):
        # An owner whose clock runs an hour ahead writes heartbeats "in
        # the future": wall-clock age stays hugely negative forever, so
        # only the unchanged-on-store stopwatch can expire its lease.
        import time as _time

        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        self._write_lease(cache, "shard", "fast-clock",
                          heartbeat=_time.time() + 3600.0, ttl=0.1)
        assert not cache.lease_info("shard")["expired"]
        _time.sleep(0.15)
        assert cache.lease_info("shard")["expired"]
        assert cache.claim_lease("shard", "survivor", ttl=30.0)
        assert cache.lease_info("shard")["owner"] == "survivor"

    def test_writer_clock_behind_stays_alive_while_heartbeating(
            self, tmp_path):
        # An owner whose clock runs hours behind writes heartbeats that
        # look ancient; as long as the value keeps *changing*, the reader
        # must treat the owner as alive and refuse to steal.
        import time as _time

        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        assert cache.claim_lease("shard", "a", ttl=0.3)
        assert not cache.lease_info("shard")["expired"]
        # The owner's skewed clock stamps a heartbeat decades in the past;
        # the reader witnesses the advance...
        self._write_lease(cache, "shard", "a", heartbeat=1000.0, ttl=0.3)
        assert not cache.lease_info("shard")["expired"]
        _time.sleep(0.1)
        # ...and re-reads of that unchanged, ancient value within the TTL
        # must not expire it by wall-clock age.
        assert not cache.lease_info("shard")["expired"]
        assert not cache.claim_lease("shard", "thief", ttl=30.0)
        self._write_lease(cache, "shard", "a", heartbeat=1001.0, ttl=0.3)
        assert not cache.lease_info("shard")["expired"]
        # The moment the heartbeat stops advancing, staleness expires it.
        _time.sleep(0.4)
        assert cache.lease_info("shard")["expired"]
        assert cache.claim_lease("shard", "survivor", ttl=30.0)

    def test_released_lease_forgets_its_observation(self, tmp_path):
        # A lease deleted and re-claimed restarts the staleness stopwatch
        # rather than inheriting the old observation.
        import time as _time

        cache = ResultCache(root=tmp_path, mode="rw", salt="s")
        cache.claim_lease("shard", "a", ttl=0.1)
        cache.lease_info("shard")
        _time.sleep(0.15)
        cache.release_lease("shard", "a")
        assert cache.lease_info("shard") is None
        self._write_lease(cache, "shard", "b",
                          heartbeat=_time.time() + 3600.0, ttl=0.1)
        assert not cache.lease_info("shard")["expired"]


class TestCacheCLI:
    def test_stats_and_clear(self, tmp_path, capsys, plan, quantities):
        store = ResultCache(root=tmp_path, mode="rw")
        Executor(persistent=store).run(plan, quantities)
        assert cache_main(["--root", str(tmp_path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "1 result(s)" in out
        assert cache_main(["--root", str(tmp_path), "--clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert cache_main(["--root", str(tmp_path), "--stats"]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_json_stats_are_machine_readable(self, tmp_path, capsys, plan,
                                             quantities):
        store = ResultCache(root=tmp_path, mode="rw")
        Executor(persistent=store).run(plan, quantities)
        assert cache_main(["--root", str(tmp_path), "--stats",
                           "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == str(tmp_path)
        assert payload["salts"][payload["current_salt"]]["results"] == 1
        assert {"hits", "misses", "writes"} <= set(payload["session"])

    def test_no_arguments_prints_help(self, capsys):
        assert cache_main([]) == 2
        assert "usage" in capsys.readouterr().out
