"""Tests for the S3-style object-store backend (:mod:`repro.analysis.objstore`).

Three layers: the client/server wire protocol (CRUD, conditional puts,
pagination), the :class:`~repro.analysis.cache.ResultCache` contract over
an object-store root (results, leases, stats, clear — the same behaviour
the filesystem backend pins in ``test_analysis_cache.py``), and the
distributed runner coordinating a whole job through nothing but the HTTP
endpoint.
"""

import threading

import pytest

from repro.analysis.cache import (
    ObjectInfo,
    ResultCache,
    StoredObject,
    object_etag,
    open_store,
)
from repro.analysis.distrib import Worker, merge_job, submit, wait_for_job
from repro.analysis.objstore import FakeObjectServer, ObjectStore
from repro.analysis.runner import Executor, ExperimentPlan
from repro.errors import ConfigurationError

XS = [1.0, 2.0, 3.0, 4.0, 5.0]


def _double(x):
    return 2.0 * x


def _square(x):
    return x * x


@pytest.fixture(scope="module")
def server():
    with FakeObjectServer() as running:
        yield running


_BUCKET_COUNTER = iter(range(10**6))


@pytest.fixture()
def store(server):
    """A client over a bucket no other test has touched."""
    return ObjectStore(f"{server.url}/t{next(_BUCKET_COUNTER)}")


@pytest.fixture()
def obj_root(server):
    """A fresh bucket URL usable as a ResultCache/distrib root."""
    return f"{server.url}/root{next(_BUCKET_COUNTER)}"


class TestClientProtocol:
    def test_url_validation(self):
        for bad in ("ftp://host/bucket", "http://host", "http://host/",
                    "http://host/two/segments"):
            with pytest.raises(ConfigurationError):
                ObjectStore(bad)

    def test_round_trip_and_etag(self, store):
        etag = store.put_atomic("a/b/c", b"payload")
        assert etag == object_etag(b"payload")
        assert store.get("a/b/c") == StoredObject(b"payload", etag)
        assert store.stat("a/b/c") == ObjectInfo("a/b/c", 7, etag)

    def test_missing_key_reads_cleanly(self, store):
        assert store.get("absent") is None
        assert store.stat("absent") is None
        assert not store.delete("absent")

    def test_empty_payload_round_trips(self, store):
        etag = store.put_atomic("empty", b"")
        assert store.get("empty") == StoredObject(b"", etag)
        assert store.stat("empty").size == 0

    def test_put_if_absent_is_exclusive(self, store):
        assert store.put_if_absent("key", b"first") is not None
        assert store.put_if_absent("key", b"second") is None
        assert store.get("key").data == b"first"

    def test_put_if_match_is_a_cas(self, store):
        etag = store.put_atomic("key", b"v1")
        assert store.put_if_match("key", b"v2", "bogus") is None
        assert store.get("key").data == b"v1"
        swapped = store.put_if_match("key", b"v2", etag)
        assert swapped == object_etag(b"v2")
        # The old ETag is dead: the same precondition cannot win twice.
        assert store.put_if_match("key", b"v3", etag) is None
        assert store.put_if_match("missing", b"x", etag) is None

    def test_concurrent_cas_admits_one_winner(self, server, store):
        base = store.put_atomic("cas", b"base")
        clients = [ObjectStore(store.url) for _ in range(6)]
        outcomes = [None] * len(clients)

        def race(index):
            outcomes[index] = clients[index].put_if_match(
                "cas", b"winner-%d" % index, base)

        threads = [threading.Thread(target=race, args=(i,))
                   for i in range(len(clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [i for i, outcome in enumerate(outcomes)
                   if outcome is not None]
        assert len(winners) == 1
        assert store.get("cas").data == b"winner-%d" % winners[0]

    def test_put_replies_after_releasing_the_server_lock(self, server,
                                                         monkeypatch):
        # A reply sent under the lock lets one client that stops reading
        # stall every other request; every PUT outcome must reply unlocked.
        from repro.analysis.objstore import _ObjectStoreHandler

        replies = []
        original = _ObjectStoreHandler._reply

        def checked_reply(handler, status, *args, **kwargs):
            replies.append((status, handler._lock.locked()))
            return original(handler, status, *args, **kwargs)

        monkeypatch.setattr(_ObjectStoreHandler, "_reply", checked_reply)
        store = ObjectStore(f"{server.url}/unlocked-replies")
        etag = store.put_if_absent("key", b"v1")
        assert store.put_if_absent("key", b"v2") is None
        assert store.put_if_match("key", b"v2", "stale") is None
        assert store.put_if_match("missing", b"v2", etag) is None
        assert {status for status, _ in replies} == {200, 404, 412}
        assert not any(locked for _, locked in replies)

    def test_listing_paginates_and_scopes(self, server):
        store = ObjectStore(f"{server.url}/pages", page_size=3)
        for index in range(10):
            store.put_atomic(f"p/{index:02d}", b"x" * index)
        store.put_atomic("q/other", b"y")
        listed = store.list("p/")
        assert [info.key for info in listed] \
            == [f"p/{i:02d}" for i in range(10)]
        assert [info.size for info in listed] == list(range(10))
        assert all(info.etag for info in listed)
        assert [info.key for info in store.list("q/")] == ["q/other"]
        assert store.list("nothing/") == []

    def test_keys_with_unsafe_characters(self, store):
        key = "dir/with space/and+plus/k.json"
        store.put_atomic(key, b"data")
        assert store.get(key).data == b"data"
        assert [info.key for info in store.list("dir/")] == [key]
        assert store.delete(key)

    def test_unreachable_endpoint_raises_oserror(self):
        # Port 1 is never listening; the error must be an OSError so
        # callers that tolerate filesystem faults tolerate this too.
        lonely = ObjectStore("http://127.0.0.1:1/void", timeout_s=0.2)
        with pytest.raises(OSError):
            lonely.get("key")

    def test_open_store_resolves_urls(self, server, tmp_path):
        assert isinstance(open_store(f"{server.url}/bucket"), ObjectStore)
        assert not isinstance(open_store(tmp_path), ObjectStore)
        existing = ObjectStore(f"{server.url}/bucket")
        assert open_store(existing) is existing


class TestResultCacheOverObjectStore:
    def test_result_round_trip_is_bit_identical(self, obj_root):
        cache = ResultCache(root=obj_root, mode="rw", salt="s")
        values = {"q": [0.1 + 0.2, 1e-300, float("inf"), -0.0, 3.14159]}
        assert cache.store_result("key", values, meta={"worker": "w:1"})
        assert cache.load_result("key", ["q"], 5) == values
        assert cache.load_meta("key") == {"worker": "w:1"}
        assert cache.has_result("key") and not cache.has_result("other")

    def test_lease_protocol(self, obj_root):
        cache = ResultCache(root=obj_root, mode="rw", salt="s")
        assert cache.claim_lease("shard", "a", ttl=30.0)
        assert not cache.claim_lease("shard", "b", ttl=30.0)
        assert cache.heartbeat_lease("shard", "a")
        assert not cache.heartbeat_lease("shard", "b")
        assert cache.release_lease("shard", "a")
        assert cache.lease_info("shard") is None

    def test_expired_lease_is_stolen(self, obj_root):
        import time

        cache = ResultCache(root=obj_root, mode="rw", salt="s")
        assert cache.claim_lease("shard", "dead", ttl=0.05)
        time.sleep(0.1)
        assert cache.claim_lease("shard", "survivor", ttl=30.0)
        assert cache.lease_info("shard")["owner"] == "survivor"
        # The dead owner's delayed heartbeat cannot resurrect the lease.
        assert not cache.heartbeat_lease("shard", "dead")

    def test_executor_persistent_round_trip(self, obj_root):
        plan = ExperimentPlan.sweep("x", XS)
        quantities = {"double": _double}
        first = Executor(
            persistent=ResultCache(root=obj_root, mode="rw")).run(
            plan, quantities)
        second = Executor(
            persistent=ResultCache(root=obj_root, mode="rw")).run(
            plan, quantities)
        assert second.provenance.executor == "persistent-cache"
        assert second.provenance.persistent_hits == len(XS)
        assert second.values == first.values

    def test_stats_and_clear(self, obj_root):
        cache = ResultCache(root=obj_root, mode="rw", salt="s")
        cache.store_result("key", {"q": [1.0]})
        cache.claim_lease("shard", "a", ttl=30.0)
        stats = cache.stats()
        assert stats["salts"]["s"]["results"] == 1
        assert stats["salts"]["s"]["leases"] == 1
        assert cache.clear() == 2
        assert cache.stats()["salts"] == {}


class TestDistribOverObjectStore:
    def test_worker_fleet_merges_bit_identically(self, obj_root):
        plan = ExperimentPlan.sweep("x", XS)
        quantities = {"double": _double, "square": _square}
        serial = Executor(workers=0).run(plan, quantities)
        job = submit(plan, quantities, root=obj_root, shard_size=2)
        assert Worker(root=obj_root).run_once() == len(job.shards)
        values, metas = merge_job(job)
        assert values == serial.values
        assert len(metas) == len(job.shards)

    def test_coordinator_wait_merges_and_feeds_the_cache(self, obj_root):
        plan = ExperimentPlan.sweep("x", XS)
        quantities = {"double": _double}
        job = submit(plan, quantities, root=obj_root, shard_size=2)
        values, _ = wait_for_job(job, timeout_s=60.0)
        serial = Executor(workers=0).run(plan, quantities)
        assert values == serial.values
        replay = Executor(
            persistent=ResultCache(root=obj_root, mode="ro")).run(
            plan, quantities)
        assert replay.provenance.executor == "persistent-cache"
        assert replay.values == serial.values
