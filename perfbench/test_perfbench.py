"""Tests of the benchmark's own helpers: percentiles, self times, tracing
and the seeded generators.  No program code runs here."""

import statistics
import threading

import pytest

from generate import (APPS, GENERATORS, SENSOR_CONVERSIONS, SENSOR_VOLTS,
                      SERVICE_RATE, TENANTS, digest, rep_inputs)
from tracing import (Tracer, highest_percentile, percentile, self_times,
                     self_time_by_name)

APPS_BY_BODY = {body.get("plan", "campaign"): app
                for app, body in APPS.items()}


@pytest.mark.parametrize("count, expected", [
    (9, 0), (10, 0), (11, 9), (99, 89), (100, 90), (109, 90), (110, 90),
    (200, 95), (1000, 99)])
def test_highest_percentile_leaves_ten_samples_beyond(count, expected):
    assert highest_percentile(count) == expected
    if expected:
        assert count * (1 - expected / 100) >= 10 - 1e-9
        assert count * (1 - (expected + 1) / 100) < 10


def test_percentile_matches_inclusive_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert (percentile(values, 25), percentile(values, 50),
            percentile(values, 75)) == pytest.approx((q1, q2, q3))


def span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "request": None}


def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    spans = [span(1, "root", 0.0, 10.0),
             span(2, "a", 1.0, 3.0, parent=1),
             span(3, "a", 2.0, 5.0, parent=1),     # overlaps span 2
             span(4, "b", 8.0, 12.0, parent=1),    # runs past the parent
             span(5, "c", 2.5, 3.5, parent=3)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert (own[2], own[4]) == pytest.approx((2.0, 4.0))
    assert self_time_by_name(spans)["a"] == pytest.approx(2.0 + 2.0)


def test_tracer_links_parents_requests_and_other_threads():
    tracer = Tracer()
    with tracer.span("plan", request="p1"):
        with tracer.span("submit"):
            pass
        thread_spans = []

        def on_thread():
            with tracer.span("store.get") as record:
                thread_spans.append(record)

        worker = threading.Thread(target=on_thread)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    tracer.count("calls")
    tracer.count("calls", 2)
    by_name = {record["name"]: record for record in tracer.spans}
    plan = by_name["plan"]
    assert by_name["submit"]["parent"] == plan["id"]
    assert thread_spans[0]["parent"] == plan["id"]
    assert {record["request"] for record in tracer.spans} == {"p1"}
    assert tracer.counts == {"calls": 3}


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("plan"):
        tracer.count("calls")
    assert tracer.spans == [] and tracer.counts == {}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generators_are_pure_functions_of_seed_and_rep(workload):
    first = digest(rep_inputs(workload, 7, 0))
    assert digest(rep_inputs(workload, 7, 0)) == first
    assert digest(rep_inputs(workload, 8, 0)) != first
    assert digest(rep_inputs(workload, 7, 1)) != first


def test_sensor_voltages_are_stratified_and_spaced():
    inputs = rep_inputs("sensor_sim", 3, 0)
    low, high = SENSOR_VOLTS
    for technology, count in SENSOR_CONVERSIONS.items():
        volts = sorted(c["voltage"] for c in inputs["conversions"]
                       if c["technology"] == technology)
        assert len(volts) == count and low < volts[0] and volts[-1] < high
        step = (high - low) / count
        assert all(b - a >= step / 2 - 1e-3 for a, b in zip(volts, volts[1:]))


@pytest.mark.parametrize("seed", [5, 6])
def test_service_windows_offer_the_same_mix_at_the_same_rate(seed):
    schedule = rep_inputs("service_obj", seed, 2)["schedule"]
    window = sum(len(t.apps) for t in TENANTS) / SERVICE_RATE
    assert [e["due_s"] for e in schedule] == sorted(e["due_s"]
                                                    for e in schedule)
    assert 0 <= schedule[0]["due_s"] and schedule[-1]["due_s"] < window + 1
    assert any(entry["body"] is None for entry in schedule)
    for tenant in TENANTS:
        sent = [entry["body"] for entry in schedule
                if entry["body"] and entry["body"]["tenant"] == tenant.name]
        assert sorted(APPS_BY_BODY[body.get("plan", "campaign")]
                      for body in sent) == sorted(tenant.apps)
