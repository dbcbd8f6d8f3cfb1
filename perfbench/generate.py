"""Seeded input generators: everything the program receives comes from here.

Each workload's inputs are a pure function of ``(workload, seed, rep)``:
rep ``r`` of a run with seed ``s`` draws from its own stream, so the
repetitions of one run cover different inputs while the whole run stays
reproducible.  The generators emit plain JSON-able data (voltages, a
campaign spec as a dict, an arrival schedule); the workload code turns it
into program objects.  No ``repro`` import: the orchestrator generates and
digests inputs without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

TECHNOLOGIES = ("cmos90", "cmos65", "cmos180")

#: Sampled-voltage range of the sensor workload: above every bundled
#: technology's functional minimum (0.13-0.20 V), and low enough that a
#: run reaches 100 conversions in well under half a minute (a 30 pF
#: conversion costs 40-70 us per pulse, and cmos65 counts about 9k
#: pulses at 0.42 V).
SENSOR_VOLTS = (0.22, 0.42)
#: Conversions per technology in one sensor repetition.  Latency is
#: proportional to the pulse count, and these shares put the median
#: inside the cmos90 curve and the p90 inside the cmos65 one, away from
#: the gaps between technologies where a quantile would jump.
SENSOR_CONVERSIONS = {"cmos90": 7, "cmos65": 4, "cmos180": 6}

#: The service's open-loop rate, in plans per second, summed over tenants.
SERVICE_RATE = 5.0
#: One request in this many is a dashboard-style ``GET /v1/status``.
STATUS_EVERY = 10
#: Spacing of the requests inside one burst of the bursty tenant.
BURST_SPACING_S = 0.02

#: Non-sensor runs of the smoke-trimmed ``paper_space`` campaign, by label.
SMOKE_RUNS = (
    "gate_metrics[cmos90]", "gate_metrics[cmos65]", "gate_metrics[cmos180]",
    "gate_thermal[cmos90]", "sram_latency[cmos90]", "sram_latency[cmos65]",
    "sram_handshake[cmos90]", "dualrail_counter[cmos90]",
    "dualrail_counter[cmos65]", "dualrail_counter[cmos180]",
    "harvester_power[cmos90]", "queueing_point[cmos90]", "mc_gate[cmos90]",
    "mc_gate[cmos65]", "mc_gate[cmos180]", "mc_sram_write[cmos90]",
)
#: Distinct smoke runs one service repetition draws its references from,
#: so that most submissions repeat a plan the cache already holds.
SERVICE_SMOKE_RUNS = 4


def rng_for(workload: str, seed: int, rep: int) -> random.Random:
    """The stream of one repetition (string seeds hash stably)."""
    return random.Random(f"{workload}:{seed}:{rep}")


def digest(value) -> str:
    """SHA-256 of the canonical JSON form of *value*."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()


def _axis(name: str, start: float, stop: float, count: int) -> Dict:
    return {"name": name, "start": round(start, 4), "stop": round(stop, 4),
            "count": count}


# ---------------------------------------------------------------------------
# sensor_sim


def sensor_inputs(rng: random.Random) -> Dict:
    """Fig. 11 conversions: stratified voltages per technology, shuffled.

    Each technology's range is cut into equal strata and one voltage is
    drawn from the middle half of each, so every repetition covers the
    whole transfer curve (its cost barely moves with the seed) and
    neighbouring voltages stay far enough apart for the count to rise
    strictly.
    """
    low, high = SENSOR_VOLTS
    conversions = []
    for technology, count in SENSOR_CONVERSIONS.items():
        step = (high - low) / count
        for index in range(count):
            voltage = low + step * (index + 0.25 + 0.5 * rng.random())
            conversions.append({"technology": technology,
                                "voltage": round(voltage, 4)})
    rng.shuffle(conversions)
    return {"capacitance_pf": 30.0, "counter_width": 16,
            "conversions": conversions}


# ---------------------------------------------------------------------------
# campaign_fs / fleet_obj


def campaign_inputs(rng: random.Random) -> Dict:
    """A campaign over the nine non-sensor registry point functions.

    The cross-product sizes are fixed (68 planned runs, 5,181 points) so
    the cost of a repetition barely moves with the seed; ranges, gate
    and harvester picks, queueing rates and Monte-Carlo seeds are drawn.
    """
    u = rng.uniform
    return {"name": "perfbench_campaign", "seed": rng.randrange(1 << 30),
            "scenarios": [
        {"point": "gate_metrics", "technologies": list(TECHNOLOGIES),
         "axes": [_axis("vdd", u(0.22, 0.3), u(1.0, 1.2), 96)],
         "matrix": {"gate": ["INVERTER", "NAND2", "NOR2", "C_ELEMENT"]}},
        {"point": "gate_thermal", "technologies": [rng.choice(TECHNOLOGIES)],
         "axes": [_axis("vdd", u(0.22, 0.3), u(0.9, 1.1), 24),
                  _axis("temperature_k", u(240, 260), u(380, 400), 16)]},
        {"point": "sram_latency", "technologies": ["cmos90", "cmos65"],
         "axes": [_axis("vdd", u(0.25, 0.3), u(1.0, 1.1), 64)],
         "matrix": {"rows": [16, 64], "columns": [8, 16]}},
        {"point": "sram_handshake", "technologies": ["cmos90"],
         "axes": [_axis("vdd", u(0.3, 0.35), u(0.95, 1.0), 15)],
         "params": {"rows": 16, "columns": 8,
                    "address": rng.randrange(16),
                    "value": rng.randrange(256)}},
        {"point": "dualrail_counter", "technologies": list(TECHNOLOGIES),
         "axes": [_axis("vdd", u(0.5, 0.55), u(1.1, 1.2), 15)],
         "matrix": {"steps": [2, 4]}},
        {"point": "harvester_power", "technologies": ["cmos90"],
         "axes": [_axis("time_s", u(0.1, 0.5), u(25.0, 30.0), 75)],
         "matrix": {"kind": ["vibration", "solar", "thermal",
                             "intermittent"],
                    "seed": [rng.randrange(1 << 16) for _ in range(3)]}},
        {"point": "queueing_point", "technologies": ["cmos90"],
         "axes": [_axis("servers", 1.0, 24.0, 24)],
         "matrix": {"arrival_rate": [round(u(200, 2000), 1)
                                     for _ in range(3)],
                    "service_rate": [round(u(80, 300), 1)
                                     for _ in range(2)]}},
        {"point": "mc_gate", "technologies": list(TECHNOLOGIES),
         "samples": 96, "seed_batches": 2,
         "matrix": {"vdd": [round(u(0.3, 1.0), 3) for _ in range(3)]}},
        {"point": "mc_sram_write", "technologies": ["cmos90"],
         "samples": 64, "seed_batches": 2,
         "matrix": {"vdd": [round(u(0.35, 1.0), 3) for _ in range(2)]}},
    ]}


def fleet_inputs(rng: random.Random) -> Dict:
    """A small campaign whose plans span two to three 4-point shards.

    Every shard costs several object-store round trips, so the campaign
    is small (26 planned runs, 232 points); multi-shard plans let the
    fleet worker and the coordinator contend for claims.
    """
    u = rng.uniform
    gates = rng.sample(["INVERTER", "NAND2", "NOR2", "C_ELEMENT"], 2)
    return {"name": "perfbench_fleet", "seed": rng.randrange(1 << 30),
            "scenarios": [
        {"point": "gate_metrics", "technologies": list(TECHNOLOGIES),
         "axes": [_axis("vdd", u(0.25, 0.35), u(0.9, 1.2), 12)],
         "matrix": {"gate": gates}},
        {"point": "sram_latency", "technologies": ["cmos90", "cmos65"],
         "axes": [_axis("vdd", u(0.25, 0.35), u(0.9, 1.1), 8)],
         "matrix": {"rows": [16, 64]}},
        {"point": "queueing_point", "technologies": ["cmos90"],
         "axes": [_axis("servers", 2.0, 16.0, 8)],
         "matrix": {"arrival_rate": [round(u(200, 1200), 1)
                                     for _ in range(2)],
                    "service_rate": [round(u(80, 300), 1)
                                     for _ in range(2)]}},
        {"point": "harvester_power", "technologies": ["cmos90"],
         "axes": [_axis("time_s", u(0.1, 0.5), u(10.0, 30.0), 8)],
         "matrix": {"kind": ["vibration", "solar", "thermal",
                             "intermittent"]},
         "params": {"seed": rng.randrange(1 << 16)}},
        {"point": "mc_gate", "technologies": list(TECHNOLOGIES),
         "samples": 8,
         "matrix": {"vdd": [round(u(0.3, 1.0), 3) for _ in range(2)]}},
        {"point": "mc_sram_write", "technologies": ["cmos90"], "samples": 8,
         "matrix": {"vdd": [round(u(0.35, 1.0), 3) for _ in range(2)]}},
    ]}


# ---------------------------------------------------------------------------
# service_obj


@dataclass(frozen=True)
class Tenant:
    """One tenant of the service: its requests per window and their apps.

    ``apps`` lists the app of every request the tenant sends in one
    window, so each window offers the same mix; ``burst`` requests
    arrive together, ``BURST_SPACING_S`` apart.
    """

    name: str
    apps: Tuple[str, ...]
    burst: int = 1


TENANTS = (
    Tenant("alice", ("demo",) * 8 + ("campaign",) * 6),
    Tenant("bob", ("steady",) * 5 + ("campaign",) * 5 + ("smoke_mc",) * 2),
    Tenant("carol", ("demo",) * 2 + ("smoke_mc",) * 2 + ("campaign",) * 4,
           burst=4),
)

APPS = {
    "demo": {"plan": "repro.analysis.serve:demo_plan"},
    "steady": {"plan": "repro.analysis.serve:steady_plan"},
    "smoke_mc": {"plan": "repro.analysis.serve:smoke_mc_plan"},
    "campaign": {"campaign": "paper_space", "smoke": True},
}


class ServiceLoadGenerator:
    """Seeded open-loop traffic over tenants and apps.

    In the ``WorkloadGenerator(users, apps, seed)`` idiom: the tenants
    (users) own the arrivals, the apps are the submission bodies they
    send, and the seed fixes every draw.  Arrivals are Poisson
    conditioned on each tenant's count per window — uniform times over
    the window — so every seed offers the same rate and the same mix,
    and only the timing, the order and the campaign runs differ.
    """

    def __init__(self, tenants: Sequence[Tenant], apps: Dict[str, Dict],
                 rng: random.Random) -> None:
        self.tenants = tuple(tenants)
        self.apps = dict(apps)
        self.rng = rng

    def schedule(self) -> List[Dict]:
        """One window of ``{"due_s", "body"}`` entries in due order; a
        dashboard status poll has ``body`` ``None``."""
        runs = self.rng.sample(SMOKE_RUNS, SERVICE_SMOKE_RUNS)
        plans = sum(len(tenant.apps) for tenant in self.tenants)
        window = plans / SERVICE_RATE
        entries = []
        for tenant in self.tenants:
            apps = list(tenant.apps)
            self.rng.shuffle(apps)
            for first in range(0, len(apps), tenant.burst):
                due = self.rng.uniform(0.0, window)
                for offset, app in enumerate(apps[first:first
                                                  + tenant.burst]):
                    body = dict(self.apps[app], tenant=tenant.name)
                    if app == "campaign":
                        body["runs"] = [self.rng.choice(runs)]
                    entries.append({
                        "due_s": round(due + BURST_SPACING_S * offset, 4),
                        "body": body})
        entries += [{"due_s": round(self.rng.uniform(0.0, window), 4),
                     "body": None}
                    for _ in range(plans // (STATUS_EVERY - 1))]
        return sorted(entries, key=lambda entry: entry["due_s"])


def service_inputs(rng: random.Random) -> Dict:
    """One repetition's arrival schedule."""
    return {"schedule": ServiceLoadGenerator(TENANTS, APPS, rng).schedule()}


GENERATORS = {
    "sensor_sim": sensor_inputs,
    "campaign_fs": campaign_inputs,
    "service_obj": service_inputs,
    "fleet_obj": fleet_inputs,
}


def rep_inputs(workload: str, seed: int, rep: int) -> Dict:
    """The inputs of repetition *rep* of a run with *seed*."""
    return GENERATORS[workload](rng_for(workload, seed, rep))
