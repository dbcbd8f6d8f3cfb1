"""Differential tests of the counter's scalar oscillator loop.

:class:`EventCounter` below is the oscillator-mode wiring that
:class:`~repro.selftimed.counter.SelfTimedCounter` used before it became
one scalar loop: a chain of real
:class:`~repro.selftimed.toggle.ToggleFlipFlop` elements on a pulse
:class:`~repro.sim.signals.Signal`, with every edge a kernel event.  It is
kept here, test-only, as the oracle: on every drawn case the loop must
reproduce it to the last bit (``float.hex`` of every output), including
how it interleaves with the rest of the kernel.
"""

import math
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError, SupplyCollapseError
from repro.models.gate import GateModel, GateType
from repro.models.technology import get_technology
from repro.power.battery import Battery
from repro.power.capacitor import Capacitor
from repro.power.supply import ACSupply, ConstantSupply
from repro.selftimed.counter import SelfTimedCounter
from repro.selftimed.gates import CircuitElement
from repro.selftimed.toggle import ToggleFlipFlop
from repro.sim.probes import EnergyProbe
from repro.sim.signals import Signal, vector_value
from repro.sim.simulator import Simulator


class EventCounter(CircuitElement):
    """The event-graph oscillator counter (the oracle)."""

    def __init__(self, sim, supply, technology, name="counter", width=8,
                 oscillator_ring_stages=3, internal_transitions_per_toggle=3,
                 max_pulses=1_000_000, energy_probe=None):
        super().__init__(sim, supply, technology, name, energy_probe)
        self.oscillator_ring_stages = oscillator_ring_stages
        self.max_pulses = max_pulses
        self.pulse_input = Signal(f"{name}.r0", record=False)
        self._osc_model = GateModel(technology=technology,
                                    gate_type=GateType.INVERTER)
        self.toggles = []
        previous = self.pulse_input
        for i in range(width):
            toggle = ToggleFlipFlop(
                sim, supply, technology, f"{name}.t{i}",
                input_signal=previous,
                internal_transitions=internal_transitions_per_toggle,
                energy_probe=energy_probe, on_stall=self._on_toggle_stall,
                record_output=i < 4, trigger_on_rising=(i == 0))
            self.toggles.append(toggle)
            previous = toggle.output
        self.pulses_generated = 0
        self.running = False
        self.finished = False
        self.on_finish = None
        self._osc_edges = (partial(self._osc_edge, False),
                           partial(self._osc_edge, True))
        self._osc_label = f"{name}.osc"

    # The loop's read-out, computed from the element graph.
    def value(self):
        return vector_value([toggle.output for toggle in self.toggles])

    def total_toggle_transitions(self):
        return sum(t.transition_count for t in self.toggles)

    def energy_consumed_total(self):
        return self.energy_consumed + sum(t.energy_consumed
                                          for t in self.toggles)

    @property
    def histories(self):
        return [t.output.history for t in self.toggles]

    @property
    def toggle_counts(self):
        return [t.toggle_count for t in self.toggles]

    @property
    def stage_energy(self):
        return [t.energy_consumed for t in self.toggles]

    @property
    def stage_stalls(self):
        return [t.stall_count for t in self.toggles]

    # The oscillator, one kernel event per edge.
    def start_oscillator(self):
        if self.running:
            return
        self.running = True
        self.finished = False
        self._schedule_half_period(next_value=True)

    def stop_oscillator(self):
        self.running = False

    def _half_period(self, vdd):
        ring = self.oscillator_ring_stages * self._osc_model.delay(vdd)
        toggle_service = (self.toggles[0].internal_transitions
                          * self.toggles[0].model.delay(vdd))
        return max(ring, toggle_service)

    def _schedule_half_period(self, next_value):
        vdd = self.rail_voltage()
        if not self._can_continue(vdd):
            return
        self.sim.schedule(self._half_period(vdd),
                          self._osc_edges[next_value], label=self._osc_label)

    def _osc_edge(self, value):
        if not self.running:
            return
        vdd = self.rail_voltage()
        if not self._can_continue(vdd):
            return
        try:
            self.bill_energy(self._osc_model.transition_energy(vdd),
                             label=self._osc_label)
        except SupplyCollapseError:
            self._finish()
            return
        self.transition_count += 1
        self.pulse_input.set(value, self.sim.now)
        if value:
            self.pulses_generated += 1
            if self.pulses_generated >= self.max_pulses:
                self._finish()
                return
        self._schedule_half_period(next_value=not value)

    def _can_continue(self, vdd):
        if not self.running:
            return False
        if not self.is_functional(vdd):
            self._finish()
            return False
        return True

    def _on_toggle_stall(self, toggle):
        self._finish()

    def _finish(self):
        if self.finished:
            return
        self.running = False
        self.finished = True
        if self.on_finish is not None:
            self.on_finish(self)


# ---------------------------------------------------------------------------


def _hex(x):
    return float(x).hex()


def observe(sim, counter, supply, probe):
    """Every output of a run, floats as ``float.hex``."""
    return {
        "now": _hex(sim.now),
        "fired": sim.fired_events,
        "pulses": counter.pulses_generated,
        "value": counter.value(),
        "finished": counter.finished,
        "transitions": counter.transition_count,
        "toggle_transitions": counter.total_toggle_transitions(),
        "energy": _hex(counter.energy_consumed_total()),
        "osc_energy": _hex(counter.energy_consumed),
        "stage_energy": [_hex(e) for e in counter.stage_energy],
        "toggle_counts": list(counter.toggle_counts),
        "stalls": list(counter.stage_stalls),
        "histories": [[(_hex(t), v) for t, v in history]
                      for history in counter.histories[:4]],
        "supply_v": _hex(supply.voltage(sim.now)),
        "charge": _hex(supply.charge_delivered),
        "delivered": _hex(supply.energy_delivered),
        "samples": [(s.label, _hex(s.time), _hex(s.energy))
                    for s in probe.samples],
        "by_label": {k: _hex(v) for k, v in probe.by_label().items()},
    }


TECHNOLOGIES = ("cmos90", "cmos65", "cmos180")


@st.composite
def cases(draw):
    """A technology, a counter shape and a supply (kind, arguments)."""
    tech = get_technology(draw(st.sampled_from(TECHNOLOGIES)))
    voltage = draw(st.floats(0.1, 1.1))
    kind = draw(st.sampled_from(("constant", "battery", "ac", "leaky_cap")))
    if kind == "constant":
        args = (voltage,)
    elif kind == "battery":
        args = (voltage, draw(st.floats(1e-14, 2e-12)),
                draw(st.floats(0.0, 5e3)))
    elif kind == "ac":
        args = (max(voltage, 0.3), draw(st.floats(0.0, 0.3)),
                draw(st.floats(1e6, 5e7)), draw(st.floats(0.0, 6.0)))
    else:
        args = (draw(st.floats(0.2e-12, 3e-12)), max(voltage, 0.2),
                draw(st.floats(1e-6, 1e-2)),
                draw(st.sampled_from((0.0, tech.vdd_min, 0.3))))
    return {
        "tech": tech,
        "supply": (kind, args),
        "width": draw(st.integers(1, 16)),
        "max_pulses": draw(st.integers(1, 600)),
        "ring": draw(st.integers(1, 4)),
        "internal": draw(st.integers(1, 4)),
    }


def make_supply(kind, args):
    if kind == "constant":
        return ConstantSupply(*args)
    if kind == "battery":
        voltage, capacity, resistance = args
        return Battery(nominal_voltage=voltage,
                       capacity_joules=capacity,
                       internal_resistance=resistance)
    if kind == "ac":
        offset, amplitude, frequency, phase = args
        return ACSupply(offset=offset, amplitude=amplitude,
                        frequency=frequency, phase=phase)
    capacitance, voltage, tau, floor = args
    return Capacitor(capacitance=capacitance, initial_voltage=voltage,
                     leakage_resistance=tau / capacitance,
                     min_operating_voltage=floor)


def build(cls, case, sim=None, name="ctd.counter"):
    """A fresh simulator, supply, probe and *cls* counter for *case*."""
    sim = Simulator() if sim is None else sim
    supply = make_supply(*case["supply"])
    probe = EnergyProbe()
    counter = cls(sim, supply, case["tech"], name=name, width=case["width"],
                  oscillator_ring_stages=case["ring"],
                  internal_transitions_per_toggle=case["internal"],
                  max_pulses=case["max_pulses"], energy_probe=probe)
    return sim, supply, probe, counter


def run_case(cls, case):
    sim, supply, probe, counter = build(cls, case)
    counter.start_oscillator()
    sim.run()
    return observe(sim, counter, supply, probe)


CMOS90_CAP = {"tech": get_technology("cmos90"),
              "supply": ("leaky_cap", (2e-12, 0.7, 1e-3, 0.0)),
              "width": 8, "max_pulses": 10_000, "ring": 3, "internal": 3}


class TestLoopMatchesEventGraph:
    @settings(max_examples=80, deadline=None)
    @given(cases())
    # Both sides of the ring bound: with 3 ring stages and 3 transitions
    # per toggle the toggle sets the half period and the loop skips the
    # ring delay; with 4 and 1 the ring sets it.
    @example(dict(CMOS90_CAP, width=16))
    @example(dict(CMOS90_CAP, width=16, ring=4, internal=1))
    def test_drawn_cases_are_bit_identical(self, case):
        assert run_case(SelfTimedCounter, case) == run_case(EventCounter,
                                                            case)

    @pytest.mark.parametrize("ring,internal,bounded", [
        (3, 3, True), (1, 4, True), (4, 1, False), (4, 3, False)])
    def test_ring_bound_is_taken_only_where_it_holds(self, ring, internal,
                                                     bounded):
        case = dict(CMOS90_CAP, ring=ring, internal=internal)
        counter = build(SelfTimedCounter, case)[3]
        assert counter._ring_bounded is bounded
        for vdd in (0.15, 0.2, 0.35, 0.7, 1.0, 1.2):
            ring_delay = ring * counter._osc_model.delay(vdd)
            service = internal * counter._toggle_model.delay(vdd)
            assert counter._half_period(vdd) == max(ring_delay, service)
            assert (ring_delay <= service) or not bounded

    @pytest.mark.parametrize("name", TECHNOLOGIES)
    @pytest.mark.parametrize("voltage", (0.12, 0.25, 0.6, 1.0))
    def test_capacitor_drains_bit_identically(self, name, voltage):
        tech = get_technology(name)
        case = dict(CMOS90_CAP, tech=tech, width=16,
                    supply=("leaky_cap", (1e-12, voltage, 1e-4, tech.vdd_min)))
        observed = run_case(SelfTimedCounter, case)
        assert observed == run_case(EventCounter, case)

    @pytest.mark.parametrize("name,capacitance,voltage,stage", [
        ("cmos180", 5e-12, 0.3, 3),  # the last pulse stalls mid-ripple
        ("cmos65", 1e-12, 0.4, 0),  # stage 0 stalls on the last pulse
    ])
    def test_stalls_are_reproduced(self, name, capacitance, voltage, stage):
        """A stall ends the conversion with the count and value apart;
        a stage-0 stall still counts the pulse that triggered it."""
        tech = get_technology(name)
        case = dict(CMOS90_CAP, tech=tech, width=16, supply=(
            "leaky_cap", (capacitance, voltage, 1.0, tech.vdd_min)))
        observed = run_case(SelfTimedCounter, case)
        assert observed["stalls"][stage] == 1
        assert observed["pulses"] > observed["value"]
        assert observed == run_case(EventCounter, case)


class TestKernelContract:
    """How the loop shares the kernel: resumption, interleaving, limits."""

    def test_split_run_equals_uninterrupted_run(self):
        whole = run_case(SelfTimedCounter, CMOS90_CAP)
        end = float.fromhex(whole["now"])
        for fraction in (0.013, 0.5, 0.97):
            sim, supply, probe, counter = build(SelfTimedCounter, CMOS90_CAP)
            counter.start_oscillator()
            assert sim.run(until=end * fraction) == end * fraction
            assert 0 < counter.pulses_generated < whole["pulses"]
            sim.run()
            assert observe(sim, counter, supply, probe) == whole

    def test_split_exactly_at_an_edge_fires_that_edge(self):
        whole = run_case(SelfTimedCounter, CMOS90_CAP)
        edge = float.fromhex(whole["histories"][0][10][0])
        sim, supply, probe, counter = build(SelfTimedCounter, CMOS90_CAP)
        counter.start_oscillator()
        sim.run(until=edge)
        assert counter.histories[0][-1] == (edge, whole["histories"][0][10][1])
        sim.run()
        assert observe(sim, counter, supply, probe) == whole

    def test_step_takes_one_private_step(self):
        sim, _, _, loop = build(SelfTimedCounter, CMOS90_CAP)
        oracle_sim, _, _, oracle = build(EventCounter, CMOS90_CAP)
        for counter in (loop, oracle):
            counter.start_oscillator()
        for _ in range(25):
            sim.step()
            oracle_sim.step()
            assert sim.now == oracle_sim.now
            assert sim.fired_events == oracle_sim.fired_events
            assert loop.value() == oracle.value()

    @pytest.mark.parametrize("stop", (False, True))
    def test_foreign_callbacks_interleave_in_time_order(self, stop):
        """A callback between edges sees exactly the oracle's state.

        With *stop* it also stops the oscillator: toggles in flight still
        complete, as they do in the event graph.
        """
        edges = run_case(EventCounter, CMOS90_CAP)["histories"][0]
        times = [(float.fromhex(a[0]) + float.fromhex(b[0])) / 2.0
                 for a, b in zip(edges[5::7], edges[6::7])]
        results = []
        for cls in (SelfTimedCounter, EventCounter):
            sim, supply, probe, counter = build(cls, CMOS90_CAP)
            seen = []

            def look(sim=sim, supply=supply, counter=counter, probe=probe,
                     seen=seen):
                seen.append((sim.now.hex(), supply.voltage(sim.now).hex(),
                             counter.pulses_generated, counter.value(),
                             len(probe.samples)))
                if stop and len(seen) == 3:
                    counter.stop_oscillator()

            for time in times:
                sim.schedule_at(time, look, label="foreign")
            counter.start_oscillator()
            sim.run()
            results.append((seen, observe(sim, counter, supply, probe)))
        loop, oracle = results
        assert len(loop[0]) == len(times)
        assert [s[0] for s in loop[0]] == [t.hex() for t in times]
        assert loop == oracle

    def test_exact_time_tie_goes_to_the_other_element(self):
        """An event at exactly an edge's time fires before that edge, even
        when it is scheduled after the counter posted its event there."""
        whole = run_case(SelfTimedCounter, CMOS90_CAP)
        edge = float.fromhex(whole["histories"][0][10][0])
        sim, supply, probe, counter = build(SelfTimedCounter, CMOS90_CAP)
        seen = []

        def look():
            seen.append(counter.histories[0][-1])

        counter.start_oscillator()
        sim.schedule_at(math.nextafter(edge, 0.0),
                        lambda: sim.schedule_at(edge, look))
        sim.run()
        assert seen == [(float.fromhex(whole["histories"][0][9][0]),
                         whole["histories"][0][9][1])]
        assert observe(sim, counter, supply, probe) == dict(
            whole, fired=whole["fired"] + 2)

    def test_max_events_still_raises(self):
        results = []
        for cls in (SelfTimedCounter, EventCounter):
            sim = Simulator(max_events=57)
            _, supply, probe, counter = build(cls, CMOS90_CAP, sim=sim)
            counter.start_oscillator()
            with pytest.raises(SimulationError, match="max_events=57"):
                sim.run()
            results.append((sim.fired_events, sim.now.hex(),
                            counter.pulses_generated, counter.value()))
        assert results[0] == results[1]

    def test_stop_from_on_finish_stops_the_run(self):
        case = dict(CMOS90_CAP, max_pulses=37)
        results = []
        for cls in (SelfTimedCounter, EventCounter):
            sim, supply, probe, counter = build(cls, case)
            later = []
            sim.schedule(1.0, lambda: later.append(sim.now), label="later")
            counter.on_finish = lambda c, sim=sim: sim.stop()
            counter.start_oscillator()
            sim.run()
            assert sim.stopped and counter.finished and later == []
            stopped = observe(sim, counter, supply, probe)
            sim.run()  # resumes: the in-flight toggles, then "later"
            assert later == [1.0]
            results.append((stopped, observe(sim, counter, supply, probe)))
        assert results[0] == results[1]
        assert results[0][0]["pulses"] == 37

    def test_one_kernel_event_per_run(self):
        seen = []
        sim = Simulator(trace=seen.append)
        _, _, _, counter = build(SelfTimedCounter, CMOS90_CAP, sim=sim)
        counter.start_oscillator()
        sim.run()
        assert [event.label for event in seen] == ["ctd.counter"]
        assert sim.fired_events == run_case(EventCounter, CMOS90_CAP)["fired"]
