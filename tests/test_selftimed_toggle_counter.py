"""Tests for the toggle flip-flop and both self-timed counters."""

import hashlib

import pytest

from repro.models.technology import get_technology
from repro.power.capacitor import Capacitor, SamplingCapacitor
from repro.power.supply import ACSupply, ConstantSupply
from repro.sensors.charge_to_digital import ChargeToDigitalConverter
from repro.selftimed.counter import DualRailCounter, SelfTimedCounter
from repro.selftimed.toggle import ToggleFlipFlop
from repro.sim.probes import EnergyProbe
from repro.sim.signals import Signal
from repro.sim.simulator import Simulator


class TestToggleFlipFlop:
    def test_output_toggles_on_rising_edges(self, tech):
        sim, supply = Simulator(), ConstantSupply(1.0)
        pulse = Signal("p")
        toggle = ToggleFlipFlop(sim, supply, tech, "t0", input_signal=pulse)
        for i in range(3):
            sim.schedule_signal(pulse, True, 1e-9)
            sim.schedule_signal(pulse, False, 2e-9)
            sim.run()
        assert toggle.toggle_count == 3
        assert toggle.output.value is True  # odd number of toggles

    def test_falling_edge_trigger(self, tech):
        sim, supply = Simulator(), ConstantSupply(1.0)
        pulse = Signal("p")
        toggle = ToggleFlipFlop(sim, supply, tech, "t0", input_signal=pulse,
                                trigger_on_rising=False)
        sim.schedule_signal(pulse, True, 1e-9)
        sim.run()
        assert toggle.toggle_count == 0
        sim.schedule_signal(pulse, False, 1e-9)
        sim.run()
        assert toggle.toggle_count == 1

    def test_each_toggle_draws_charge(self, tech):
        sim, supply = Simulator(), ConstantSupply(0.5)
        pulse = Signal("p")
        toggle = ToggleFlipFlop(sim, supply, tech, "t0", input_signal=pulse)
        sim.schedule_signal(pulse, True, 1e-9)
        sim.run()
        expected_charge = toggle.charge_per_toggle(0.5) / 2.0
        assert supply.charge_delivered == pytest.approx(expected_charge, rel=1e-6)

    def test_stall_callback_when_supply_dead(self, tech):
        sim = Simulator()
        dead = ConstantSupply(0.05)   # below vdd_min
        pulse = Signal("p")
        stalled = []
        toggle = ToggleFlipFlop(sim, dead, tech, "t0", input_signal=pulse,
                                on_stall=stalled.append)
        sim.schedule_signal(pulse, True, 1e-9)
        sim.run()
        assert stalled == [toggle]
        assert toggle.toggle_count == 0


class TestSelfTimedCounter:
    def test_ripple_count_matches_pulse_count(self, tech):
        sim, supply = Simulator(), ConstantSupply(1.0)
        counter = SelfTimedCounter(sim, supply, tech, width=6, max_pulses=20)
        counter.start_oscillator()
        sim.run()
        assert counter.pulses_generated == 20
        assert counter.value() == 20 % 64
        assert counter.finished

    def test_counter_on_capacitor_stops_when_charge_runs_out(self, tech):
        sim = Simulator()
        cap = Capacitor(capacitance=1e-12, initial_voltage=0.8,
                        min_operating_voltage=tech.vdd_min)
        counter = SelfTimedCounter(sim, cap, tech, width=16,
                                   max_pulses=1_000_000)
        counter.start_oscillator()
        sim.run()
        assert counter.finished
        assert 0 < counter.pulses_generated < 1_000_000
        # The supply really did collapse.
        assert cap.voltage(sim.now) <= 2 * tech.vdd_min

    def test_larger_capacitor_counts_more(self, tech):
        counts = {}
        for cap_value in (1e-12, 4e-12):
            sim = Simulator()
            cap = Capacitor(capacitance=cap_value, initial_voltage=0.8,
                            min_operating_voltage=tech.vdd_min)
            counter = SelfTimedCounter(sim, cap, tech, width=16)
            counter.start_oscillator()
            sim.run()
            counts[cap_value] = counter.pulses_generated
        assert counts[4e-12] > 2 * counts[1e-12]

    def test_energy_accounting_matches_supply(self, tech):
        sim, supply = Simulator(), ConstantSupply(1.0)
        counter = SelfTimedCounter(sim, supply, tech, width=4, max_pulses=10)
        counter.start_oscillator()
        sim.run()
        assert counter.energy_consumed_total() == pytest.approx(
            supply.energy_delivered, rel=1e-9)

    def test_stop_oscillator_freezes_count(self, tech):
        sim, supply = Simulator(), ConstantSupply(1.0)
        counter = SelfTimedCounter(sim, supply, tech, width=8, max_pulses=1000)
        counter.start_oscillator()
        sim.run(until=counter._half_period(1.0) * 21)
        counter.stop_oscillator()
        frozen = counter.pulses_generated
        sim.run()
        assert counter.pulses_generated == frozen


def _digest(lines):
    """SHA-256 of *lines* joined by newlines (a compact exact pin)."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestOscillatorPins:
    """Exact pins on the oscillator-mode counter, recorded on the
    ToggleFlipFlop/Signal/Event implementation it replaced.

    Every float is pinned through ``float.hex``: the energy probe's sample
    stream of one conversion, and the recorded low-stage Q histories of a
    conversion whose last pulse stalls mid-ripple (so the pulse count and
    the counter value differ).
    """

    def test_energy_probe_stream_is_pinned(self):
        converter = ChargeToDigitalConverter(
            technology=get_technology("cmos180"), sampling_capacitance=10e-12)
        probe = EnergyProbe()
        result = converter.convert(ConstantSupply(0.3), energy_probe=probe)
        assert (result.count, result.counter_value) == (193, 185)
        assert len(probe.samples) == 764
        assert _digest(f"{s.label} {s.time.hex()} {s.energy.hex()}"
                       for s in probe.samples) == (
            "6719dbec69e75ae02a93bf964e0938349425e473fe2c4beede083c330e125294")
        assert {k: v.hex() for k, v in probe.by_label().items()} == {
            "ctd.counter.osc": "0x1.a0fd7289ae70ap-46",
            "ctd.counter.t0": "0x1.0534720d2e34cp-43",
            "ctd.counter.t1": "0x1.035a2abce20cdp-44",
            "ctd.counter.t2": "0x1.01ed7f579b8fep-45",
            "ctd.counter.t3": "0x1.efdd96288a35dp-47",
            "ctd.counter.t4": "0x1.d8a21bf79d649p-48",
            "ctd.counter.t5": "0x1.aa5383154a276p-49",
            "ctd.counter.t6": "0x1.50db6ed9c9e11p-50",
            "ctd.counter.t7": "0x1.2227bd9e66a40p-51",
        }
        assert probe.total.hex() == "0x1.19d6563e544f9p-42"

    def test_stalled_ripple_histories_are_pinned(self, tech180):
        sim = Simulator()
        cap = SamplingCapacitor(capacitance=10e-12,
                                min_operating_voltage=tech180.vdd_min,
                                name="ctd.csample")
        cap.sample(ConstantSupply(0.3), 1e-6, time=0.0)
        counter = SelfTimedCounter(sim, cap, tech180, name="ctd.counter",
                                   width=16, max_pulses=(1 << 16) - 1)
        counter.start_oscillator()
        sim.run()
        assert (counter.pulses_generated, counter.value()) == (193, 185)
        assert sim.fired_events == 766
        assert sim.now.hex() == "0x1.e24860d5a7a8bp-8"
        histories = counter.histories[:4]
        assert [len(h) for h in histories] == [194, 97, 49, 24]
        assert _digest(f"{i} {t.hex()} {int(v)}"
                       for i, history in enumerate(histories)
                       for t, v in history) == (
            "815f2801b5c7ebc5efa6b94484a3260f73df382bbe799ceac48349fe8ab322ed")


def drive_dual_rail_counter(sim, counter, steps, handshake_gap=5e-9):
    """Environment for the Fig. 4 counter: a 4-phase req/ack loop."""
    state = {"steps_left": steps}

    def on_ack(signal, value, time):
        if value:
            # Data acknowledged: release the request (return-to-zero).
            sim.schedule_signal(counter.req, False, handshake_gap)
        else:
            # Spacer acknowledged: next request, if any.
            if state["steps_left"] > 0:
                state["steps_left"] -= 1
                sim.schedule_signal(counter.req, True, handshake_gap)

    counter.ack.subscribe(on_ack)
    state["steps_left"] -= 1
    sim.schedule_signal(counter.req, True, handshake_gap)


class TestDualRailCounter:
    def test_counts_correctly_on_stable_supply(self, tech):
        sim, supply = Simulator(), ConstantSupply(1.0)
        counter = DualRailCounter(sim, supply, tech, width=2)
        drive_dual_rail_counter(sim, counter, steps=10)
        sim.run()
        assert counter.count == 10 % 4
        assert len(counter.values_emitted) == 10
        assert counter.sequence_is_correct()

    def test_fig4_operation_under_ac_supply(self, tech):
        """The paper's Fig. 4: 200 mV +/- 100 mV, 1 MHz AC supply."""
        sim = Simulator()
        supply = ACSupply(offset=0.2, amplitude=0.1, frequency=1e6)
        counter = DualRailCounter(sim, supply, tech, width=2)
        drive_dual_rail_counter(sim, counter, steps=8)
        sim.run_until_idle(max_time=1.0)
        assert len(counter.values_emitted) == 8
        assert counter.sequence_is_correct()
        # The AC supply made the logic stall at least once near the troughs,
        # yet no count was lost — the speed-independence claim.
        assert counter.values_emitted == counter.expected_sequence(8)

    def test_low_supply_only_slows_the_counter(self, tech):
        durations = {}
        for vdd in (0.25, 1.0):
            sim, supply = Simulator(), ConstantSupply(vdd)
            counter = DualRailCounter(sim, supply, tech, width=2)
            drive_dual_rail_counter(sim, counter, steps=4)
            sim.run()
            assert counter.sequence_is_correct()
            durations[vdd] = sim.now
        assert durations[0.25] > durations[1.0]
