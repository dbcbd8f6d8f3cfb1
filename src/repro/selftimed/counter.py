"""Self-timed counters.

Two counters appear in the paper:

* :class:`SelfTimedCounter` — the ripple chain of toggle flip-flops of
  Fig. 9, which, "connected in a pulse generator (oscillator) mode", converts
  the charge stored on a sampling capacitor into a binary code: every pulse
  drains a fixed quantum of charge, the logic slows as the voltage falls, and
  the chain stops when the supply collapses, freezing the count.
* :class:`DualRailCounter` — the 2-bit dual-rail, completion-detected
  sequential counter whose waveforms under an AC supply (200 mV ± 100 mV,
  1 MHz) are shown in Fig. 4.  Its value sequence is provably correct no
  matter how the supply wobbles, because every step is acknowledged through
  genuine completion detection; low supply only stretches the handshake.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError, SupplyCollapseError
from repro.models.gate import GateModel, GateType
from repro.models.technology import Technology
from repro.sim.events import Event
from repro.sim.probes import EnergyProbe
from repro.sim.signals import Signal
from repro.sim.simulator import Simulator
from repro.selftimed.completion import CompletionDetector
from repro.selftimed.dualrail import DualRailWord
from repro.selftimed.gates import CircuitElement

#: Oscillator steps in :class:`SelfTimedCounter`'s private heap; toggle
#: completions use their stage number (>= 0).
_RISE = -1
_FALL = -2

#: Priority of the counter's kernel event: it yields every time tie.
_YIELD_PRIORITY = sys.maxsize


def _ring_never_longer(ring_gate: GateModel, ring_stages: int,
                       service_gate: GateModel, transitions: int) -> bool:
    """True when ``ring_stages · ring_gate.delay(v)`` exceeds
    ``transitions · service_gate.delay(v)`` at no supply ``v``.

    Each delay is ``fl(fl(load · v) / fl(2 · I_on(v)))``.  Two gates of
    one technology, drive strength, Vth offset and drive derating build
    equal MOSFETs, so at every ``v`` they divide by the same float (and
    raise at the same ``v``).  Rounding is monotone: a load no larger
    gives a delay no larger, and a whole-number multiplier no larger a
    product no larger, so then ``max(ring, service)`` is ``service`` bit
    for bit.
    """
    return (ring_stages <= transitions
            and ring_gate.technology == service_gate.technology
            and ring_gate.drive_strength == service_gate.drive_strength
            and ring_gate.vth_offset == service_gate.vth_offset
            and ring_gate.drive_derating == service_gate.drive_derating
            and ring_gate.total_load() <= service_gate.total_load())


class SelfTimedCounter(CircuitElement):
    """Ripple counter of toggle flip-flops with an oscillator mode (Fig. 9).

    Stage 0 toggles on every rising edge of the pulse generator; stage
    ``i > 0`` toggles on the falling edge of stage ``i - 1``'s Q, so the Q
    vector reads as a binary up-count.  Each stage behaves exactly like a
    :class:`~repro.selftimed.toggle.ToggleFlipFlop`: a pulse arriving while
    the stage is still toggling is dropped (and counted as a stall), a
    toggle takes ``internal_transitions_per_toggle`` TOGGLE-gate delays at
    the supply voltage it starts at, and it bills that many transitions'
    energy at the voltage it completes at — or stalls, ending the
    conversion, when the supply can no longer switch it.

    The oscillator and the chain run as one scalar loop rather than as a
    graph of signals and kernel events: per-stage state lives in plain
    lists and pending edges in a private heap of ``(time, sequence, step)``
    entries, fired in the order the kernel would fire them.  The counter
    holds at most one kernel event, at its earliest pending edge; when it
    fires, the counter takes its private steps up to
    :attr:`Simulator.horizon <repro.sim.simulator.Simulator.horizon>`,
    accounting each through
    :meth:`~repro.sim.simulator.Simulator.take_step`, and re-posts the
    event at its next edge.  See ``docs/architecture.md`` ("Simulation
    kernel") for the contract and why the loop is bit-identical.

    Parameters
    ----------
    width:
        Number of toggle stages (output bits).
    oscillator_ring_stages:
        Number of gate delays making up one half-period of the pulse
        generator that drives the LSB in oscillator mode.
    internal_transitions_per_toggle:
        Energy/charge granularity of each toggle (see
        :class:`~repro.selftimed.toggle.ToggleFlipFlop`).
    max_pulses:
        Safety bound on the number of pulses generated in oscillator mode.
    record_signals:
        Record the Q history of every stage; by default only the four
        least-significant stages are recorded (see :attr:`histories`).
    """

    def __init__(self, sim: Simulator, supply, technology: Technology,
                 name: str = "counter", width: int = 8,
                 oscillator_ring_stages: int = 3,
                 internal_transitions_per_toggle: int = 3,
                 max_pulses: int = 1_000_000,
                 energy_probe: Optional[EnergyProbe] = None,
                 record_signals: bool = False) -> None:
        super().__init__(sim, supply, technology, name, energy_probe)
        if width < 1:
            raise ConfigurationError("width must be >= 1")
        if oscillator_ring_stages < 1:
            raise ConfigurationError("oscillator_ring_stages must be >= 1")
        if max_pulses < 1:
            raise ConfigurationError("max_pulses must be >= 1")
        if internal_transitions_per_toggle < 1:
            raise ConfigurationError("internal_transitions must be >= 1")
        self.width = width
        self.oscillator_ring_stages = oscillator_ring_stages
        self.internal_transitions = internal_transitions_per_toggle
        self.max_pulses = max_pulses
        self._osc_model = GateModel(technology=technology,
                                    gate_type=GateType.INVERTER)
        self._toggle_model = GateModel(technology=technology,
                                       gate_type=GateType.TOGGLE)
        self._ring_bounded = _ring_never_longer(
            self._osc_model, oscillator_ring_stages,
            self._toggle_model, internal_transitions_per_toggle)
        # Per-stage state, index = stage (bit) number.
        self._q = [False] * width
        self._busy = [False] * width
        #: Completed toggles of each stage.
        self.toggle_counts = [0] * width
        #: Energy billed by each stage, in joules.
        self.stage_energy = [0.0] * width
        #: Stalls of each stage: pulses dropped while it was still
        #: toggling, plus toggles the supply could not power.
        self.stage_stalls = [0] * width
        #: Recorded ``(time, Q)`` history of each stage, starting with
        #: ``(0.0, False)``; empty for stages that are not recorded.
        self.histories: List[List[Tuple[float, bool]]] = [
            [(0.0, False)] if record_signals or i < 4 else []
            for i in range(width)]
        self._labels = [f"{name}.t{i}" for i in range(width)]
        self._osc_label = f"{name}.osc"
        self._pulse = False  # the pulse input of stage 0 (R0 in Fig. 9)
        self._steps: List[Tuple[float, int, int]] = []
        self._sequence = itertools.count()
        self._event: Optional[Event] = None
        self._horizon = 0.0
        self._service_vdd = math.nan  # one-entry memo of _toggle_service
        self._service = math.nan
        self.pulses_generated = 0
        self.running = False
        self.finished = False
        self.on_finish: Optional[Callable[["SelfTimedCounter"], None]] = None

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------

    def value(self) -> int:
        """Current binary count (LSB = stage 0 output)."""
        return sum(1 << i for i, q in enumerate(self._q) if q)

    def total_toggle_transitions(self) -> int:
        """Total elementary transitions spent by all toggle stages."""
        return sum(self.toggle_counts) * self.internal_transitions

    def energy_consumed_total(self) -> float:
        """Energy consumed by the oscillator and every toggle, in joules."""
        return self.energy_consumed + sum(self.stage_energy)

    # ------------------------------------------------------------------
    # Oscillator (pulse-generator) mode — Fig. 9
    # ------------------------------------------------------------------

    def start_oscillator(self) -> None:
        """Start generating pulses on the LSB input from the local supply.

        The oscillator keeps running until the supply collapses below the
        technology's functional minimum, the pulse budget is exhausted, or
        :meth:`stop_oscillator` is called.
        """
        if self.running:
            return
        self.running = True
        self.finished = False
        now = self.sim.now
        vdd = self.supply.voltage(now)
        if not vdd >= self.technology.vdd_min:
            self._finish()
            return
        heappush(self._steps, (now + self._half_period(vdd),
                               next(self._sequence), _RISE))
        self._post()

    def stop_oscillator(self) -> None:
        """Stop generating pulses (the count freezes at its current value).

        Toggles already in flight still complete, or stall.
        """
        self.running = False

    def _half_period(self, vdd: float) -> float:
        """Half period of the pulse generator at supply *vdd*.

        The LSB toggle itself is part of the oscillation loop (Fig. 9), so the
        pulse period can never be shorter than the toggle's own service time —
        otherwise pulses would be generated faster than the counter can accept
        them, which the handshake structurally prevents.  When the ring can
        never be the longer of the two (see :func:`_ring_never_longer`),
        its delay is not evaluated.
        """
        if self._ring_bounded:
            return self._toggle_service(vdd)
        ring = self.oscillator_ring_stages * self._osc_model.delay(vdd)
        return max(ring, self._toggle_service(vdd))

    def _toggle_service(self, vdd: float) -> float:
        """Duration of one toggle started at *vdd*.

        Memoised for the last voltage: the oscillator asks for its half
        period at the voltage stage 0 has just started a toggle at.
        """
        if vdd != self._service_vdd:
            self._service = (self.internal_transitions
                             * self._toggle_model.delay(vdd))
            self._service_vdd = vdd
        return self._service

    # ------------------------------------------------------------------
    # The scalar loop
    # ------------------------------------------------------------------

    def _post(self) -> None:
        """Hold the one kernel event at the earliest pending edge."""
        if not self._steps:
            return
        time = self._steps[0][0]
        event = self._event
        if event is not None:
            if event.time <= time:
                return
            event.cancel()
        self._event = self.sim.schedule_at(
            time, self._run_steps, priority=_YIELD_PRIORITY,
            label=self.name)

    def _run_steps(self) -> None:
        """The kernel event: fire pending edges up to the kernel's horizon.

        The first edge is the one the event was posted for; each further
        edge must lie strictly before the horizon, which :meth:`_finish`
        re-reads after the ``on_finish`` callback.
        """
        self._event = None
        sim = self.sim
        steps = self._steps
        self._horizon = sim.horizon
        time = sim.now
        while True:
            step = heappop(steps)[2]
            if step >= 0:
                self._complete(step, time)
            elif self.running:
                self._osc_edge(step == _RISE, time)
            if not steps:
                break
            time = steps[0][0]
            if not time < self._horizon:
                break
            sim.take_step(time)
        self._post()

    def _osc_edge(self, rising: bool, time: float) -> None:
        """The pulse generator drives R0 high (*rising*) or low."""
        supply = self.supply
        vdd_min = self.technology.vdd_min
        vdd = supply.voltage(time)
        if not vdd >= vdd_min:
            self._finish()
            return
        energy = self._osc_model.transition_energy(vdd)
        try:
            supply.draw_charge(energy / vdd, time)
        except SupplyCollapseError:
            self._finish()
            return
        self.energy_consumed += energy
        if self.energy_probe is not None:
            self.energy_probe.record(energy, time, self._osc_label)
        self.transition_count += 1  # one ring transition per half period
        if rising != self._pulse:
            self._pulse = rising
            if rising:
                self._trigger(0, time)
        if rising:
            self.pulses_generated += 1
            if self.pulses_generated >= self.max_pulses:
                self._finish()
                return
        if not self.running:
            return
        vdd = supply.voltage(time)
        if not vdd >= vdd_min:
            self._finish()
            return
        heappush(self._steps, (time + self._half_period(vdd),
                               next(self._sequence),
                               _FALL if rising else _RISE))

    def _trigger(self, stage: int, time: float) -> None:
        """A triggering edge reaches *stage*: start its toggle."""
        if self._busy[stage]:
            # A pulse arrived before the previous toggle finished; the
            # self-timed handshake never lets that happen, so it is dropped
            # and counted (the ToggleFlipFlop behaviour).
            self.stage_stalls[stage] += 1
            return
        vdd = self.supply.voltage(time)
        if not vdd >= self.technology.vdd_min:
            self._stall(stage)
            return
        self._busy[stage] = True
        heappush(self._steps, (time + self._toggle_service(vdd),
                               next(self._sequence), stage))

    def _complete(self, stage: int, time: float) -> None:
        """The toggle of *stage* finishes: bill it and flip its Q."""
        self._busy[stage] = False
        supply = self.supply
        vdd = supply.voltage(time)
        if not vdd >= self.technology.vdd_min:
            self._stall(stage)
            return
        energy = (self.internal_transitions
                  * self._toggle_model.transition_energy(vdd))
        try:
            supply.draw_charge(energy / vdd, time)
        except SupplyCollapseError:
            self._stall(stage)
            return
        self.stage_energy[stage] += energy
        if self.energy_probe is not None:
            self.energy_probe.record(energy, time, self._labels[stage])
        self.toggle_counts[stage] += 1
        q = not self._q[stage]
        self._q[stage] = q
        history = self.histories[stage]
        if history:
            history.append((time, q))
        if not q and stage + 1 < self.width:
            self._trigger(stage + 1, time)

    def _stall(self, stage: int) -> None:
        """*stage* ran out of supply mid-count: the conversion is over."""
        self.stage_stalls[stage] += 1
        self._finish()

    def _finish(self) -> None:
        if self.finished:
            return
        self.running = False
        self.finished = True
        if self.on_finish is not None:
            self.on_finish(self)
            # The callback may have scheduled events or stopped the run.
            self._horizon = self.sim.horizon


class DualRailCounter(CircuitElement):
    """Completion-detected dual-rail counter with a 4-phase handshake.

    Operation (one count step):

    1. environment raises ``req``;
    2. the counter computes ``count+1`` and drives it on the dual-rail output
       word (after the data-path delay at the *instantaneous* supply voltage);
    3. the event-driven completion detector sees a full codeword and raises
       ``ack``;
    4. environment lowers ``req``; the counter drives the spacer; completion
       detection sees the empty word and lowers ``ack``.

    Because each phase only proceeds on observed completion, the counter
    cannot mis-count no matter how slow (or briefly non-functional) the
    supply makes the logic — it is the behavioural equivalent of the paper's
    Fig. 4 demonstration.
    """

    def __init__(self, sim: Simulator, supply, technology: Technology,
                 name: str = "drcounter", width: int = 2,
                 datapath_gate_delays: int = 6,
                 stall_retry_interval: float = 50e-9,
                 energy_probe: Optional[EnergyProbe] = None) -> None:
        super().__init__(sim, supply, technology, name, energy_probe)
        if width < 1:
            raise ConfigurationError("width must be >= 1")
        if datapath_gate_delays < 1:
            raise ConfigurationError("datapath_gate_delays must be >= 1")
        self.width = width
        self.datapath_gate_delays = datapath_gate_delays
        self.stall_retry_interval = stall_retry_interval
        self.req = Signal(f"{name}.req")
        self.word = DualRailWord(f"{name}.d", width=width)
        self.detector = CompletionDetector(
            sim, supply, technology, f"{name}.cd", self.word,
            energy_probe=energy_probe,
            stall_retry_interval=stall_retry_interval,
        )
        #: ``ack`` is the completion detector's done output.
        self.ack = self.detector.done
        self._model = GateModel(technology=technology, gate_type=GateType.XOR2)
        self._count = 0
        self.values_emitted: List[int] = []
        self.req.subscribe(self._on_req)

    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of completed count steps."""
        return self._count

    def _on_req(self, signal: Signal, value: bool, time: float) -> None:
        if value:
            self._start_step(target=(self._count + 1) % (1 << self.width))
        else:
            self._start_step(target=None)

    def _start_step(self, target: Optional[int]) -> None:
        vdd = self.rail_voltage()
        if not self.is_functional(vdd):
            # Wait for the supply to recover, then retry the same phase.
            self.stall_count += 1
            self.stalled = True
            self.sim.schedule(self.stall_retry_interval,
                              lambda t=target: self._start_step(t),
                              label=f"{self.name}.retry")
            return
        self.stalled = False
        delay = self.datapath_gate_delays * self._model.delay(vdd)
        self.sim.schedule(delay, lambda t=target: self._drive(t),
                          label=f"{self.name}.data")

    def _drive(self, target: Optional[int]) -> None:
        vdd = self.rail_voltage()
        if not self.is_functional(vdd):
            self.stall_count += 1
            self.sim.schedule(self.stall_retry_interval,
                              lambda t=target: self._drive(t),
                              label=f"{self.name}.retry")
            return
        # Bill the data-path energy: one transition per rail that changes
        # plus the computation overhead.
        transitions = self.width + self.datapath_gate_delays
        try:
            self.bill_energy(transitions * self._model.transition_energy(vdd))
        except SupplyCollapseError:
            self.sim.schedule(self.stall_retry_interval,
                              lambda t=target: self._drive(t),
                              label=f"{self.name}.retry")
            return
        self.transition_count += transitions
        self.word.drive_value(target, self.sim.now)
        if target is not None:
            self._count = target
            self.values_emitted.append(target)

    # ------------------------------------------------------------------

    def expected_sequence(self, steps: int) -> List[int]:
        """The value sequence a correct counter must emit for *steps* steps."""
        return [(i + 1) % (1 << self.width) for i in range(steps)]

    def sequence_is_correct(self) -> bool:
        """Check the emitted values against the expected modulo sequence."""
        return self.values_emitted == self.expected_sequence(len(self.values_emitted))


# ---------------------------------------------------------------------------
# Fig. 4 scenario: the counter driven through a 4-phase environment


#: Names of the scalar summaries a :class:`CounterRun` exposes through
#: :meth:`CounterRun.metrics` — the quantity set of a Fig. 4 style plan.
COUNTER_RUN_METRICS = ("steps_emitted", "sequence_correct", "stalls",
                       "finish_time", "energy")


@dataclass
class CounterRun:
    """Outcome of one driven run of the dual-rail counter (Fig. 4).

    ``finish_time`` is the completion time of the last handshake — the run
    may sit idle afterwards waiting for a ``req`` that never comes.
    """

    values_emitted: List[int]
    expected: List[int]
    sequence_correct: bool
    stall_count: int
    finish_time: float
    energy: float

    def metrics(self) -> dict:
        """Scalar per-run summary keyed by :data:`COUNTER_RUN_METRICS`."""
        return {
            "steps_emitted": float(len(self.values_emitted)),
            "sequence_correct": float(self.sequence_correct),
            "stalls": float(self.stall_count),
            "finish_time": self.finish_time,
            "energy": self.energy,
        }


def drive_dualrail_counter(sim: Simulator, counter: DualRailCounter,
                           steps: int, handshake_gap: float = 0.5e-9) -> None:
    """Attach the 4-phase environment of the paper's Fig. 4 testbench.

    The environment toggles ``req`` on the counter's ``ack`` edges —
    lowering ``req`` when ``ack`` rises, raising it again *handshake_gap*
    after ``ack`` falls — until *steps* count steps have been requested.
    The handshake therefore runs exactly as fast as the (possibly sagging)
    supply permits, which is the point of the figure.
    """
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    state = {"steps_left": steps}

    def on_ack(signal: Signal, value: bool, time: float) -> None:
        if value:
            sim.schedule_signal(counter.req, False, handshake_gap)
        elif state["steps_left"] > 0:
            state["steps_left"] -= 1
            sim.schedule_signal(counter.req, True, handshake_gap)

    counter.ack.subscribe(on_ack)
    state["steps_left"] -= 1
    sim.schedule_signal(counter.req, True, handshake_gap)


def run_dualrail_scenario(technology: Technology, supply, steps: int,
                          width: int = 2, handshake_gap: float = 0.5e-9,
                          max_time: float = 1.0) -> CounterRun:
    """Run a fresh :class:`DualRailCounter` for *steps* handshakes (Fig. 4).

    The per-point evaluation of a Fig. 4 style experiment plan: one plan
    point per supply condition (AC rail, DC rail, ...).  The run is fully
    deterministic — the event kernel is seeded by nothing but the supply
    waveform — so pool workers and the serial path produce bit-identical
    :class:`CounterRun` summaries.
    """
    sim = Simulator()
    counter = DualRailCounter(sim, supply, technology, width=width)
    drive_dualrail_counter(sim, counter, steps, handshake_gap=handshake_gap)
    sim.run_until_idle(max_time=max_time)
    return CounterRun(
        values_emitted=list(counter.values_emitted),
        expected=counter.expected_sequence(steps),
        sequence_correct=counter.sequence_is_correct(),
        stall_count=counter.stall_count,
        finish_time=counter.ack.last_change_time,
        energy=counter.energy_consumed,
    )


def dualrail_completion_violations(technology: Technology, vdd: float,
                                   steps: int = 4, width: int = 2,
                                   handshake_gap: float = 0.5e-9) -> List[str]:
    """Dual-rail completion violations of one constant-supply counter run.

    The self-timed layer's invariant adapter for
    :mod:`repro.analysis.campaign.invariants`: at any supply above the
    technology's functional minimum, a :func:`run_dualrail_scenario` run
    must complete every requested handshake — the counter emits exactly
    *steps* values, in the expected sequence, without stalling, in
    positive time, and pays a positive energy bill for doing so.

    Returns human-readable violation messages; empty means the run held.
    """
    from repro.power.supply import ConstantSupply

    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps!r}")
    if not vdd >= technology.vdd_min:
        raise ConfigurationError(
            f"vdd={vdd!r} V is below the functional minimum "
            f"{technology.vdd_min!r} V of {technology.name}")
    run = run_dualrail_scenario(technology, ConstantSupply(vdd), steps,
                                width=width, handshake_gap=handshake_gap)
    violations: List[str] = []
    if len(run.values_emitted) != steps:
        violations.append(
            f"emitted {len(run.values_emitted)} of {steps} handshakes "
            f"at vdd={vdd!r} V")
    if not run.sequence_correct:
        violations.append(
            f"counter sequence wrong at vdd={vdd!r} V: emitted "
            f"{run.values_emitted!r}, expected {run.expected!r}")
    if run.stall_count:
        violations.append(
            f"{run.stall_count} stall(s) on a constant {vdd!r} V rail")
    if not run.finish_time > 0.0:
        violations.append(
            f"finish time not positive ({run.finish_time!r} s)")
    if not run.energy > 0.0:
        violations.append(
            f"completed {steps} handshakes for non-positive energy "
            f"({run.energy!r} J)")
    return violations
