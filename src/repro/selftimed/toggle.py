"""The toggle flip-flop (paper Fig. 10, taken from Varshavsky's book [3]).

The toggle is the unit cell of the self-timed counter: every complete pulse
on its input flips its output.  In the charge-to-digital converter the least
significant toggle runs in oscillator mode and each more significant toggle
divides the pulse rate by two, so the chain counts — and because every
internal transition draws a well defined quantum of charge from the supply,
the count is strictly proportional to the charge consumed.

The model is behavioural at the level the paper cares about: per input pulse
it spends the delay of a TOGGLE-class gate (several internal gate delays) and
bills the energy of ``internal_transitions`` elementary transitions.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError, SupplyCollapseError
from repro.models.gate import GateModel, GateType
from repro.models.technology import Technology
from repro.sim.probes import EnergyProbe
from repro.sim.signals import Signal
from repro.sim.simulator import Simulator
from repro.selftimed.gates import CircuitElement


class ToggleFlipFlop(CircuitElement):
    """A self-timed toggle element.

    Parameters
    ----------
    input_signal:
        Pulse input; every rising edge toggles the output.
    name:
        Instance name; the output signal is called ``<name>.q``.
    internal_transitions:
        How many elementary gate transitions one toggle event costs
        (the Fig. 10 implementation uses a handful of gates; 3 is a
        representative figure and is what makes the charge-per-count
        constant).
    on_stall:
        Callback invoked when the toggle cannot fire because the supply
        collapsed — the charge-to-digital converter uses this to detect the
        end of a conversion.
    trigger_on_rising:
        Toggle on rising input edges (default) or on falling edges.  A ripple
        up-counter clocks each stage from the *falling* edge of the previous
        stage's output so that the Q vector reads as a plain binary count.
    """

    def __init__(self, sim: Simulator, supply, technology: Technology,
                 name: str, input_signal: Signal,
                 internal_transitions: int = 3,
                 energy_probe: Optional[EnergyProbe] = None,
                 on_stall: Optional[Callable[["ToggleFlipFlop"], None]] = None,
                 record_output: bool = True,
                 trigger_on_rising: bool = True) -> None:
        super().__init__(sim, supply, technology, name, energy_probe)
        if internal_transitions < 1:
            raise ConfigurationError("internal_transitions must be >= 1")
        self.input_signal = input_signal
        self.output = Signal(f"{name}.q", record=record_output)
        self.model = GateModel(technology=technology, gate_type=GateType.TOGGLE)
        self.internal_transitions = internal_transitions
        self.on_stall = on_stall
        self.trigger_on_rising = trigger_on_rising
        self.toggle_count = 0
        self._busy = False
        self._toggle_label = f"{name}.toggle"
        input_signal.subscribe(self._on_input)

    # ------------------------------------------------------------------

    def _on_input(self, signal: Signal, value: bool, time: float) -> None:
        if value == self.trigger_on_rising:
            self._fire()

    def _fire(self) -> None:
        """Begin one toggle: check the supply, schedule the output flip."""
        if self._busy:
            # A second pulse arrived before the previous toggle finished.
            # Real toggles would mis-operate here; the self-timed designs in
            # this library never produce that situation because the next
            # pulse is only generated after the handshake completes, so we
            # simply drop it (and count it as a stall for visibility).
            self.stall_count += 1
            return
        vdd = self.rail_voltage()
        if not self.is_functional(vdd):
            self._stall()
            return
        self._busy = True
        delay = self.model.delay(vdd) * self.internal_transitions
        self.sim.schedule(delay, self._complete, label=self._toggle_label)

    def _complete(self) -> None:
        """Finish the toggle: bill energy and flip the output."""
        self._busy = False
        vdd = self.rail_voltage()
        if not self.is_functional(vdd):
            self._stall()
            return
        energy = self.internal_transitions * self.model.transition_energy(vdd)
        try:
            self.bill_energy(energy)
        except SupplyCollapseError:
            self._stall()
            return
        self.toggle_count += 1
        self.transition_count += self.internal_transitions
        self.output.set(not self.output.value, self.sim.now)

    def _stall(self) -> None:
        self.stalled = True
        self.stall_count += 1
        self._busy = False
        if self.on_stall is not None:
            self.on_stall(self)

    # ------------------------------------------------------------------

    def charge_per_toggle(self, vdd: float) -> float:
        """Charge in coulombs one toggle draws from the supply at *vdd*.

        The proportionality constant of the charge-to-digital converter.
        """
        return (self.internal_transitions
                * self.model.transition_energy(vdd) / max(vdd, 1e-12) * 2.0)
