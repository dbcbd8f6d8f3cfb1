"""Storage and sampling capacitors.

A capacitor is the one supply node whose behaviour *is* the experiment: the
charge-to-digital converter of Figs. 9–11 works precisely because every gate
transition removes a well-defined quantum of charge from the sampling
capacitor, lowering its voltage, slowing the logic, and eventually stopping
it — at which point the accumulated count encodes the initial voltage.

:class:`Capacitor` implements the supply-node protocol with charge
conservation (``V = Q / C``) plus an optional self-discharge (leakage)
resistance.  :class:`SamplingCapacitor` adds the sample-and-hold front end of
Fig. 8: it can be connected to an upstream supply through switch S1 to sample
its voltage, then disconnected and discharged into the load through S2.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError, PowerError, SupplyCollapseError
from repro.power.supply import SupplyNode


class Capacitor:
    """A charge-conserving capacitor acting as a supply node.

    Parameters
    ----------
    capacitance:
        Capacitance in farads.
    initial_voltage:
        Voltage at time zero, in volts.
    leakage_resistance:
        Optional parallel self-discharge resistance in ohms; ``None`` means
        an ideal capacitor.
    min_operating_voltage:
        Voltage below which :meth:`draw_charge` raises
        :class:`~repro.errors.SupplyCollapseError` — loads use this to detect
        that the supply has collapsed under them.
    """

    def __init__(self, capacitance: float, initial_voltage: float = 0.0,
                 leakage_resistance: Optional[float] = None,
                 min_operating_voltage: float = 0.0,
                 name: str = "cap") -> None:
        if capacitance <= 0:
            raise ConfigurationError("capacitance must be positive")
        if initial_voltage < 0:
            raise ConfigurationError("initial_voltage must be non-negative")
        if leakage_resistance is not None and leakage_resistance <= 0:
            raise ConfigurationError("leakage_resistance must be positive")
        if min_operating_voltage < 0:
            raise ConfigurationError("min_operating_voltage must be non-negative")
        self.name = name
        self.capacitance = capacitance
        self.leakage_resistance = leakage_resistance
        self.min_operating_voltage = min_operating_voltage
        self._voltage = initial_voltage
        self._last_update = 0.0
        self._charge_delivered = 0.0
        self._energy_delivered = 0.0

    # ------------------------------------------------------------------
    # Internal time evolution
    # ------------------------------------------------------------------

    def _advance(self, time: float) -> None:
        """Apply self-discharge between the last update and *time*.

        Tiny backwards steps caused by floating-point accumulation in long
        environmental loops are tolerated and clamped; genuinely stale
        timestamps raise :class:`~repro.errors.PowerError`.
        """
        if time < self._last_update:
            tolerance = 1e-12 + 1e-9 * abs(self._last_update)
            if self._last_update - time > tolerance:
                raise PowerError(
                    f"capacitor {self.name!r} asked to move backwards in time "
                    f"({time} < {self._last_update})"
                )
            time = self._last_update
        if self.leakage_resistance is not None and time > self._last_update:
            tau = self.leakage_resistance * self.capacitance
            self._voltage *= math.exp(-(time - self._last_update) / tau)
        self._last_update = time

    # ------------------------------------------------------------------
    # SupplyNode protocol
    # ------------------------------------------------------------------

    def voltage(self, time: float) -> float:
        """Capacitor voltage at *time*, accounting for self-discharge."""
        if time != self._last_update:  # same instant: _advance is a no-op
            self._advance(time)
        return self._voltage

    def draw_charge(self, charge: float, time: float) -> None:
        """Remove *charge* coulombs at *time*; the voltage drops by ``Q/C``.

        Raises :class:`~repro.errors.SupplyCollapseError` if the voltage is
        already at or below the configured minimum operating voltage.
        """
        if not 0.0 <= charge < math.inf:
            raise PowerError(
                f"charge draw {charge!r} is not finite and non-negative")
        if time != self._last_update:
            self._advance(time)
        if self._voltage <= self.min_operating_voltage:
            raise SupplyCollapseError(
                f"capacitor {self.name!r} at {self._voltage:.4f} V is below its "
                f"minimum operating voltage {self.min_operating_voltage:.4f} V"
            )
        self._energy_delivered += charge * self._voltage
        self._charge_delivered += charge
        self._voltage = max(0.0, self._voltage - charge / self.capacitance)

    @property
    def energy_delivered(self) -> float:
        """Total energy handed to loads so far, in joules."""
        return self._energy_delivered

    @property
    def charge_delivered(self) -> float:
        """Total charge handed to loads so far, in coulombs."""
        return self._charge_delivered

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def stored_charge(self, time: float) -> float:
        """Charge currently stored, in coulombs."""
        return self.voltage(time) * self.capacitance

    def stored_energy(self, time: float) -> float:
        """Energy currently stored, ``½·C·V²`` in joules."""
        v = self.voltage(time)
        return 0.5 * self.capacitance * v * v

    def add_charge(self, charge: float, time: float) -> None:
        """Push *charge* coulombs into the capacitor (harvester inflow)."""
        if charge < 0:
            raise PowerError("negative charge added")
        self._advance(time)
        self._voltage += charge / self.capacitance

    def add_energy(self, energy: float, time: float) -> float:
        """Push *energy* joules in; returns the resulting voltage.

        Energy-based charging solves ``½·C·V_new² = ½·C·V_old² + E``.
        """
        if energy < 0:
            raise PowerError("negative energy added")
        self._advance(time)
        new_sq = self._voltage * self._voltage + 2.0 * energy / self.capacitance
        self._voltage = math.sqrt(new_sq)
        return self._voltage

    def set_voltage(self, voltage: float, time: float) -> None:
        """Force the capacitor voltage (ideal sampling switch closing)."""
        if voltage < 0:
            raise ConfigurationError("voltage must be non-negative")
        self._advance(time)
        self._voltage = voltage


class SamplingCapacitor(Capacitor):
    """The sample-and-hold capacitor of the Fig. 8 voltage-sensor front end.

    Lifecycle per conversion:

    1. :meth:`sample` — close switch S1 for *sampling_time* seconds; the
       capacitor charges toward the source voltage through the switch
       resistance (one RC time constant model).
    2. :meth:`hold` — open S1.
    3. the load (the self-timed counter) then discharges it through S2 by
       calling :meth:`draw_charge` for every transition, until the voltage
       collapses.
    """

    def __init__(self, capacitance: float, switch_resistance: float = 1e3,
                 min_operating_voltage: float = 0.0,
                 name: str = "csample") -> None:
        super().__init__(capacitance=capacitance, initial_voltage=0.0,
                         min_operating_voltage=min_operating_voltage, name=name)
        if switch_resistance <= 0:
            raise ConfigurationError("switch_resistance must be positive")
        self.switch_resistance = switch_resistance
        self._sampling = False

    @property
    def sampling(self) -> bool:
        """True while switch S1 is closed."""
        return self._sampling

    def sample(self, source: SupplyNode, sampling_time: float,
               time: float) -> float:
        """Charge from *source* for *sampling_time* seconds starting at *time*.

        Returns the voltage reached.  With a constant sampling time the
        acquired charge is proportional to the source voltage, which is the
        premise of the charge-to-digital conversion (Fig. 11).
        """
        if sampling_time <= 0:
            raise ConfigurationError("sampling_time must be positive")
        self._advance(time)
        self._sampling = True
        source_v = source.voltage(time)
        tau = self.switch_resistance * self.capacitance
        settled = source_v + (self._voltage - source_v) * math.exp(-sampling_time / tau)
        delta_q = (settled - self._voltage) * self.capacitance
        if delta_q > 0:
            source.draw_charge(delta_q, time)
        self._voltage = settled
        self._sampling = False
        return self._voltage

    def hold(self) -> None:
        """Open the sampling switch (explicit for symmetry; sample() auto-holds)."""
        self._sampling = False


# ---------------------------------------------------------------------------
# Invariant adapter (the campaign fuzzer's charge-conservation probe)


def charge_conservation_violations(capacitance, initial_voltage, draws,
                                   capacitor_factory=None):
    """Charge-conservation violations of one capacitor draw sequence.

    The power layer's invariant adapter for
    :mod:`repro.analysis.campaign.invariants`: build a capacitor of
    *capacitance* farads starting at *initial_voltage* volts (through
    *capacitor_factory*, which tests may substitute with a deliberately
    broken model), apply the non-negative charge *draws* in order, and
    return a list of human-readable violation messages — empty when the
    capacitor conserved charge.  Checked invariants:

    * the voltage never goes negative and never rises on a draw;
    * the stored + delivered charge ledger never exceeds the initial
      charge (checked only while the capacitor has not been driven to the
      0 V clamp, where the ledger legitimately over-counts).

    Deterministic: the only inputs are the arguments, so any reported
    violation replays bit-for-bit from the same draw list.
    """
    factory = capacitor_factory if capacitor_factory is not None else Capacitor
    cap = factory(capacitance=capacitance, initial_voltage=initial_voltage)
    violations = []
    initial_charge = capacitance * initial_voltage
    tolerance = 1e-12 * max(1.0, initial_charge) + 1e-18
    previous = cap.voltage(0.0)
    if previous < 0.0:
        violations.append(
            f"initial voltage is negative: {previous!r} V")
    clamped = False
    for index, charge in enumerate(draws):
        time = float(index + 1)
        if previous <= 0.0:
            break  # a fully drained ideal capacitor may refuse the draw
        cap.draw_charge(float(charge), time)
        current = cap.voltage(time)
        if current < 0.0:
            violations.append(
                f"draw {index}: voltage went negative ({current!r} V)")
        if current > previous + 1e-15:
            violations.append(
                f"draw {index}: voltage rose from {previous!r} to "
                f"{current!r} V on a {charge!r} C draw")
        if current == 0.0 and previous - charge / capacitance < 0.0:
            clamped = True  # over-draw hit the 0 V clamp; ledger over-counts
        previous = current
    if not clamped:
        final_time = float(len(draws) + 1)
        ledger = cap.stored_charge(final_time) + cap.charge_delivered
        if ledger > initial_charge + tolerance:
            violations.append(
                f"charge ledger created charge: stored + delivered = "
                f"{ledger!r} C > initial {initial_charge!r} C")
    return violations
