"""Supply-node protocol and ideal / time-varying voltage supplies.

Every circuit element in the library draws its operating voltage and its
energy from a *supply node*.  The protocol is intentionally tiny:

``voltage(time)``
    the instantaneous rail voltage seen by the load;
``draw_charge(charge, time)``
    the load took *charge* coulombs out of the node at *time* (ideal supplies
    just account for it, capacitors sag, batteries deplete);
``energy_delivered``
    total energy the node has handed to its loads so far.

The concrete supplies in this module have *infinite* energy — they model the
lab bench: a stable rail (:class:`ConstantSupply`), the AC rail of Fig. 4
(:class:`ACSupply`), arbitrary piecewise profiles used for the "SRAM under
varying Vdd" experiment of Fig. 7 (:class:`PiecewiseSupply`) and voltage
ramps (:class:`RampSupply`).  Finite-energy nodes live in
:mod:`repro.power.battery` and :mod:`repro.power.capacitor`.
"""

from __future__ import annotations

import math
from typing import List, Protocol, Sequence, Tuple, runtime_checkable

from repro.errors import ConfigurationError, PowerError


@runtime_checkable
class SupplyNode(Protocol):
    """Structural protocol implemented by every voltage source in the library."""

    def voltage(self, time: float) -> float:
        """Instantaneous rail voltage in volts at simulation *time*."""
        ...

    def draw_charge(self, charge: float, time: float) -> None:
        """Remove *charge* coulombs from the node at *time*."""
        ...

    @property
    def energy_delivered(self) -> float:
        """Total energy delivered to loads so far, in joules."""
        ...


class _BaseSupply:
    """Shared bookkeeping for the ideal (infinite-energy) supplies."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._charge_delivered = 0.0
        self._energy_delivered = 0.0

    def voltage(self, time: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def draw_charge(self, charge: float, time: float) -> None:
        """Account for a load drawing *charge* coulombs at *time*."""
        if not 0.0 <= charge < math.inf:
            raise PowerError(
                f"charge draw {charge!r} on supply {self.name!r} is not "
                f"finite and non-negative")
        voltage = self.voltage(time)
        self._charge_delivered += charge
        self._energy_delivered += charge * voltage

    def draw_energy(self, energy: float, time: float) -> None:
        """Account for an *energy* draw (joules); converts via the rail voltage."""
        if not 0.0 <= energy < math.inf:
            raise PowerError(
                f"energy draw {energy!r} on supply {self.name!r} is not "
                f"finite and non-negative")
        voltage = self.voltage(time)
        if voltage <= 0:
            raise PowerError(
                f"cannot draw energy from {self.name!r} at zero voltage"
            )
        self.draw_charge(energy / voltage, time)

    @property
    def charge_delivered(self) -> float:
        """Total charge delivered to loads, in coulombs."""
        return self._charge_delivered

    @property
    def energy_delivered(self) -> float:
        """Total energy delivered to loads, in joules."""
        return self._energy_delivered


class ConstantSupply(_BaseSupply):
    """An ideal DC rail at a fixed voltage (the classical battery-backed Vdd)."""

    def __init__(self, vdd: float, name: str = "vdd") -> None:
        super().__init__(name)
        if vdd < 0:
            raise ConfigurationError("vdd must be non-negative")
        self._vdd = vdd

    def voltage(self, time: float) -> float:
        """The rail voltage (independent of *time*)."""
        return self._vdd

    def set_voltage(self, vdd: float) -> None:
        """Reprogram the rail (models an ideal, instant DVS actuator)."""
        if vdd < 0:
            raise ConfigurationError("vdd must be non-negative")
        self._vdd = vdd


class ACSupply(_BaseSupply):
    """A sinusoidal rail: ``offset + amplitude·sin(2π·frequency·t + phase)``.

    Fig. 4 of the paper demonstrates a dual-rail counter operating correctly
    from exactly such a rail (offset 200 mV, amplitude 100 mV, 1 MHz).
    Negative excursions are clipped to zero — a real rectified harvester rail
    cannot go below ground.
    """

    def __init__(self, offset: float, amplitude: float, frequency: float,
                 phase: float = 0.0, name: str = "vac") -> None:
        super().__init__(name)
        if offset < 0 or amplitude < 0:
            raise ConfigurationError("offset and amplitude must be non-negative")
        if frequency <= 0:
            raise ConfigurationError("frequency must be positive")
        self.offset = offset
        self.amplitude = amplitude
        self.frequency = frequency
        self.phase = phase

    def voltage(self, time: float) -> float:
        """Instantaneous (clipped) sinusoidal rail voltage."""
        value = self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.frequency * time + self.phase
        )
        return max(0.0, value)

    @property
    def minimum_voltage(self) -> float:
        """Lowest voltage the rail ever reaches."""
        return max(0.0, self.offset - self.amplitude)

    @property
    def maximum_voltage(self) -> float:
        """Highest voltage the rail ever reaches."""
        return self.offset + self.amplitude


class PiecewiseSupply(_BaseSupply):
    """A rail defined by (time, voltage) breakpoints with optional interpolation.

    Used for the Fig. 7 experiment: "the first writing works under low Vdd,
    it takes a long time, while the second write, at high Vdd, works much
    faster" — i.e. a step from 0.25 V to 1.0 V halfway through the run.
    """

    def __init__(self, breakpoints: Sequence[Tuple[float, float]],
                 interpolate: bool = False, name: str = "vpw") -> None:
        super().__init__(name)
        if not breakpoints:
            raise ConfigurationError("breakpoints must not be empty")
        times = [t for t, _ in breakpoints]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigurationError("breakpoint times must strictly increase")
        if any(v < 0 for _, v in breakpoints):
            raise ConfigurationError("breakpoint voltages must be non-negative")
        if breakpoints[0][0] > 0:
            breakpoints = [(0.0, breakpoints[0][1])] + list(breakpoints)
        self.breakpoints: List[Tuple[float, float]] = list(breakpoints)
        self.interpolate = interpolate

    def voltage(self, time: float) -> float:
        """Rail voltage at *time* (held or linearly interpolated)."""
        points = self.breakpoints
        if time <= points[0][0]:
            return points[0][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if time < t1:
                if not self.interpolate:
                    return v0
                fraction = (time - t0) / (t1 - t0)
                return v0 + fraction * (v1 - v0)
        return points[-1][1]


class RampSupply(_BaseSupply):
    """A rail ramping linearly from *v_start* to *v_end* over *duration* seconds.

    Models supply ramp-up after a power-on-reset, or a slow brown-out; after
    the ramp the voltage holds at *v_end*.
    """

    def __init__(self, v_start: float, v_end: float, duration: float,
                 name: str = "vramp") -> None:
        super().__init__(name)
        if v_start < 0 or v_end < 0:
            raise ConfigurationError("voltages must be non-negative")
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        self.v_start = v_start
        self.v_end = v_end
        self.duration = duration

    def voltage(self, time: float) -> float:
        """Rail voltage at *time* along the ramp (clamped at the endpoint)."""
        if time <= 0:
            return self.v_start
        if time >= self.duration:
            return self.v_end
        fraction = time / self.duration
        return self.v_start + fraction * (self.v_end - self.v_start)
