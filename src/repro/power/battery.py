"""Finite-capacity battery model.

The paper contrasts the battery-powered design style ("finite energy, large
available power, stable and known supply characteristics") with the
energy-harvester style.  :class:`Battery` captures exactly those properties:
a stiff voltage source with a state of charge, a simple internal-resistance
droop, and a cutoff below which it stops delivering.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, PowerError, SupplyCollapseError


class Battery:
    """A finite-energy, nominally-stiff voltage source.

    Parameters
    ----------
    nominal_voltage:
        Open-circuit voltage when full, in volts.
    capacity_joules:
        Total extractable energy in joules.
    internal_resistance:
        Series resistance in ohms used to model voltage droop under load.
    cutoff_fraction:
        State-of-charge fraction below which the battery is considered empty
        and refuses further draws.
    """

    def __init__(self, nominal_voltage: float, capacity_joules: float,
                 internal_resistance: float = 0.0,
                 cutoff_fraction: float = 0.05,
                 name: str = "battery") -> None:
        if nominal_voltage <= 0:
            raise ConfigurationError("nominal_voltage must be positive")
        if capacity_joules <= 0:
            raise ConfigurationError("capacity_joules must be positive")
        if internal_resistance < 0:
            raise ConfigurationError("internal_resistance must be non-negative")
        if not (0.0 <= cutoff_fraction < 1.0):
            raise ConfigurationError("cutoff_fraction must lie in [0, 1)")
        self.name = name
        self.nominal_voltage = nominal_voltage
        self.capacity_joules = capacity_joules
        self.internal_resistance = internal_resistance
        self.cutoff_fraction = cutoff_fraction
        self._remaining = capacity_joules
        self._energy_delivered = 0.0
        self._charge_delivered = 0.0
        self._recent_current = 0.0

    # ------------------------------------------------------------------

    @property
    def state_of_charge(self) -> float:
        """Remaining energy as a fraction of capacity (0–1)."""
        return self._remaining / self.capacity_joules

    @property
    def remaining_energy(self) -> float:
        """Remaining extractable energy in joules."""
        return self._remaining

    @property
    def empty(self) -> bool:
        """True once the state of charge reached the cutoff."""
        return self.state_of_charge <= self.cutoff_fraction

    @property
    def energy_delivered(self) -> float:
        """Total energy delivered to loads, in joules."""
        return self._energy_delivered

    @property
    def charge_delivered(self) -> float:
        """Total charge delivered to loads, in coulombs."""
        return self._charge_delivered

    # ------------------------------------------------------------------
    # SupplyNode protocol
    # ------------------------------------------------------------------

    def voltage(self, time: float) -> float:
        """Terminal voltage: nominal minus IR droop, with a mild SoC slope.

        The open-circuit voltage falls linearly by 10 % from full to the
        cutoff — enough to make voltage sensing meaningful without modelling
        full discharge chemistry.
        """
        soc = self.state_of_charge
        open_circuit = self.nominal_voltage * (0.9 + 0.1 * soc)
        droop = self.internal_resistance * self._recent_current
        return max(0.0, open_circuit - droop)

    def draw_charge(self, charge: float, time: float) -> None:
        """Remove *charge* coulombs; raises when the battery is empty."""
        if not 0.0 <= charge < math.inf:
            raise PowerError(
                f"charge draw {charge!r} is not finite and non-negative")
        if self.empty:
            raise SupplyCollapseError(f"battery {self.name!r} is empty")
        voltage = self.voltage(time)
        energy = charge * voltage
        if energy > self._remaining:
            self._remaining = 0.0
            raise SupplyCollapseError(
                f"battery {self.name!r} exhausted mid-draw"
            )
        self._remaining -= energy
        self._energy_delivered += energy
        self._charge_delivered += charge

    def set_load_current(self, current: float) -> None:
        """Report the present load current (amperes) for droop modelling."""
        if current < 0:
            raise PowerError("load current must be non-negative")
        self._recent_current = current

    def recharge(self, energy: float) -> None:
        """Put *energy* joules back (e.g. from a harvester trickle charger)."""
        if energy < 0:
            raise PowerError("recharge energy must be non-negative")
        self._remaining = min(self.capacity_joules, self._remaining + energy)
