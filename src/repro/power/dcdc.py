"""DC-DC converter model.

In the paper's holistic power chain (Figs. 3 and 8) a DC-DC converter sits
between the storage element and the computational load, and the voltage
sensor's job is to tell the controller what the converter is actually
delivering.  The paper also points out that maintaining a stable rail from a
weak harvester "costs energy (again!)" — so the converter model's essential
feature is a realistic, load-dependent efficiency curve rather than an ideal
transformer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, PowerError, SupplyCollapseError
from repro.power.capacitor import Capacitor


@dataclass(frozen=True)
class ConverterEfficiency:
    """Efficiency curve parameters for a switching converter.

    Efficiency is modelled as
    ``P_out / (P_out + P_fixed + k_sw·P_out + R_loss·P_out²/V_out²)`` —
    a fixed quiescent overhead (dominates at light load, making light-load
    efficiency poor), a proportional switching loss and an I²R conduction
    loss (dominates at heavy load).
    """

    quiescent_power: float = 1e-6
    switching_loss_fraction: float = 0.05
    conduction_resistance: float = 1.0

    def efficiency(self, output_power: float, output_voltage: float) -> float:
        """Conversion efficiency (0–1) at the given output power and voltage."""
        if output_power < 0:
            raise PowerError("output power must be non-negative")
        if output_power == 0:
            return 0.0
        if output_voltage <= 0:
            raise PowerError("output voltage must be positive")
        current = output_power / output_voltage
        losses = (self.quiescent_power
                  + self.switching_loss_fraction * output_power
                  + self.conduction_resistance * current * current)
        return output_power / (output_power + losses)

    def input_power(self, output_power: float, output_voltage: float) -> float:
        """Input power in watts needed to deliver *output_power*."""
        if output_power == 0:
            return self.quiescent_power
        eff = self.efficiency(output_power, output_voltage)
        if eff <= 0:
            return float("inf")
        return output_power / eff


class DCDCConverter:
    """A regulated output rail fed from a storage capacitor.

    The converter holds its output at ``target_voltage`` as long as the input
    store can supply the required energy; every output-side draw is billed to
    the input store at the efficiency-corrected rate.  When the input store
    collapses below ``minimum_input_voltage`` the output collapses with it
    (brown-out), which is how downstream circuits experience harvester
    droughts.
    """

    def __init__(self, input_store: Capacitor, target_voltage: float,
                 efficiency: Optional[ConverterEfficiency] = None,
                 minimum_input_voltage: float = 0.3,
                 name: str = "dcdc") -> None:
        if target_voltage <= 0:
            raise ConfigurationError("target_voltage must be positive")
        if minimum_input_voltage < 0:
            raise ConfigurationError("minimum_input_voltage must be non-negative")
        self.name = name
        self.input_store = input_store
        self.target_voltage = target_voltage
        self.efficiency_model = efficiency or ConverterEfficiency()
        self.minimum_input_voltage = minimum_input_voltage
        self._energy_delivered = 0.0
        self._energy_drawn_from_input = 0.0
        self._charge_delivered = 0.0

    # ------------------------------------------------------------------

    @property
    def energy_delivered(self) -> float:
        """Energy delivered on the output side, in joules."""
        return self._energy_delivered

    @property
    def energy_drawn_from_input(self) -> float:
        """Energy taken from the input store (includes conversion losses)."""
        return self._energy_drawn_from_input

    @property
    def charge_delivered(self) -> float:
        """Charge delivered on the output side, in coulombs."""
        return self._charge_delivered

    def conversion_loss(self) -> float:
        """Total energy lost in conversion so far, in joules."""
        return self._energy_drawn_from_input - self._energy_delivered

    def set_target_voltage(self, voltage: float) -> None:
        """Reprogram the output rail (the actuator of power-adaptive control)."""
        if voltage <= 0:
            raise ConfigurationError("target_voltage must be positive")
        self.target_voltage = voltage

    # ------------------------------------------------------------------
    # SupplyNode protocol (output side)
    # ------------------------------------------------------------------

    def voltage(self, time: float) -> float:
        """Regulated output voltage, or a collapsing rail during brown-out."""
        vin = self.input_store.voltage(time)
        if vin <= self.minimum_input_voltage:
            # Brown-out: output follows the input store scaled to the target,
            # so loads see a gradual collapse rather than a cliff.
            return self.target_voltage * max(0.0, vin / self.minimum_input_voltage)
        return self.target_voltage

    def draw_charge(self, charge: float, time: float) -> None:
        """Deliver *charge* at the output rail, billing the input store."""
        if not 0.0 <= charge < math.inf:
            raise PowerError(
                f"charge draw {charge!r} is not finite and non-negative")
        vout = self.voltage(time)
        if vout <= 0:
            raise SupplyCollapseError(
                f"DC-DC {self.name!r} output has collapsed"
            )
        output_energy = charge * vout
        # Efficiency is evaluated at an equivalent short-burst power level;
        # we use the energy itself over a 1 µs accounting window.
        window = 1e-6
        eff = self.efficiency_model.efficiency(output_energy / window, vout)
        eff = max(eff, 0.05)
        input_energy = output_energy / eff
        vin = self.input_store.voltage(time)
        if vin <= 0:
            raise SupplyCollapseError(
                f"DC-DC {self.name!r} input store is empty"
            )
        self.input_store.draw_charge(input_energy / vin, time)
        self._energy_delivered += output_energy
        self._energy_drawn_from_input += input_energy
        self._charge_delivered += charge

    def idle_tick(self, duration: float, time: float) -> None:
        """Bill the converter's quiescent power for *duration* seconds of idling."""
        if duration < 0:
            raise PowerError("duration must be non-negative")
        vin = self.input_store.voltage(time)
        if vin <= 0:
            return
        quiescent_energy = self.efficiency_model.quiescent_power * duration
        self.input_store.draw_charge(quiescent_energy / vin, time)
        self._energy_drawn_from_input += quiescent_energy
