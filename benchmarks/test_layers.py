"""LAYERS — one call of each hot layer, timed on its own.

The figure benchmarks time whole plans; these time the layers the plans
spend their time in, so a regression can be placed:

* one :meth:`GateModel.delay <repro.models.gate.GateModel.delay>` call
  and one :meth:`GateModel.transition_energy
  <repro.models.gate.GateModel.transition_energy>` call — the device-model
  calls every simulated transition makes;
* one Fig. 11 conversion (cmos90, 30 pF, 0.3 V sampled) — the event-driven
  charge-to-digital path that dominates the sensor workloads;
* one :func:`~repro.analysis.cache.result_key` of a smoke ``paper_space``
  ``gate_metrics`` run with its four metric quantities — the content key
  every persistent-cache lookup, distrib submit and campaign signature
  computes.

Each benchmark also pins its value (``float.hex`` for the models): a
speedup only counts when the values are unchanged.
"""

import re

from repro.analysis.cache import result_key
from repro.analysis.report import format_table
from repro.models.gate import GateModel, GateType
from repro.power.supply import ConstantSupply
from repro.sensors.charge_to_digital import ChargeToDigitalConverter

from conftest import emit

VDD = 0.3


def test_layer_gate_delay(tech, benchmark):
    gate = GateModel(technology=tech, gate_type=GateType.TOGGLE)
    delay = benchmark(gate.delay, VDD)
    assert delay.hex() == "0x1.aa00861487d90p-33"


def test_layer_transition_energy(tech, benchmark):
    gate = GateModel(technology=tech, gate_type=GateType.TOGGLE)
    energy = benchmark(gate.transition_energy, VDD)
    assert energy.hex() == "0x1.758bebd8e1da5p-54"


def test_layer_conversion_cmos90_30pf(tech, benchmark):
    converter = ChargeToDigitalConverter(technology=tech,
                                         sampling_capacitance=30e-12)
    result = benchmark(lambda: converter.convert(ConstantSupply(VDD)))

    seconds = benchmark.stats.stats.median
    emit(format_table(
        "LAYERS — one cmos90 30 pF conversion at 0.3 V",
        ["pulses", "counter value", "host us/pulse"],
        [[result.pulses, result.counter_value,
          seconds / result.pulses * 1e6]]))

    # Stage 0 stalls on the last pulse, so the value trails the count.
    assert (result.pulses, result.counter_value) == (3853, 3852)
    assert result.final_voltage.hex() == "0x1.1eb42d70264f7p-3"
    assert result.conversion_time.hex() == "0x1.09c6be763de84p-13"
    assert result.charge_consumed.hex() == "0x1.51c962065ee79p-38"


def test_layer_result_key(smoke_campaign, benchmark):
    run = next(run for run in smoke_campaign.runs
               if smoke_campaign.spec.scenarios[run.scenario_index].point
               == "gate_metrics")
    assert sorted(run.quantities) == ["delay", "energy", "frequency",
                                      "leakage"]
    key = benchmark(result_key, run.plan, run.quantities, salt="layers")

    # Code hashes differ between interpreter versions, so the key itself
    # is not pinned; its shape and its determinism are.
    assert re.fullmatch("[0-9a-f]{32}", key)
    assert key == result_key(run.plan, run.quantities, salt="layers")
