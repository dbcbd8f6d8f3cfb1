"""Batched-quantity speedups on the hottest Monte-Carlo figure kernels.

The batched-quantity protocol (:func:`repro.analysis.runner.batched`)
lets the executor evaluate a whole shard as one numpy pass instead of one
Python call per point.  These benchmarks quantify the win on the two
figure kernels with real arithmetic behind them — the Fig. 7 SI SRAM
write-latency chain (whose Fig. 5 bit-line calibration re-solves an
80-iteration bisection per perturbed sample) and the Fig. 9
charge-to-code drain loop — plus the Fig. 8-style rail sweep of the
converter.

Every test asserts the batched values are *bit-identical* to the
per-point fallback of the same quantity (``Executor(batch=False)``), and
the Monte-Carlo ones additionally record the measured speedup in the
pytest-benchmark ``extra_info``, which lands in the CI ``BENCH_ci.json``
artifact where ``scripts/check_batched_speedup.py`` enforces the >= 10x
floor.
"""

import time

import pytest

from repro.analysis.report import format_table
from repro.analysis.runner import ExperimentPlan, Executor, batched
from repro.models.technology import get_technology
from repro.sensors.batch import predicted_counts
from repro.sensors.charge_to_digital import ChargeToDigitalConverter
from repro.sram.batch import si_write_latency
from repro.sram.sram import SRAMConfig, SpeedIndependentSRAM

from conftest import emit

# The speedup floor reads the benchmark's own timings.
pytestmark = pytest.mark.timed

#: Fig. 7 array at the depleted-rail operating point.
SRAM_CONFIG = SRAMConfig(rows=16, columns=8, calibrate_energy=False)
LOW_VDD = 0.25
WRITE_MC_SAMPLES = 256

#: Fig. 9 converter: a small capacitor keeps the drain loop short.
SAMPLING_CAP = 2e-12
SAMPLED_VDD = 0.55
COUNT_MC_SAMPLES = 64

#: Fig. 8-style rail sweep of the same converter.
SWEEP_VDDS = [0.35 + 0.0075 * i for i in range(48)]


def _mc_write_quantity():
    return batched(lambda batch: si_write_latency(batch, SRAM_CONFIG, LOW_VDD))


def _mc_count_quantity():
    return batched(lambda batch: predicted_counts(
        batch, SAMPLED_VDD, sampling_capacitance=SAMPLING_CAP))


def _timed_pair(plan, quantity, benchmark):
    """Benchmark the batched path; time the per-point path once."""
    result_batched = benchmark(
        lambda: Executor().run(plan, {"value": quantity}))
    start = time.perf_counter()
    result_serial = Executor(batch=False).run(plan, {"value": quantity})
    serial_s = time.perf_counter() - start
    batched_s = benchmark.stats.stats.min
    speedup = serial_s / batched_s
    benchmark.extra_info["per_point_s"] = serial_s
    benchmark.extra_info["batched_s"] = batched_s
    benchmark.extra_info["speedup_vs_per_point"] = speedup
    return result_batched, result_serial, speedup


def test_fig07_write_latency_mc_batched_speedup(tech, benchmark):
    plan = ExperimentPlan.monte_carlo(WRITE_MC_SAMPLES, technology=tech,
                                      seed=7)
    result_batched, result_serial, speedup = _timed_pair(
        plan, _mc_write_quantity(), benchmark)

    values = result_batched.values["value"]
    emit(format_table(
        "FIG7 kernel — Monte-Carlo write latency, batched vs per-point",
        ["samples", "min", "max", "speedup"],
        [[WRITE_MC_SAMPLES, min(values), max(values), f"{speedup:.1f}x"]],
        unit_hints=["", "s", "s", ""]))

    assert result_batched.provenance.executor.startswith("batched[")
    assert result_batched.values == result_serial.values
    # The vectorised chain agrees with the scalar model it mirrors.
    nominal = SpeedIndependentSRAM(tech, SRAM_CONFIG).write_latency(LOW_VDD)
    unperturbed = Executor().run(
        ExperimentPlan.monte_carlo(1, technology=tech, seed=7, sigma_vth=0.0,
                                   sigma_drive=0.0, sigma_leak=0.0),
        {"value": _mc_write_quantity()}).values["value"][0]
    assert unperturbed == pytest.approx(nominal, rel=1e-9)
    assert speedup >= 10.0


def test_fig09_predicted_count_mc_batched_speedup(tech, benchmark):
    plan = ExperimentPlan.monte_carlo(COUNT_MC_SAMPLES, technology=tech,
                                      seed=9)
    result_batched, result_serial, speedup = _timed_pair(
        plan, _mc_count_quantity(), benchmark)

    counts = result_batched.values["value"]
    emit(format_table(
        "FIG9 kernel — Monte-Carlo predicted counts, batched vs per-point",
        ["samples", "min count", "max count", "speedup"],
        [[COUNT_MC_SAMPLES, int(min(counts)), int(max(counts)),
          f"{speedup:.1f}x"]],
        unit_hints=["", "", "", ""]))

    assert result_batched.provenance.executor.startswith("batched[")
    assert result_batched.values == result_serial.values
    # The closed form agrees with the converter's own prediction.
    converter = ChargeToDigitalConverter(technology=tech,
                                         sampling_capacitance=SAMPLING_CAP)
    assert predicted_counts(tech, SAMPLED_VDD,
                            sampling_capacitance=SAMPLING_CAP)[0] == float(
        converter.predicted_count(SAMPLED_VDD))
    assert speedup >= 10.0


def test_fig08_rail_sweep_batched(tech, benchmark):
    quantity = batched(lambda vdds: predicted_counts(
        tech, vdds, sampling_capacitance=SAMPLING_CAP))
    plan = ExperimentPlan.sweep("sampled_vdd", SWEEP_VDDS)
    result = benchmark(lambda: Executor().run(plan, {"count": quantity}))

    assert result.provenance.executor.startswith("batched[")
    serial = Executor(batch=False).run(plan, {"count": quantity})
    assert result.values == serial.values
    counts = result.values["count"]
    # More sampled charge -> monotonically non-decreasing code.
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]
