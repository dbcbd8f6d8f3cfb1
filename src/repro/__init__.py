"""repro — a behavioural reproduction of "Energy-Modulated Computing".

The library implements, in pure Python, the full stack sketched by
A. Yakovlev's DATE 2011 vision paper: voltage-aware device and energy models,
an energy-conserving discrete-event kernel, energy-harvesting power chains,
self-timed (speed-independent) circuit primitives, the speed-independent
SRAM, the charge-to-digital and reference-free voltage sensors, and the
system-level energy-modulated policy layer (power-adaptive control,
energy-token scheduling, soft arbitration, stochastic concurrency analysis
and game-theoretic power management).

Quick start
-----------

>>> from repro import get_technology
>>> from repro.core import SpeedIndependentDesign, BundledDataDesign, qos_vs_vdd
>>> tech = get_technology("cmos90")
>>> design1 = SpeedIndependentDesign(tech)
>>> design2 = BundledDataDesign(tech)
>>> curve1 = qos_vs_vdd(design1, [0.2, 0.4, 0.6, 0.8, 1.0])
>>> curve2 = qos_vs_vdd(design2, [0.2, 0.4, 0.6, 0.8, 1.0])
>>> curve1.onset_voltage() < curve2.onset_voltage()   # Design 1 wakes up earlier
True

Subpackages
-----------

============================  ==================================================
:mod:`repro.models`           device, delay and energy models (90 nm default)
:mod:`repro.sim`              discrete-event kernel with energy accounting
:mod:`repro.power`            supplies, harvesters, capacitors, DC-DC, MPPT
:mod:`repro.selftimed`        self-timed gates, counters, handshakes, pipelines
:mod:`repro.sram`             the speed-independent SRAM and its baselines
:mod:`repro.sensors`          charge-to-digital, ring-oscillator and
                              reference-free voltage sensors
:mod:`repro.core`             the energy-modulated policy layer (the paper's
                              contribution)
:mod:`repro.analysis`         sweeps, metrics, Monte-Carlo, text reports
============================  ==================================================
"""

from repro.errors import (
    ConfigurationError,
    ModelError,
    PowerError,
    ReproError,
    SchedulerError,
    SimulationError,
    SupplyCollapseError,
)
from repro.models import Technology
from repro.models.technology import get_technology
from repro.power import (
    ACSupply,
    Capacitor,
    ConstantSupply,
    PowerChain,
    SamplingCapacitor,
    VibrationHarvester,
)
from repro.selftimed import DualRailCounter, SelfTimedCounter, ToggleFlipFlop
from repro.sensors import ChargeToDigitalConverter, ReferenceFreeVoltageSensor
from repro.sim import Simulator
from repro.sram import SpeedIndependentSRAM, BundledSRAM, SRAMConfig

__version__ = "1.0.0"

#: Experiment-execution names re-exported lazily (PEP 562): the session
#: facade is the documented front door (``from repro import Session``),
#: but eager imports here would pull the whole analysis stack into every
#: ``import repro``.
_LAZY_EXPORTS = {
    "Session": "repro.analysis.session",
    "RunConfig": "repro.analysis.session",
    "RunHandle": "repro.analysis.session",
    "default_session": "repro.analysis.session",
    "Executor": "repro.analysis.runner",
    "ExperimentPlan": "repro.analysis.runner",
    "ExperimentResult": "repro.analysis.runner",
    "ResultCache": "repro.analysis.cache",
    "DistribBackend": "repro.analysis.distrib",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    "Session",
    "RunConfig",
    "RunHandle",
    "default_session",
    "Executor",
    "ExperimentPlan",
    "ExperimentResult",
    "ResultCache",
    "DistribBackend",
    "ReproError",
    "ConfigurationError",
    "ModelError",
    "SimulationError",
    "PowerError",
    "SupplyCollapseError",
    "SchedulerError",
    "Technology",
    "get_technology",
    "Simulator",
    "ConstantSupply",
    "ACSupply",
    "Capacitor",
    "SamplingCapacitor",
    "VibrationHarvester",
    "PowerChain",
    "ToggleFlipFlop",
    "SelfTimedCounter",
    "DualRailCounter",
    "SpeedIndependentSRAM",
    "BundledSRAM",
    "SRAMConfig",
    "ChargeToDigitalConverter",
    "ReferenceFreeVoltageSensor",
]
