import os

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # HYPOTHESIS_PROFILE=ci runs the same examples every time, so a
    # property that fails in CI fails the same way locally.
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from grover_optics import CavityConfig, TrapezoidPhasePlate, cavity

# Measured-plate experiment values: oracle flat widths with the ramp
# each wire shadow produces, all at -1.1 rad per pass.
PAPER_PLATES = {
    42.0: 4.0,
    84.0: 8.0,
    126.0: 37.0,
}


def paper_cavity(flat_um: float, n_pulses: int = 12, **overrides) -> CavityConfig:
    """Cavity at the measured-experiment defaults for one oracle width."""
    ramp_um = PAPER_PLATES[flat_um]
    kwargs = dict(
        oracle_plate=TrapezoidPhasePlate(
            center=150e-6,
            flat_width=flat_um * 1e-6,
            ramp_width=ramp_um * 1e-6,
            phase_depth=-1.1,
        ),
        iaa_plate=TrapezoidPhasePlate(
            center=0.0, flat_width=136e-6, ramp_width=8e-6, phase_depth=-1.1
        ),
        n_pulses=n_pulses,
    )
    kwargs.update(overrides)
    return CavityConfig(**kwargs)


def ideal_cavity(flat_um: float = 42.0, n_pulses: int = 30, **overrides) -> CavityConfig:
    """Hard-edged quarter-wave plates, no loss: the textbook iterator."""
    kwargs = dict(
        oracle_plate=TrapezoidPhasePlate(
            center=150e-6,
            flat_width=flat_um * 1e-6,
            ramp_width=0.0,
            phase_depth=-np.pi / 2,
        ),
        iaa_plate=TrapezoidPhasePlate(
            center=0.0, flat_width=136e-6, ramp_width=0.0, phase_depth=-np.pi / 2
        ),
        roundtrip_energy_factor=1.0,
        n_pulses=n_pulses,
    )
    kwargs.update(overrides)
    return CavityConfig(**kwargs)


def recorded(configs: list) -> tuple[list, np.ndarray]:
    """The traces of the pulse loop over ``configs`` (``_run_batch``) and
    the ``(B, P, n)`` profiles it hands to ``on_pulse``, each pulse copied
    before the loop overwrites it."""
    pulses = []
    traces = cavity._run_batch(configs, lambda row, intensities: pulses.append(intensities.copy()))
    return traces, np.stack(pulses, axis=1)


def compensated_rows(trace, profiles: np.ndarray, loss_factor: float) -> np.ndarray:
    """The ``compensated_intensity`` column of ``profiles.csv``, unformatted,
    one row per pulse: ``profile * loss_factor ** (-count)``, with ``count``
    the trace's float64 iteration count, as the writer computes it."""
    return np.array([
        profile * loss_factor ** (-count)
        for count, profile in zip(trace.iteration_counts, profiles)
    ])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260818)
