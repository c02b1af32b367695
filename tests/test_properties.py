"""Properties of the FFT-native pulse loop, on random complex arrays.

``run_search`` keeps its field in FFT-native (``ifftshift``ed) order and
relies on four facts checked here for every power of two from 16 to
4096 samples: the parity flip has the same formula in both orders, two
unitary FFTs are that flip, one native half pass is the centered chain
of ``tests/oracle.py``, bit for bit, and a batch of rows is that many
one-row runs, bit for bit.  Below 16384 samples numpy computes some
operations in different temporaries than above, so these sizes are
checked on their own.  The loop's slit energies are the sums of the
recorded profiles times the slit overlap, bit for bit, wherever the slit
sits.  Two more facts follow: the centered transform
preserves energy, and ``first_maximum`` ignores a uniform scale of the
peak values, and the two-amplitude model follows the full state vector
for any register, marked count and phases.  The file closes with the
table writer's cell formatter, which must spell every float64 exactly
as ``'%.9g' % v`` does.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from grover_optics import (  # noqa: E402
    CavityConfig,
    ComplexField,
    FourierGrid,
    Grid1D,
    GroverReducedState,
    LossModel,
    MeasurementError,
    PeakTrace,
    TrapezoidPhasePlate,
    cavity,
    dft_centered,
    first_maximum,
    reduced_iterate,
)
from grover_optics.cavity import _native_half_pass  # noqa: E402
from grover_optics.elements import _window_overlap  # noqa: E402
from grover_optics.fields import _reverse_about_zero  # noqa: E402
from grover_optics.runner import _FAST_MIN_CELLS, _CellFormatter  # noqa: E402

import oracle  # noqa: E402

sizes = st.integers(min_value=4, max_value=12).map(lambda k: 2**k)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_field(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@settings(deadline=None)
@given(n=sizes, seed=seeds)
def test_native_flip_is_the_centered_parity_flip(n, seed):
    a = random_field(n, seed)
    expected = np.fft.ifftshift(oracle.flip(np.fft.fftshift(a)))
    assert np.array_equal(_reverse_about_zero(a), expected)


@settings(deadline=None)
@given(n=sizes, seed=seeds)
def test_two_unitary_ffts_are_the_flip(n, seed):
    a = random_field(n, seed)
    twice = np.fft.fft(np.fft.fft(a, norm="ortho"), norm="ortho")
    assert np.max(np.abs(twice - _reverse_about_zero(a))) <= 1e-12


@settings(deadline=None)
@given(n=sizes, seed=seeds, factor=st.floats(min_value=0.05, max_value=1.0))
def test_native_half_pass_is_the_field_chain_bit_for_bit(n, seed, factor):
    # The IAA mask is random; the chain is the oracle's, in centered order.
    a = random_field(n, seed)
    iaa = np.exp(1j * np.random.default_rng(seed + 1).uniform(-np.pi, np.pi, n))
    scale = factor ** (0.5 / 2.0)
    chain = oracle.half_pass(a, iaa, scale)
    native = _native_half_pass(np.fft.ifftshift(a), np.fft.ifftshift(iaa), scale,
                               np.empty(n, dtype=complex))
    assert np.array_equal(native, np.fft.ifftshift(chain))


TRACE_FIELDS = ("iteration_counts", "profiles", "peak_positions", "peak_values",
                "compensated_peak_values", "total_energies", "slit_energies",
                "peak_at_edge")


@settings(deadline=None)
@given(n=sizes, rows=st.integers(min_value=1, max_value=5), seed=seeds,
       factor=st.floats(min_value=0.05, max_value=1.0),
       n_pulses=st.integers(min_value=1, max_value=3), record=st.booleans())
def test_batched_kernel_is_the_one_row_kernel_bit_for_bit(n, rows, seed, factor,
                                                          n_pulses, record):
    # Plates that fit any of these grids, told apart by their depth; the
    # kernel sees random phasors in their place (a plate phasor is 1 off
    # its support, where the operand order of a multiply cannot show).
    grid = Grid1D(n, 2e-6)
    iaa_plate = TrapezoidPhasePlate(center=0.0, flat_width=1e-6, ramp_width=0.0,
                                    phase_depth=0.0)
    oracle_plates = [
        TrapezoidPhasePlate(center=0.0, flat_width=1e-6, ramp_width=0.0,
                            phase_depth=0.1 * (k + 1))
        for k in range(rows)
    ]
    rng = np.random.default_rng(seed)
    phasors = {plate: np.exp(1j * rng.uniform(-np.pi, np.pi, n))
               for plate in (iaa_plate, *oracle_plates)}
    configs = [
        CavityConfig(oracle_plate=plate, iaa_plate=iaa_plate,
                     input_fwhm=grid.extent / (6 + k), loss=LossModel(factor),
                     grid=grid, n_pulses=n_pulses)
        for k, plate in enumerate(oracle_plates)
    ]
    with mock.patch.object(cavity, "plate_phasor",
                           lambda plate, grid, passes: phasors[plate]):
        batch = cavity._run_batch(configs, record)
        singles = [cavity._run_batch([config], record)[0] for config in configs]
    for batched, single in zip(batch, singles):
        for name in TRACE_FIELDS:
            if name == "profiles" and not record:
                assert batched.profiles is None and single.profiles is None
            else:
                assert np.array_equal(getattr(batched, name), getattr(single, name)), name


def slit_center(where: str, grid: Grid1D) -> float:
    """A slit center on the beam, far off it, or astride the grid's
    first cell edge (half the window off the grid)."""
    if where == "on":
        return 0.0
    if where == "far":  # as 12 mm is on the default 32.8 mm grid
        return 0.37 * grid.extent
    return -(grid.n_samples // 2 + 0.5) * grid.pitch


@settings(deadline=None)
@given(n=sizes, seed=seeds,
       slits=st.lists(st.tuples(st.sampled_from(["on", "far", "edge"]),
                                st.floats(min_value=0.3, max_value=30.0)),
                      min_size=1, max_size=4),
       record=st.booleans())
def test_loop_slit_energy_is_the_profile_sum_bit_for_bit(n, seed, slits, record):
    # Each row has its own slit, ``pitches`` sample cells wide; random
    # plate phasors give the intensity structure.
    grid = Grid1D(n, 2e-6)
    iaa_plate = TrapezoidPhasePlate(center=0.0, flat_width=1e-6, ramp_width=0.0,
                                    phase_depth=0.0)
    oracle_plates = [
        TrapezoidPhasePlate(center=0.0, flat_width=1e-6, ramp_width=0.0,
                            phase_depth=0.1 * (k + 1))
        for k in range(len(slits))
    ]
    rng = np.random.default_rng(seed)
    phasors = {plate: np.exp(1j * rng.uniform(-np.pi, np.pi, n))
               for plate in (iaa_plate, *oracle_plates)}
    configs = [
        CavityConfig(oracle_plate=plate, iaa_plate=iaa_plate, input_fwhm=grid.extent / 6,
                     grid=grid, n_pulses=3, slit_width=pitches * grid.pitch,
                     slit_center=slit_center(where, grid))
        for plate, (where, pitches) in zip(oracle_plates, slits)
    ]
    with mock.patch.object(cavity, "plate_phasor",
                           lambda plate, grid, passes: phasors[plate]):
        loop = cavity._run_batch(configs, record)
        recorded = cavity._run_batch(configs, True)
    for config, measured, traced in zip(configs, loop, recorded):
        overlap = _window_overlap(grid, *config.slit_window)
        expected = [np.sum(profile * overlap) for profile in traced.profiles]
        assert measured.slit_energies.tolist() == expected


@settings(deadline=None)
@given(n=sizes, seed=seeds)
def test_centered_transform_preserves_energy(n, seed):
    grid = Grid1D(n, 2e-6)
    a = random_field(n, seed)
    out = dft_centered(ComplexField(grid, a), FourierGrid(grid, 532e-9, 0.4))
    before, after = np.sum(np.abs(a) ** 2), np.sum(np.abs(out.amplitudes) ** 2)
    assert abs(after - before) <= 1e-12 * before


registers = st.integers(min_value=2, max_value=512).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n)))
phases = st.floats(min_value=-np.pi, max_value=np.pi)


@settings(deadline=None)
@given(register=registers, phase_oracle=phases, phase_diffusion=phases)
def test_reduced_model_follows_the_full_state(register, phase_oracle, phase_diffusion):
    # The fixed cavity-like case (N = 1024, m = 7, 50 steps) is
    # test_reference.py's test_reduced_matches_full_for_generalized_phases.
    n_items, n_marked = register
    reduced = GroverReducedState.uniform(n_items, n_marked)
    full = oracle.uniform(n_items)
    for _ in range(20):
        reduced = reduced_iterate(reduced, phase_oracle, phase_diffusion)
        full = oracle.grover_step(full, slice(n_marked), phase_oracle, phase_diffusion)
        assert np.max(np.abs(full[:n_marked] - reduced.amp_marked)) <= 1e-12
        assert np.max(np.abs(full[n_marked:] - reduced.amp_unmarked), initial=0.0) <= 1e-12


@given(values=st.lists(st.integers(min_value=1, max_value=1000), min_size=3,
                       max_size=20),
       factor=st.floats(min_value=1e-3, max_value=1e3))
def test_first_maximum_ignores_a_uniform_scale(values, factor):
    counts = np.arange(len(values)) + 0.5
    peaks = np.array(values, dtype=float)
    try:
        expected = first_maximum(PeakTrace(counts, peaks, counts))
    except MeasurementError:
        with pytest.raises(MeasurementError):
            first_maximum(PeakTrace(counts, peaks * factor, counts))
        return
    found = first_maximum(PeakTrace(counts, peaks * factor, counts))
    assert abs(found - expected) <= 1e-12 * abs(expected)


def formatted(values: np.ndarray) -> list[str]:
    """The writer's cell text for each value, through its fast path: the
    values are repeated to fill one chunk long enough to take it."""
    values = np.resize(values, max(values.size, _FAST_MIN_CELLS))
    cells = np.empty(values.shape + (16,), dtype=np.uint8)
    _CellFormatter(values.size)(values, cells)
    return [bytes(cell).rstrip(b"\0").decode() for cell in cells]


def percent(values: np.ndarray) -> list[str]:
    values = np.resize(values, max(values.size, _FAST_MIN_CELLS))
    return ["%.9g" % value for value in values.tolist()]


def nudged(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, np.inf if ulps > 0 else -np.inf))
    return value


@given(bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
                     max_size=40))
def test_cells_spell_any_bit_pattern_as_percent_9g(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert formatted(values) == percent(values)


@given(digits=st.integers(min_value=10**8, max_value=10**9 - 1),
       exponent=st.integers(min_value=-330, max_value=299),
       ulps=st.integers(min_value=-3, max_value=3))
def test_cells_round_near_ties_as_percent_9g(digits, exponent, ulps):
    # The double nearest to a rounding tie of the 9th digit, and its
    # neighbours: the scaled value lands within the tie margin.
    tie = float(Fraction(2 * digits + 1, 2) * Fraction(10) ** exponent)
    values = np.array([nudged(tie, ulps), -nudged(tie, ulps)])
    assert formatted(values) == percent(values)


@given(exponent=st.integers(min_value=-332, max_value=298),
       below=st.integers(min_value=1, max_value=2**30 - 1))
def test_cells_carry_across_a_power_of_ten_as_percent_9g(exponent, below):
    # Less than half a unit of the 9th digit under 10**(exponent + 9), so
    # '%.9g' rounds up to that power: 9.9999999996e-05 -> 0.0001 and
    # 999999999.6 -> 1e+09 switch notation on the way.
    value = float((10**9 - Fraction(below, 2**31)) * Fraction(10) ** exponent)
    values = np.array([value, -value])
    assert formatted(values) == percent(values)


@example(values=[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308])
@example(values=[9.9999999996e-05, 999999999.6, 1e100, -1.5e-100, 1e-290, 1e290])
@given(values=st.lists(st.one_of(st.floats(), st.floats(min_value=1e100),
                                 st.floats(max_value=-1e100),
                                 st.floats(min_value=-1e-100, max_value=1e-100)),
                       min_size=1, max_size=40))
def test_cells_spell_special_and_extreme_values_as_percent_9g(values):
    values = np.array(values, dtype=np.float64)
    assert formatted(values) == percent(values)
