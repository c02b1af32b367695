"""Discrete amplitude-amplification reference model.

A reduced two-amplitude recursion that tracks the marked and unmarked
amplitudes: exact for a uniformly prepared register, and happy to take
non-integer effective sizes.  It accepts generalized oracle/diffusion
phases (Hoyer, PRA 62, 052304 (2000)); at phase pi the diffusion step
is exactly the inversion about the average.  The tests check it against
a full state vector written in plain numpy (``tests/oracle.py``).

Phase bookkeeping: one optical cavity roundtrip traverses each plate
twice, so a cavity run with per-pass plate phase phi corresponds to
driving these iterates with phase 2*phi.  ``optimal_iterations`` takes
the per-pass phase directly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "GroverReducedState",
    "reduced_iterate",
    "success_probability",
    "optimal_iterations",
    "oscillation_period",
]

_NORM_GUARD = 1e-10


def _check_counts(n_items: float, n_marked: float) -> None:
    if not (n_items > 0):
        raise ConfigurationError(f"n_items must be positive, got {n_items}")
    # The formulas take the square root of N/m, which must be a finite float.
    if not (0 < n_marked <= n_items and n_items / n_marked < np.inf):
        raise ConfigurationError(f"n_marked must lie in (0, n_items] with n_items / n_marked "
                                 f"finite in float64, got {n_marked} with n_items {n_items}")


@dataclass(frozen=True)
class GroverReducedState:
    """Marked/unmarked amplitude pair of an N-item register.

    ``n_items`` and ``n_marked`` may be non-integer: the optical
    analogue has an *effective* database size given by a ratio of beam
    and plate widths.  States are normalized so that
    n_marked*|amp_marked|^2 + (n_items - n_marked)*|amp_unmarked|^2 = 1.
    """

    n_items: float
    n_marked: float
    amp_marked: complex
    amp_unmarked: complex

    def __post_init__(self) -> None:
        _check_counts(self.n_items, self.n_marked)
        norm = self.n_marked * abs(self.amp_marked) ** 2 + (
            self.n_items - self.n_marked
        ) * abs(self.amp_unmarked) ** 2
        if abs(norm - 1.0) > _NORM_GUARD:
            raise ConfigurationError(
                f"state norm {norm!r} deviates from 1 by more than {_NORM_GUARD}"
            )

    @classmethod
    def uniform(cls, n_items: float, n_marked: float) -> "GroverReducedState":
        """Equal superposition: every amplitude 1/sqrt(n_items)."""
        _check_counts(n_items, n_marked)
        amp = 1.0 / np.sqrt(n_items)
        return cls(n_items, n_marked, complex(amp), complex(amp))

    @property
    def success_probability(self) -> float:
        """Probability of finding a marked item on measurement."""
        return float(self.n_marked * abs(self.amp_marked) ** 2)


def reduced_iterate(
    state: GroverReducedState, phase_oracle: float, phase_diffusion: float
) -> GroverReducedState:
    """One generalized Grover iteration on the two-amplitude state.

    The oracle multiplies the marked amplitude by exp(i*phase_oracle);
    the diffusion applies (1 - exp(i*phase_diffusion))|s><s| - I, which
    at phase pi is the inversion about the average (up to global sign).
    """
    a = state.amp_marked * np.exp(1j * phase_oracle)
    b = state.amp_unmarked
    mean_term = (
        (1.0 - np.exp(1j * phase_diffusion))
        * (state.n_marked * a + (state.n_items - state.n_marked) * b)
        / state.n_items
    )
    return GroverReducedState(
        state.n_items,
        state.n_marked,
        complex(mean_term - a),
        complex(mean_term - b),
    )


def success_probability(k: float, n_items: float, n_marked: float) -> float:
    """Ideal-phase closed form sin^2((2k+1) * arcsin(sqrt(m/N)))."""
    _check_counts(n_items, n_marked)
    theta = np.arcsin(np.sqrt(n_marked / n_items))
    return float(np.sin((2.0 * k + 1.0) * theta) ** 2)


def optimal_iterations(n_items: float, n_marked: float, phase_per_pass: float) -> float:
    """Iteration count maximizing the marked amplitude.

    ``phase_per_pass`` is the single-pass plate phase; the reduced
    per-pass phase lengthens the optimum from (pi/4)sqrt(N/m) to
    pi/(4 sin|phase|) * sqrt(N/m).
    """
    _check_counts(n_items, n_marked)
    magnitude = abs(phase_per_pass)
    if not (0 < magnitude <= np.pi / 2):
        raise ConfigurationError(
            f"phase_per_pass magnitude must lie in (0, pi/2], got {phase_per_pass}"
        )
    return float(
        np.pi / (4.0 * np.sin(magnitude)) * np.sqrt(n_items / n_marked)
    )


def oscillation_period(n_items: float, n_marked: float) -> float:
    """Period (pi/2) * sqrt(N/m) of the find/unfind probability cycle."""
    _check_counts(n_items, n_marked)
    return float(np.pi / 2.0 * np.sqrt(n_items / n_marked))
