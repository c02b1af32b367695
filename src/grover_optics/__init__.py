"""Fourier-optics simulation of Grover's search in an optical cavity.

A transverse laser profile plays the role of the quantum register: a
trapezoidal phase plate marks the sought position, a second plate in
the lens Fourier plane inverts amplitudes about their average, and the
cavity repeats the pair once per roundtrip.  A discrete
amplitude-amplification model with generalized phases provides the
analytic reference the optical results are checked against.

The public names are those in each module's ``__all__``.
"""

from . import analysis, cavity, config, elements, errors, fields, reference
from ._version import __version__
from .analysis import *  # noqa: F403
from .cavity import *  # noqa: F403
from .config import *  # noqa: F403
from .elements import *  # noqa: F403
from .errors import *  # noqa: F403
from .fields import *  # noqa: F403
from .reference import *  # noqa: F403

__all__ = [
    "__version__",
    *fields.__all__,
    *elements.__all__,
    *cavity.__all__,
    *reference.__all__,
    *analysis.__all__,
    *config.__all__,
    *errors.__all__,
]
