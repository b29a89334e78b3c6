"""Thermomajorisation, thermal cones and catalysable regions.

A numpy library for energy-incoherent states: beta-ordering and
thermomajorisation curves, future/past/incomparable classification, the
regions a strict catalyst can unlock together with catalyst dimension and
population bounds, Monte-Carlo region volumes, and two applications
(entanglement generation for two thermal qubits, optimal catalytic cooling).
"""

from . import catalysis, cones, cooling, core, embedding, entanglement, volume
from .core import *  # noqa: F403 (each module's __all__ is its public API)
from .embedding import *  # noqa: F403
from .cones import *  # noqa: F403
from .catalysis import *  # noqa: F403
from .volume import *  # noqa: F403
from .entanglement import *  # noqa: F403
from .cooling import *  # noqa: F403

__all__ = [name for m in (core, embedding, cones, catalysis, volume, entanglement, cooling) for name in m.__all__]

__version__ = "0.1.0"
