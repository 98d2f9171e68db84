"""Multi-object tracking with a flexible assignment engine.

Tracker-detection matching is posed as a QUBO with a tunable one-to-one
penalty, solved twice per frame by a ballistic simulated-bifurcation solver,
and arbitrated into match / potentially-match / unmatch outcomes so trackers
can survive long occlusion events.
"""

__version__ = "0.1.0"

from .assign import flexible_assign
from .sb import SbParams, solve_qubo
from .track import BoundingBox, Detection, MultiObjectTracker, TrackConfig

__all__ = [
    "BoundingBox",
    "Detection",
    "MultiObjectTracker",
    "SbParams",
    "TrackConfig",
    "flexible_assign",
    "solve_qubo",
]
