"""Stacked rescaled-DFT tight frames and Riesz partition certificates.

The package builds explicit unit-norm r-tight families of r^2*n vectors in
C^(r*n) from column-rescaled DFT blocks, exposes the frame and projection
operations needed to check them, and certifies numerically that no split of
the family into r parts keeps every part's Riesz bound above a threshold
that shrinks like 1/n. A doubling map trades entry size for dimension while
preserving the obstruction. The `nonpaving` console script drives the same
machinery from the command line.
"""

# Each star import also binds its module here, whose __all__ is read below.
from .matrix_core import *
from .frame_ops import *
from .constructions import *
from .paving_analysis import *
from .errors import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *matrix_core.__all__,
    *frame_ops.__all__,
    *constructions.__all__,
    *paving_analysis.__all__,
    *errors.__all__,
]
