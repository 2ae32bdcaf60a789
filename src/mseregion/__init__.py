"""MSE region analysis for multi-user MMSE reception.

Computes the per-user mean square errors achieved by linear MMSE
receivers under a sum power constraint, certifies convexity of the
two-user region boundary, solves weighted sum-MSE problems with
first-order optimality certificates, and tests region membership and
segment convexity for three or more users.

The package exports every public name of its modules: each module's
`__all__` is the one list of its public names.
"""

__version__ = "0.1.0"

from . import boundary, io, kkt, model, region, simplex
from .boundary import *
from .io import *
from .kkt import *
from .model import *
from .region import *
from .simplex import *

__all__ = ["__version__"]
__all__ += boundary.__all__
__all__ += io.__all__
__all__ += kkt.__all__
__all__ += model.__all__
__all__ += region.__all__
__all__ += simplex.__all__
