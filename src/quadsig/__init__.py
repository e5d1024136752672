"""quadsig: compression-for-queries toolkit.

Computes how far sequences can be compressed while still answering quadratic
similarity queries with zero false negatives, and builds/validates concrete
signature schemes (sphere-covering direction quantizer plus amplitude shells)
that meet that guarantee exactly at any blocklength.
"""

from .analysis import *  # noqa: F403
from .covering import *  # noqa: F403
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .scheme import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"
