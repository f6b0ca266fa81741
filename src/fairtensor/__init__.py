"""Fairness-aware tensor and matrix factorization recommenders of information
curators: the CP kernels (``tensor_core``), the six model kinds (``models``),
the data pipeline (``data``), the quality and fairness metrics (``metrics``)
and the experiment harness (``harness``).  The package's names are each
module's ``__all__``.
"""

from .data import *
from .errors import *
from .harness import *
from .metrics import *
from .models import *
from .tensor_core import *

__version__ = "0.1.0"
