"""Multi-granularity attention model for group recommendation."""

__version__ = "0.1.0"

from .config import Config  # noqa: F401
from .data import Dataset, Split  # noqa: F401
from .model import AblationMask  # noqa: F401
