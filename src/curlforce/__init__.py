"""curlforce: a numerical laboratory for planar motion under curl forces."""

__version__ = "0.1.0"

from .core import *
from .integrate import *
from .systems import *
from .invariants import *
from .analysis import *

__all__ = [name for name in dir() if not name.startswith("_")]
