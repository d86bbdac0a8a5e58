"""Physical-layer codecs: line codes, FEC, modulation, mode catalog, frames."""

from . import fec, frames, line_codes, modes, modulation
from .fec import *
from .frames import *
from .line_codes import *
from .modes import *
from .modulation import *

__all__ = [
    *fec.__all__,
    *frames.__all__,
    *line_codes.__all__,
    *modes.__all__,
    *modulation.__all__,
]
