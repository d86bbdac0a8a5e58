"""owpan: optical wireless personal-area-network link analysis and simulation.

Covers the deterministic channel models for the indoor LED hop and the
outdoor laser hop, Shannon-capacity budgets and sweeps, the PHY mode
catalog with working codecs for the clocked modes, and a discrete-event
network simulator with topology classification.
"""

from . import capacity, channels, params
from .capacity import *
from .channels import *
from .params import *

__version__ = "0.1.0"

__all__ = [*capacity.__all__, *channels.__all__, *params.__all__, "__version__"]
