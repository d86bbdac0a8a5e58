"""Network layer: topology model, classifier, event simulator."""

from . import config, engine, topology
from .config import *
from .engine import *
from .topology import *

__all__ = [
    *config.__all__,
    *engine.__all__,
    *topology.__all__,
]
