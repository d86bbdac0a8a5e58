"""Network layer: topology model, classifier, MAC, event simulator."""

from . import config, engine, mac, topology
from .config import *
from .engine import *
from .mac import *
from .topology import *

__all__ = [
    *config.__all__,
    *engine.__all__,
    *mac.__all__,
    *topology.__all__,
]
