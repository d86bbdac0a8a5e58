"""Network layer: topology model, classifier, relays, MAC, event simulator."""

from . import config, engine, mac, relay, topology
from .config import *
from .engine import *
from .mac import *
from .relay import *
from .topology import *

__all__ = [
    *config.__all__,
    *engine.__all__,
    *mac.__all__,
    *relay.__all__,
    *topology.__all__,
]
