"""heatchain: exact and Monte Carlo heat statistics for collision chains.

A small thermal system collides once with each member of a sequence of
independently thermal ancillas, every collision conserving the pair's
total energy.  The package enumerates the joint law of the heats delivered
to the ancillas exactly, samples it by Monte Carlo, and checks the
detailed and integral fluctuation identities relating the forward and
reversed protocols, along with three equivalent accounts of the average
entropy production.
"""

from .model import *
from .unitaries import *
from .chain import *
from .heatstats import *
from .sampler import *
from .streams import *

__version__ = "0.1.0"
