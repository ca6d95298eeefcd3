"""Toolkit for estimating the relative angle between two spin systems.

Implements the optimal (joint, rotationally invariant) measurement and a
local one, the optimal separable one for a spin-1/2 probe, for any pair of
spin coherent states, together with the Bayesian machinery (priors over the
angle, posteriors, information gain in bits), separability thresholds from the
partial-transpose spectrum, and Monte Carlo oracles for the closed forms.
"""

# each public name is declared once, in the __all__ of its module
from .angular import *
from .coupling import *
from .errors import *
from .estimation import *
from .locc import *
from .sim import *
from .states import *

__version__ = "0.1.0"
