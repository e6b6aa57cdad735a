"""Generalized summation toolkit.

Cesaro (C,k) limits of series, integrals, and functions; Hadamard finite
parts of divergent integrals; exact Bernoulli/Faulhaber algebra; and zeta
special values recovered both exactly (zeta(-n) = -B_{n+1}/(n+1)) and
numerically as Cesaro limits of power-sum staircases.
"""
from . import accumulate, exact, finite_part, integral, series, zeta
from .accumulate import *
from .evaluation import CesaroEvaluation
from .exact import *
from .finite_part import *
from .integral import *
from .series import *
from .zeta import *

__version__ = "0.1.0"

# the public surface is each module's __all__, republished, plus these two
__all__ = ["CesaroEvaluation", "__version__"]
__all__ += accumulate.__all__
__all__ += exact.__all__
__all__ += finite_part.__all__
__all__ += integral.__all__
__all__ += series.__all__
__all__ += zeta.__all__
