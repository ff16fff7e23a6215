"""pviso: three-parameter isomonodromic matrix solutions near x = i*infinity
for the fifth Painleve equation, with numerically verified monodromy data.

Subpackages by concern:

- ``linalg``        complex 2x2 algebra, powers on a given branch of log
- ``special``       complex Gamma / reciprocal Gamma / digamma
- ``series``        truncated series solutions, generic and two-parameter alike
- ``flow``          adaptive transport under the deformation equations
- ``monodromy``     numeric monodromy and Stokes data via loop continuation
- ``closedform``    Gamma-function formulas for the same monodromy data
- ``transcendents`` the Painleve V function y (and z, u), zero/pole lattices
- ``tau``           tau-function log-derivative and the bilinear check
- ``cli``           batch front end
"""

from .series import Parameters

__all__ = ["Parameters"]
__version__ = "0.1.0"
