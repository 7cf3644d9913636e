"""Single-ancilla eigenspace reflection circuits.

Given oracle access to a unitary U and an eigenphase theta separated
from the rest of the spectrum by an angular gap, this package designs
an averaging-kernel polynomial, completes it to a complementary pair on
the unit circle, synthesizes interleaved ancilla-rotation angles, and
emits a circuit over {controlled-U, controlled-U adjoint, one-qubit
rotations} whose upper block approximates the reflection 2P - 1 through
the target eigenspace.  A simulator that only multiplies by U and an
eigendecomposition oracle verify the construction end to end.
"""

# Each library module's __all__ is the one declaration of its public names; cli is left
# out, so importing the package loads no argparse.
from . import circuit, completion, gqsp, oracle, poly, sim, testgen
from .circuit import *  # noqa: F403
from .completion import *  # noqa: F403
from .gqsp import *  # noqa: F403
from .oracle import *  # noqa: F403
from .poly import *  # noqa: F403
from .sim import *  # noqa: F403
from .testgen import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (poly, completion, gqsp, circuit, sim, oracle, testgen)
    for name in module.__all__
]
