"""Oracles shared by the test modules: the library's results formed another way.

Not collected by pytest (no ``test_`` prefix); the test modules import it
from their own directory.
"""

import numpy as np

from activeflux import operators as ops
from activeflux import solver


def composed_factor(scheme, method, dt):
    """``Q`` of one composed step ``d = D^ (Q u)`` of size ``dt``, built through the operator's constructor.

    ``z sum_j c_(j+1) z^j D^^j`` with ``z = -a dt / dx``: the stencil
    powers weighted by ``c_(j+1) z^j``, summed over ``j`` in order and
    multiplied by ``z``, then given to ``BlockCirculantOp`` by offset.  Its
    normal form sums the offsets that alias mod ``n`` in increasing offset
    order and drops blocks that are zero, so the band may be narrower than
    the powers' (a block of ``z^s`` underflows at a speed of 1e-45).  A
    composed workspace rewrites its own stack in place instead
    (``_ComposedStep._weigh``); this is the oracle of its bits.
    """
    D = scheme.D_effective
    offsets, stack = solver._stencil_powers(D, method.stages)
    z = -scheme.advection_speed * dt * D.scale
    zj, weights = 1.0, []
    for c in solver._stability_coefficients(method)[1:]:
        weights.append(c * zj)
        zj *= z
    blocks = np.add.reduce(np.multiply(np.array(weights)[:, None, None, None], stack), 0)
    return ops.BlockCirculantOp(D.n, D.dx, 1.0, dict(zip(offsets, np.multiply(z, blocks, blocks))))
