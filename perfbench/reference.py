"""The fixed reference kernel that every timed operation is paired with.

The host's speed drifts by tens of percent between runs, and it hits the
reference kernel and the program alike, because both do the same kind of
work: Python big-int, ``Fraction`` and dict arithmetic, here as sympy
``QQ[q]`` gcds, a matrix product over ``QQ(t)`` and repeated ``Fraction``
matrix products, all on fixed inputs.  An
operation's process CPU time is multiplied by ``NOMINAL_S / measured``,
where ``measured`` is the kernel's CPU time taken next to it; the result
is the operation's CPU time on a host as fast as the nominal one.

This module never imports ``qtetra``: a change to the program must not
change the yardstick.
"""

from __future__ import annotations

import time
from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.fields import field
from sympy.polys.rings import ring

# The kernel's median process CPU time, run back-to-back on the 2-vCPU
# machine the README's figures come from.  Fixed once: it only sets the
# unit, and changing it rescales every reported time.
NOMINAL_S = 0.022

_R, _q = ring('q', QQ)
_F, _t = field('t', QQ)


def _inputs():
    # products sharing a degree-12 factor, with rational coefficients,
    # so each gcd does real cancellation work
    common = sum(((k % 7) - 3 + QQ(1, k + 2)) * _q ** k for k in range(13))
    left = common * sum((QQ(k + 1, 3) * _q ** k for k in range(9)), _R(0))
    right = common * sum((QQ(2 * k - 5, 7) * _q ** k for k in range(10)),
                         _R(0))
    # a 4x4 matrix over QQ(t), as symbolic modules store their entries
    frac = [[(_t ** ((i + j) % 3) + i - j) / (_t ** ((i * j) % 3) + i + 2)
             for j in range(4)] for i in range(4)]
    # a 6x6 rational matrix, as specialized modules store theirs
    mat = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4)
            for j in range(6)] for i in range(6)]
    return left, right, frac, mat


_LEFT, _RIGHT, _FRAC, _MAT = _inputs()


def _product(a, b, zero):
    return [[sum((x * y for x, y in zip(row, col)), zero)
             for col in zip(*b)] for row in a]


def _kernel():
    for _ in range(4):
        _LEFT.gcd(_RIGHT)
    _product(_FRAC, _FRAC, _F(0))
    acc = _MAT
    for _ in range(10):
        acc = _product(acc, _MAT, 0)


def reference_cpu() -> float:
    """Process CPU seconds of one run of the kernel."""
    start = time.process_time()
    _kernel()
    return time.process_time() - start
