"""Counting lifts of closed horocycles on SL_N(Z)\\SL_N(R)/SO_N(R).

Library layout:

* :mod:`horocount.partitions` -- block partitions, the cone's half-spaces
  and the exact norm of the growth vector v0.
* :mod:`horocount.decompose` -- QR/Langlands/per-block-Cartan
  factorizations and the float height function: the oracle that the tests
  and ``selftest`` compare the exact coset heights against.  Import it as
  ``horocount.decompose``; it is not re-exported here, so that importing
  the package does not load numpy.
* :mod:`horocount.constants` -- zeta/xi special values, compact-group
  volumes and the asymptotic counting constant.
* :mod:`horocount.cosets` -- exact enumeration of lifts of bounded height
  (graph search + flag scan oracle, N <= 3).
* :mod:`horocount.measure` -- quadrature of the diagonal measure over
  height balls and cones.
* :mod:`horocount.dynamics` -- the clean-sequence limit classifier:
  divergence and the coarse partition of the limit's support.
* :mod:`horocount.cli` -- the ``horocount`` command-line tool.
"""

__version__ = "0.1.0"

from .partitions import (  # noqa: F401
    Cone,
    Partition,
    make_partition,
    p_norm,
    p_norm_squared,
)
from .constants import (  # noqa: F401
    CountingConstant,
    asymptotic_count,
    counting_constant,
    vol_sl_mod,
    vol_so,
    xi,
    xi_identity_check,
    zeta,
)
