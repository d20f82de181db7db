"""hooklab: exact t-hook combinatorics and numerical asymptotics for the
partition classes of the first Rogers-Ramanujan and first little Gollnitz
identities.

The package has four layers:

* ``classes``  -- the four restricted partition classes, membership and
  exhaustive enumeration;
* ``hooks``    -- Young-diagram geometry (conjugation, hook lengths,
  t-hook counts) and hook censuses over the classes;
* ``qseries``  -- exact truncated power series for every generating
  function attached to the classes, with oracle-style identity checks;
* ``asym``     -- floating-point probes of the saddle-point asymptotics
  (the dilogarithm, the eta residual, Nahm-sum evaluation near q=1).

``cli`` wires these into the ``hooklab`` command.
"""

from .classes import ClassId, contains
from .hooks import HookCensus, census, conjugate, hook_lengths, shortcut_stats, t_hook_count
from .qseries import (
    BivariateSeries,
    TruncatedSeries,
    identity_check_sum_product,
    inv_pochhammer_product,
    series_H,
    series_S,
)

__version__ = "0.1.0"

__all__ = [
    "ClassId",
    "contains",
    "HookCensus",
    "census",
    "conjugate",
    "hook_lengths",
    "shortcut_stats",
    "t_hook_count",
    "TruncatedSeries",
    "BivariateSeries",
    "inv_pochhammer_product",
    "series_S",
    "series_H",
    "identity_check_sum_product",
    "__version__",
]
