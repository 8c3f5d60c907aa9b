"""The paper's primary contribution: dynamic cache partitioning on pseudo-LRU.

* :func:`minmisses_partition` — the MinMisses target (paper §II-B): the way
  assignment minimising the predicted total miss count, at least one way per
  thread, solved exactly by dynamic programming.
* :func:`lookahead_partition` — Qureshi & Patt's greedy lookahead allocator
  (ablation comparator).
* :func:`best_subcube_allocation` — MinMisses restricted to what BT up/down
  vectors can enforce: one power-of-two subtree-aligned subcube per thread.
* :func:`fair_partition` — fairness-oriented selection (paper mentions such
  variants as extensions of MinMisses).
* :class:`PartitionController` — the interval machinery: at every boundary,
  read the SDHs, select a partition, program the enforcement scheme, halve
  the SDH registers.

:mod:`repro.core.qos` (FlexDCP-style QoS reservations, an extension) is not
re-exported: no figure, selector or engine reaches it.
"""

from repro.core.minmisses import minmisses_partition
from repro.core.lookahead import lookahead_partition
from repro.core.buddy import best_subcube_allocation
from repro.core.fairness import fair_partition
from repro.core.controller import PartitionController, PartitionRecord, select_allocation

__all__ = [
    "minmisses_partition",
    "lookahead_partition",
    "best_subcube_allocation",
    "fair_partition",
    "PartitionController",
    "PartitionRecord",
    "select_allocation",
]
