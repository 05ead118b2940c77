"""``repro.kernels`` — the vectorized aggregation stack.

The cold path (one Algorithm 2 substrate build plus one Algorithm 3
CRT pass per bandwidth class) dominates every generation bump.  This
package computes those fixed points with exact level-order array
sweeps over a compiled anchor tree instead of iterate-until-quiescent
rounds:

* :mod:`repro.kernels.tree` — CSR-style tree compilation;
* :mod:`repro.kernels.aggr` — the Algorithm 2 node-info sweep and the
  clustering spaces derived from its arrays;
* :mod:`repro.kernels.crt` — batched per-class CRT kernels;
* :mod:`repro.kernels.churn` — splice + masked re-sweep that carry the
  compiled arrays across a single-leaf membership event;
* :mod:`repro.kernels.answers` — dense per-``(generation, class)``
  answer tables that turn the warm Algorithm 4 walk plus cluster
  extraction into a binary search and a gather.

These kernels are the only production implementation.  The paper-
literal round protocol survives as the standalone
:class:`~repro.core.decentralized.DecentralizedClusterSearch` (used by
the simulator and the experiments), and it is the oracle the
differential tests in ``tests/core/test_kernels.py`` hold every kernel
to, bit for bit.

Layering is enforced by lint rule RPR010 — kernels may depend only on
the stdlib, NumPy, ``repro.metrics``, and ``repro.exceptions``.
"""

from __future__ import annotations

__all__: list[str] = []
