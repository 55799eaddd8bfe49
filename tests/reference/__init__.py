"""Test-side reference implementations.

Independent oracles the suite compares the library against: the paper
treats each as a black box or a point of comparison, and no solver path
runs them.

* :mod:`tests.reference.sort` — the [GSZ11] O(1)-round sort and prefix
  sums behind the 3-round "standard technique" charges.
* :mod:`tests.reference.line_graph` — Luby's line-graph reduction
  (an MIS of ``L(G)`` is a maximal matching of ``G``).
* :mod:`tests.reference.parallel_greedy` — the local-minima rounds of
  randomized greedy MIS, equal to sequential greedy under one permutation.
* :mod:`tests.reference.hopcroft_karp` — exact bipartite maximum matching.
* :mod:`tests.reference.filtering` — the LMSV11 filtering maximal
  matching on a mutable set graph (``copy``/``isolate``).
* :mod:`tests.reference.fractional` — the ``{(u, v): x}`` map form of a
  fractional matching, with the scalar load, weight, heavy-set and
  canonical-triple loops the array form must reproduce bit for bit.
* :mod:`tests.reference.cover` — the endpoint set of a matching, the
  set form of :func:`repro.core.vertex_cover.cover_from_maximal_matching`.
"""
