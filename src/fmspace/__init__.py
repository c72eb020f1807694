"""Symbolic-numeric toolkit for the 4D space of local fundamental measures.

Exact Laurent-ring arithmetic, the pseudo-metric and its isometric /
metamorphic generator algebra, closed-form one-parameter flows with a series
matrix-exponential oracle, and the hard-sphere weight-function identities.

Each name is imported from its module, e.g. `fmspace.flows.closed_flow`.
The exact modules (ring, matrices, catalog, algebra, reference_tables) load
without numpy or mpmath.
"""
