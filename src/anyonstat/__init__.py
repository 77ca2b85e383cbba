"""Numerical toolkit for the computable content of planar spin-statistics:
covering-group algebra, Wigner cocycles, branch-tracked continuation into
the strip, cone-path homotopy, and the statistics-phase pipeline."""

__version__ = "0.1.0"
