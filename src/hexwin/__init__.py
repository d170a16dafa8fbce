"""Hexagonal shifted-window attention over spot arrays.

Geometry (lattice scaling, cube rounding), shifted hexagonal window
partitions with slot packing, rotary positional encoding on cube axes,
a staged masked-attention network with hand-derived gradients, the
four-term training objective, evaluation metrics, and a synthetic data
generator for desk-scale verification.
"""

__version__ = "0.1.0"
