"""Exact homological computations for finite quandles.

Builds dihedral and octahedral quandle tables, runs the two face maps on
sparse integer chains, evaluates and verifies 3-cocycles, enumerates
families of 3-terms with vanishing color-deletion image, computes
exact kernels of the face-map pair on finite slices, and searches for
shortest cycles pairing nontrivially with a cocycle.
"""

__version__ = "0.1.0"
