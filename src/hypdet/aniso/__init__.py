"""Anisotropic Fourier laboratory: dyadic band machinery on a 2D chart.

Import the submodules, partition and blocks; the package re-exports nothing.
"""
