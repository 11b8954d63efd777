"""Exact-arithmetic workbench for Novikov-coefficient equivariant chain
complexes, Cartan-style connection calculus, quantum connections, the
characteristic-2 finite analogue, and the supporting Morse-flow numerics."""

__version__ = "0.1.0"
