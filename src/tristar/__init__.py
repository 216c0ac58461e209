"""Monochromatic double and triple stars in edge-coloured complete graphs.

Exact finders for the largest monochromatic component, double star, and
triple star; a constructive proof engine that certifies a triple star of
order at least n/(r-1) (global r-colourings, r >= 3) or rn/(r^2-r+1)
(local r-colourings); finite-geometry generators showing both bounds
tight; brute-force oracles and exhaustive small-n checks; and a simulated
annealer probing how small these structures can be made.

Each name is imported from the module that defines it; the package root
holds only __version__, so importing one module loads no other.
"""

__version__ = "0.1.0"
