"""capspec: poly-Laplacian cap spectra and universal eigenvalue bounds.

Computes clamped and buckling eigenvalues of the Dirichlet poly-Laplacian on
geodesic caps of the unit sphere (separation into hyperspherical modes plus a
polynomial radial Galerkin method), evaluates families of universal upper
bounds on the next eigenvalue, and checks the two against each other.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
