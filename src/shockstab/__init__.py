"""Matrix stability analysis of shock-capturing finite-volume schemes.

The package linearizes the cell-centered finite-volume residual of the 2-D
Euler equations about a base flow (typically a captured normal shock),
assembles the resulting sparse operator, and judges linear stability from its
eigenvalue of largest real part.  Time-marching utilities cross-check the
predicted growth rates, and a CLI drives the whole pipeline from plain-text
settings files.

The package namespace re-exports the ``__all__`` of each library module.
"""

from . import errors, harness, mesh, numerics, residual, stability, state

__version__ = "0.1.0"

__all__ = ["__version__"]
# The tuple is built before the loop rebinds ``residual`` to the function of
# that name, which the package exports.
for _module in (errors, mesh, state, numerics, residual, stability, harness):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
