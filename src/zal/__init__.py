"""Numerical and exact-rational machinery for Selberg zeta special values.

Subpackages by theme:

- ``specfun``      real special functions with error accounting
- ``tautconst``    tautological surface constants and log-linear forms
- ``lengthspec``   geodesic length spectra of congruence subgroups
- ``selberg``      Selberg zeta local factors and Euler products
- ``degeneration`` pinching-family star-graph model
- ``modforms``     the newform pipeline: the Sym^2 search at any prime level;
                   eta product, point count and Petersson quadrature of 11a
- ``arakelov``     the arithmetic-degree ledger and exponent extraction
- ``cli``          command-line verification surface
"""

__version__ = "0.1.0"
