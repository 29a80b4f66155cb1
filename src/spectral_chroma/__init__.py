"""Spectral lower bounds on the chromatic number, with certificates.

Everything routes through eigenvalues of the standard graph matrices:
adjacency, Laplacian, signless Laplacian, and degree-normalized
adjacency. The bounds module evaluates fifteen lower bounds on chi, the
certify module proves the matrix identities behind them constructively,
and the oracle module supplies exact chromatic numbers at desk scale so
every bound can be checked for soundness.

The package namespace re-exports nothing: import the API from the
submodules, e.g. ``from spectral_chroma.bounds import full_report``.
"""

__version__ = "0.1.0"
