"""Exact symbolic verification of the G2/SU(2,1) matrix models and the
unramified adjoint L-factor identities, with finite-field orbit evidence
for the double-coset combinatorics."""

from .algebra import (
    LaurentPoly,
    NonInvertibleError,
    RingMatrix,
    TruncatedSeries,
    series_expand,
)

__all__ = [
    "LaurentPoly",
    "NonInvertibleError",
    "RingMatrix",
    "TruncatedSeries",
    "series_expand",
]
