"""superflag: exact-arithmetic monomial bases, degenerations, and toric
certificates for highest-weight modules over basic matrix Lie superalgebras.
"""

__version__ = "0.1.0"
