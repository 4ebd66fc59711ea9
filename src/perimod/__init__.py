"""perimod: periodic-point counting for power maps z^d + c over finite rings.

Library layout:

- rings:    Z/pZ and F_p[t]/(pi), each element a plain int index and each
            polynomial a tuple of ascending coefficients, their one
            arithmetic kernel of whole-ring power and translation tables,
            irreducibility testing, enumeration of irreducible monic moduli
- dynamics: orbit decomposition and the three counting interpretations
            (fixed / roots of the second iterate / exact period 2) of a
            map's successor table, read through counting_function or
            count_report; every entry point names a map z^d + c as
            (family, ring, c), a DegreeSpec, a RingSpec and c's index
- claims:   catalog of the claimed counting branches plus the brute-force
            verifier and its CSV/JSON report
- stats:    exact-rational partial averages, divergence series, and
            finite-cutoff densities, each returned as one Series of points
- tables:   the one CSV/JSON text writer every report goes through
- budget:   every limit on a run, its PERIMOD_BUDGET override and its refusal
- cli:      the perimod command-line tool
"""

from .dynamics import (
    CountReport,
    DegreeBase,
    DegreeSpec,
    Interpretation,
    OrbitDecomposition,
    count_report,
    counting_function,
    orbit_decomposition,
)
from .errors import DomainError, PerimodError, ResourceError, UsageError
from .rings import (
    RingSpec,
    enumerate_monic_irreducibles,
    format_poly,
    is_irreducible,
    parse_poly,
)

__all__ = [
    "CountReport",
    "DegreeBase",
    "DegreeSpec",
    "DomainError",
    "Interpretation",
    "OrbitDecomposition",
    "PerimodError",
    "ResourceError",
    "RingSpec",
    "UsageError",
    "count_report",
    "counting_function",
    "enumerate_monic_irreducibles",
    "format_poly",
    "is_irreducible",
    "orbit_decomposition",
    "parse_poly",
]

__version__ = "0.1.0"
