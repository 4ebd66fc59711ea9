"""perimod: periodic-point counting for power maps z^d + c over finite rings.

Library layout:

- rings:    exact arithmetic in Z/pZ and F_p[t]/(pi), irreducibility testing,
            enumeration of irreducible monic moduli
- dynamics: map application, orbit decomposition, and the three counting
            interpretations (fixed / roots of the second iterate / exact
            period 2), read through counting_function or count_report
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
    PowerMapSpec,
    apply,
    count_report,
    counting_function,
    iterate,
    orbit_decomposition,
)
from .errors import DomainError, PerimodError, ResourceError, UsageError
from .rings import (
    FpPoly,
    Prime,
    RingElem,
    RingSpec,
    enumerate_monic_irreducibles,
    format_poly,
    is_irreducible,
    mod_pow,
    parse_poly,
    poly_gcd,
)

__all__ = [
    "CountReport",
    "DegreeBase",
    "DegreeSpec",
    "DomainError",
    "FpPoly",
    "Interpretation",
    "OrbitDecomposition",
    "PerimodError",
    "PowerMapSpec",
    "Prime",
    "ResourceError",
    "RingElem",
    "RingSpec",
    "UsageError",
    "apply",
    "count_report",
    "counting_function",
    "enumerate_monic_irreducibles",
    "format_poly",
    "is_irreducible",
    "iterate",
    "mod_pow",
    "orbit_decomposition",
    "parse_poly",
    "poly_gcd",
]

__version__ = "0.1.0"
