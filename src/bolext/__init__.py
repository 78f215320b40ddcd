"""Exact structure-constant computations for Bol algebras.

Validation of the defining identities, module theory and semidirect sums,
abelian (2,3)-cohomology, non-abelian extensions with their classifying
cocycles, inducibility of automorphism pairs, and a brute-force verifier for
the resulting restriction/class exact sequence -- all over Q or GF(p) with
p outside {2, 3}, with exact arithmetic throughout.
"""
from .bol import (BolAlgebra, enumerate_automorphisms, enumerate_bol_algebras,
                  evaluate_products, h3, is_morphism, s2, validate_bol, z1, z2,
                  z3, zero_algebra)
from .cohomology import (Cochain2, Cochain3, CochainCoords, CohomologyResult,
                         coboundary, cocycles_cohomologous, cohomology23,
                         is_cocycle23)
from .core import (DEFAULT_ENUMERATION_BOUND, Decision, Status,
                   ValidationReport, Variant, Violation)
from .errors import (BolextError, ContainmentError, InternalConsistencyError,
                     ParseError, UnsupportedEnumerationError, UsageError)
from .exactlin import (Matrix, ModP, PrimeField, RATIONALS, Rationals, Subspace,
                       enumerate_vectors, kernel_basis, quotient_dim, rref,
                       solve_linear)
from .extensions import (Extension, Section, as_extension, candidate_rows,
                         canonical_section, classify_corpus, classify_rows, e_h3,
                         extensions_equivalent, extract_cocycle, make_section,
                         semidirect_extension, theta_map, validate_extension)
from .nonabelian import (NonAbelianCocycle, build_extension_algebra,
                         cocycles_equivalent_via, solve_equivalence,
                         validate_nab_cocycle, validate_nab_full)
from .representation import (Representation, is_pseudoderivation, r_s2,
                             semidirect_iff_census, semidirect_product,
                             trivial_representation, validate_representation)
from .wells import (AutPair, ExactnessReport, WellsReport, Z1Result,
                    act_on_cocycle, compatible_pairs, inducible_via,
                    is_compatible_pair, kappa, lift_automorphism, s_map,
                    solve_inducibility, verify_wells_exactness, wells_map,
                    z1_nab)

__version__ = "0.1.0"
