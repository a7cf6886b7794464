"""Computer algebra toolkit for fixed divisors, irreducible specializations
and polynomial Schinzel-type searches over the integers."""

__version__ = "0.1.0"

from .polyring import MPoly, VarSplit, parse_poly, reduce_mod
from .factorlab import (
    IrredCertificate,
    Factorization,
    is_irreducible_fp,
    kronecker_factor,
    is_irreducible_q,
    is_irreducible_z,
    gcd_q,
    is_primitive_wrt,
)
from .fixdiv import (
    FixedDivisorReport,
    candidate_fixed_primes,
    is_fixed_prime,
    least_witness,
    residue_scan,
    fixed_prime_divisors,
    removal_scalar,
    gamma_b_witness,
)
from .schinzelcore import (
    ProgressionWitness,
    bezout_constant,
    bad_prime_set,
    nonvanishing_point,
    progression_witness,
    verify_progression,
)
from .hilbert import (
    SpecializationPoint,
    hypotheses_check,
    specialization_check,
    hilbert_search,
    density_report,
)
from .polyschinzel import (
    ell,
    check_degree_conditions,
    generic_substitution,
    verify_no_fixed_divisor_generic,
    solve_polynomial_schinzel,
    strong_pipeline,
    iterated_composition,
    sharpness_counterexample,
)
from .coprime import check_copsch_local, coprime_search
