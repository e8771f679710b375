"""genusmass: exact class-group, genus-character, and q-series machinery for
negative fundamental discriminants, plus a coefficientwise identity verifier."""

from .arith import (
    divisors,
    factorize,
    is_fundamental,
    is_fundamental_discriminant,
    kronecker,
    prime_discriminant_factorization,
)
from .class_group import ClassGroup, build_class_group, prime_ideal_class
from .forms import (
    QuadForm,
    automorph_count,
    reduce_form,
    reduced_forms,
    represented_coprime_value,
)
from .genus import GenusCharacter, build_genus_characters, character_pairs
from .hecke import (
    HeckeCheckResult,
    check_eigenform,
    check_genus_permutation,
    check_inert_theta,
    check_ramified_theta,
    check_split_theta,
)
from .qseries import QSeries, apply_T, apply_U, apply_V
from .series import (
    eisenstein_for_genus,
    eisenstein_series,
    genus_eisenstein,
    l_zero,
    theta_series,
    theta_total,
    twisted_sum,
)
from .verify import (
    VerificationReport,
    run_suite,
    verify_character_counts,
    verify_dirichlet,
    verify_gauss,
    verify_genus_mass,
    verify_twisted_eisenstein,
)

__version__ = "0.1.0"
