"""Exact n-to-1 mapping toolkit over small finite fields.

Everything is brute-force checkable by construction: fields carry exact
table arithmetic, classification enumerates fibers, the spectral test
works in exact cyclotomic integers, and every construction family
returns the built map next to the reduced partner it was derived from.
"""

from .counting import (
    NTo1Report, classify, classify_rows, histogram, is_n_to_1, linearized_oracle,
    monomial_oracle,
)
from .diagrams import (
    DiagramSpec, FiberReport, TransferVerdict, Violation, condition3,
    random_diagram, transfer, verify_diagram,
)
from .errors import (
    DomainTooLarge, FieldMismatch, GateExceeded, HypothesesNotVerified,
    HypothesisViolated, NTo1Error,
)
from .families import (
    FamilyInstance, PiecewiseSpec, SHIFT_POWER_VARIANTS,
    branch_case_predicate, branch_constant_predicate, build_additive_split,
    build_branch_interpolation, build_coset_power, build_linearized_mix,
    build_norm_lift, build_shift_power, build_translate_link,
    build_two_branch_lift, coset_power_monomial, coset_power_monomial_n,
    frobenius_twist, random_piecewise, reduced_blowup, shift_power_poly,
    shift_power_predicate, shift_power_profile, solve_piecewise, trace_class_reps,
)
from .fields import Field, SubfieldEmbed, field_from_spec
from .lowdeg import (
    QuarticSearch, cubic_char3_is3to1, cubic_charne3_is3to1, quartic_3to1_search,
)
from .polys import LinearizedPoly, Poly, eval_rows, is_additive
from .verify import RUNNERS, RunResult, run
from .walsh import (
    PhiGadget, additive_convolution, char_sum, phi, spectral_verdict,
    validate_phi, walsh, walsh_zero_table,
)

__version__ = "0.1.0"
