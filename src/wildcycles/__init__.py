"""wildcycles: exact computational probes around wild vanishing cycles.

Weyl-operator arithmetic in characteristic p, Groebner-based Milnor numbers
with a tame/wild split, differential-inertia membership tests, elliptic-curve
slice counting, and orbit analysis of finite dynamical systems including the
Collatz map.
"""

__version__ = "0.1.0"

from .fields import QQ, Matrix, PrimeField
from .poly import GREVLEX, LEX, MonomialOrder, MPoly, poly_parse, reduce_mod_p
from .weyl import StabilityReport, WeylOperator, is_d_stable, weyl_parse
from .groebner import (
    INFINITE,
    GroebnerBasis,
    MilnorReport,
    buchberger,
    local_dimension,
    milnor_number,
    normal_form,
    quotient_dimension,
    standard_monomials,
    tame_wild_split,
)
from .inertia import (
    InertiaReport,
    QuotientModule,
    annihilation_check,
    inertia_membership,
    kernel_on_quotient,
    morse_check,
)
from .curves import (
    CurveSpec,
    SliceCountReport,
    critical_locus,
    hasse_check,
    naive_count,
    singularity_check,
    slice_counts,
    verify_identity,
)
from .dynsys import (
    CollatzRecord,
    DynamicalSystem,
    OrbitDecomposition,
    SelfMap,
    collatz_all_reach_one,
    collatz_orbit,
    euler_discretize,
    orbit_decomposition,
    parity_bijection_check,
    periodic_point_count,
)
from .backend import BACKEND_NAME
