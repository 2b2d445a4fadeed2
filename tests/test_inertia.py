import itertools
import random

import pytest

from helpers import compose_oracle, operator_matrix_oracle, random_operator, random_poly
from wildcycles.errors import IndexOutOfRange, NotCritical, ZeroOrderTerm
from wildcycles.fields import QQ, Matrix, PrimeField
from wildcycles.inertia import (
    QuotientModule,
    annihilation_check,
    inertia_membership,
    kernel_on_quotient,
    morse_check,
)
from wildcycles.poly import GREVLEX, MPoly, falling, poly_parse
from wildcycles.weyl import WeylOperator, weyl_parse


def test_kernel_of_d_on_f2_mod_x4():
    # oracle: 4x4 matrix of d on {1, x, x^2, x^3} over F_2, row-reduced by hand:
    # d(1)=0, d(x)=1, d(x^2)=2x=0, d(x^3)=3x^2=x^2 -> kernel {1, x^2}
    M = QuotientModule(2, 4)
    kernel = kernel_on_quotient(WeylOperator.partial(1, M.field, 0), M)
    assert len(kernel) == 2
    texts = {k.to_str() for k in kernel}
    assert texts == {"1", "x^2"}


def test_kernel_of_identity_trivial():
    M = QuotientModule(5, 3)
    assert kernel_on_quotient(WeylOperator.identity(1, M.field), M) == []


def test_kernel_of_d3_on_f3_mod_x4_everything():
    # d^3(x^3) = 6 = 0 mod 3, lower monomials die earlier
    M = QuotientModule(3, 4)
    kernel = kernel_on_quotient(WeylOperator.partial(1, M.field, 0, 3), M)
    assert len(kernel) == 4


def test_membership_strict_vs_element_semantics_p2():
    M = QuotientModule(2, 4)
    D = WeylOperator.partial(1, M.field, 0)
    u = poly_parse("1+x+x^2+x^3", ["x"], M.field)
    report = inertia_membership(D, 1, M, element=u)
    # strict: d∘d kills the whole module, kernel != constants -> not a member
    assert not report.member
    ks = {k: (dim, ok) for k, dim, ok in report.per_k}
    assert ks[1] == (4, False)
    # element semantics: d(1+x+x^2+x^3) lands at 0 after truncation
    checks = {k: zero for k, _, zero in report.element_checks}
    assert checks[1] is True


def test_membership_true_case():
    M = QuotientModule(5, 2)
    D = WeylOperator.partial(1, M.field, 0)
    report = inertia_membership(D, 0, M)
    assert report.member
    assert report.per_k == ((0, 1, True),)


def test_membership_huge_order_zero_map():
    M = QuotientModule(3, 4)
    D = WeylOperator.partial(1, M.field, 0, 5)
    report = inertia_membership(D, 0, M)
    assert not report.member  # kernel is everything


def test_membership_rejects_zero_order_term():
    M = QuotientModule(3, 4)
    D = weyl_parse("d1 + 1", ["x"], M.field)
    with pytest.raises(ZeroOrderTerm):
        inertia_membership(D, 1, M)


@pytest.mark.parametrize("p,expected_zero", [(7, False), (11, False), (2, True), (3, True)])
def test_annihilation_worked_value(p, expected_zero):
    # third derivative of 1+x+x^2+x^3 is 6; zero exactly when p | 6
    M = QuotientModule(p, 4)
    D = WeylOperator.partial(1, M.field, 0)
    u = poly_parse("1+x+x^2+x^3", ["x"], M.field)
    value, zero = annihilation_check(D, 2, u, M)
    assert zero is expected_zero
    if not zero:
        assert value == MPoly.constant(1, M.field, 6 % p)


def test_annihilation_k0_matches_derivative():
    M = QuotientModule(5, 4)
    D = WeylOperator.partial(1, M.field, 0)
    u = poly_parse("1+2*x+3*x^2+4*x^3", ["x"], M.field)
    value, _ = annihilation_check(D, 0, u, M)
    assert value == M.truncate(u.derivative(0))


def test_kernel_dim_monotone_in_k():
    M = QuotientModule(3, 5)
    D = WeylOperator.partial(1, M.field, 0)
    dims = []
    for k in range(4):
        Dk = D.compose(WeylOperator.partial(1, M.field, 0, k))
        dims.append(len(kernel_on_quotient(Dk, M)))
    assert dims == sorted(dims)


def test_kernel_of_d_is_constants_when_m_le_p():
    for p, m in ((5, 4), (7, 7), (3, 3)):
        M = QuotientModule(p, m)
        kernel = kernel_on_quotient(WeylOperator.partial(1, M.field, 0), M)
        assert len(kernel) == 1
        assert kernel[0] == MPoly.one(1, M.field)


def test_membership_reproducible():
    M = QuotientModule(2, 4)
    D = WeylOperator.partial(1, M.field, 0)
    r1 = inertia_membership(D, 2, M)
    r2 = inertia_membership(D, 2, M)
    assert r1 == r2


def test_derivative_variable_out_of_range_raises():
    M = QuotientModule(5, 4, 1)
    D = WeylOperator.partial(1, M.field, 0)
    for dvar in (1, -1):
        with pytest.raises(IndexOutOfRange):
            inertia_membership(D, 1, M, dvar=dvar)
        with pytest.raises(IndexOutOfRange):
            annihilation_check(D, 1, MPoly.one(1, M.field), M, dvar=dvar)


def test_morse_examples():
    assert morse_check(poly_parse("x^2+y^2", ["x", "y"], QQ)) is True
    assert morse_check(poly_parse("x^2+y^2", ["x", "y"], PrimeField(2))) is False
    assert morse_check(poly_parse("y^3+x^2+x^3", ["x", "y"], QQ)) is False


def test_morse_off_diagonal_hessians():
    fields = {"QQ": QQ, "F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5)}
    expected = {
        "x*y": {"QQ": True, "F2": True, "F3": True, "F5": True},
        "x^2 + 2*x*y + y^2": {"QQ": False, "F2": False, "F3": False, "F5": False},
        "x^2 + x*y + y^2": {"QQ": True, "F2": True, "F3": False, "F5": True},
    }
    for text, by_field in expected.items():
        for name, dom in fields.items():
            assert morse_check(poly_parse(text, ["x", "y"], dom)) is by_field[name], (text, name)


def test_morse_rejects_linear_part():
    with pytest.raises(NotCritical):
        morse_check(poly_parse("x + x^2", ["x"], QQ))


def test_basis_is_grevlex_sorted():
    # the basis is generated degree by degree; the reference sorts every
    # exponent vector of degree < m by the grevlex key
    for nvars, m in ((1, 1), (1, 9), (2, 1), (2, 8), (3, 6), (4, 4)):
        every = [e for e in itertools.product(range(m), repeat=nvars) if sum(e) < m]
        M = QuotientModule(5, m, nvars)
        assert M.basis == sorted(every, key=GREVLEX.key)


def test_operator_matrix_matches_apply_oracle():
    # about a third of the operators also carry a d_i^p term, whose falling
    # factorials k!/(k - p)! all vanish mod p
    rng = random.Random(2024)
    largest_m = {1: 60, 2: 11, 3: 7}
    for trial in range(360):
        p = (2, 3, 5, 7, 11, 13)[trial % 6]
        nvars = rng.choice((1, 1, 2, 3))
        m = largest_m[nvars] if trial % 5 == 0 else rng.randrange(1, largest_m[nvars] + 1)
        M = QuotientModule(p, m, nvars)
        P = random_operator(rng, nvars, M.field, max_order=4)
        if rng.randrange(3) == 0:
            a = [0] * nvars
            a[rng.randrange(nvars)] = p
            coeff = random_poly(rng, nvars, M.field) + MPoly.one(nvars, M.field)
            P = P + WeylOperator(nvars, M.field, {tuple(a): coeff})
        assert M.operator_matrix(P).columns == operator_matrix_oracle(M, P).sparse().columns, (p, m, P)


def test_membership_matches_kernel_on_quotient():
    rng = random.Random(7)
    for trial in range(60):
        p = (2, 3, 5, 7, 11, 13)[trial % 6]
        nvars = rng.randrange(1, 3)
        M = QuotientModule(p, rng.randrange(1, 16 if nvars == 1 else 7), nvars)
        D = random_operator(rng, nvars, M.field, max_order=3)
        level = rng.randrange(0, 4)
        dvar = rng.randrange(nvars)
        report = inertia_membership(D, level, M, dvar=dvar)
        one = MPoly.one(nvars, M.field)
        for k, dim, ok in report.per_k:
            Dk = compose_oracle(D, WeylOperator.partial(nvars, M.field, dvar, k))
            kernel = kernel_on_quotient(Dk, M)
            assert (dim, ok) == (len(kernel), kernel == [one])
        assert report.member == all(ok for _, _, ok in report.per_k)


def test_membership_dims_match_explicit_composed_matrices():
    # levels run past the truncation order, where D∘∂^k is the zero map
    rng = random.Random(15)
    for trial in range(90):
        p = (2, 3, 5)[trial % 3]
        nvars = 1 + trial % 2
        dvar = rng.randrange(nvars)
        M = QuotientModule(p, rng.randrange(1, 9 if nvars == 1 else 5), nvars)
        D = random_operator(rng, nvars, M.field, max_order=3)
        level = rng.randrange(M.m, 4) if M.m < 4 and trial % 4 == 0 else rng.randrange(4)
        report = inertia_membership(D, level, M, dvar=dvar)
        assert [k for k, _, _ in report.per_k] == list(range(level + 1))
        for k, dim, ok in report.per_k:
            Dk = compose_oracle(D, WeylOperator.partial(nvars, M.field, dvar, k))
            explicit = operator_matrix_oracle(M, Dk)
            assert dim == len(explicit.kernel_basis()) == M.dimension - explicit.rank(), (p, M.m, D, dvar, k)
            assert ok == (dim == 1)
            if k >= M.m:
                assert dim == M.dimension


def column_sets(M, dvar, level):
    """S_k = {e − k·u : falling(e, k·u) ≢ 0 mod p} as basis positions, for
    k = 0..level, from its definition on exponent tuples."""
    index = {e: i for i, e in enumerate(M.basis)}
    sets = []
    for k in range(level + 1):
        ku = tuple(k * (i == dvar) for i in range(M.nvars))
        sets.append([index[tuple(a - b for a, b in zip(e, ku))] for e in M.basis if falling(e, ku) % M.p])
    return sets


def test_one_elimination_matches_a_fresh_rank_at_every_level():
    # one variable up to m = 40 and two variables with either derivative,
    # levels up to m + 2 so the sets run empty
    rng = random.Random(19)
    cases = [(1, m) for m in range(1, 41)] + [(2, m) for m in range(1, 17) for _ in range(2)]
    for trial, (nvars, m) in enumerate(cases):
        p = (2, 3, 5, 7, 11, 13)[trial % 6]
        M = QuotientModule(p, m, nvars)
        D = random_operator(rng, nvars, M.field, max_order=3)
        dvar = trial % nvars
        level = rng.randrange(m + 3)
        report = inertia_membership(D, level, M, dvar=dvar)
        A = M.operator_matrix(D)
        sets = column_sets(M, dvar, level)
        for k, S in enumerate(sets):
            if k:
                assert set(S) <= set(sets[k - 1]), (p, m, nvars, dvar, k)
            fresh = Matrix(A.rows, [A.columns[i] for i in S], M.field).rank()
            assert report.per_k[k] == (k, M.dimension - fresh, M.dimension - fresh == 1), (p, m, D, dvar, k)
            if k >= m:
                assert S == []


def test_operator_matrix_groups_terms_by_exponent_shift():
    # x^3*d2 and d1 both move the key sum e_i*4^i by -1 at m = 4, but x^3*d2
    # sends x*y (key 5) to x^4, outside the module, where d1 sends x (key 1)
    # to 1; terms grouped by key shift would put x^3*d2's weight at row 4 =
    # key of y. Then several terms on one exponent shift, whose weights add
    # and may cancel mod p, beside terms on other shifts; and modules past
    # p, where each table of min(m, p) falling factors repeats, beside
    # zero-order terms, which take no table.
    cases = [
        (5, 4, ["x", "y"], "x^3*d2 + d1"),
        (7, 6, ["x", "y"], "x^3*d2 + d1 + 2*x^2*y*d1*d2 + y*d2^2"),
        (3, 9, ["x"], "x*d1 + x^2*d1^2 + x^3*d1^3 + d1"),
        (7, 12, ["x"], "x*d1 + 6*x^2*d1^2 + x^3*d1^3 + d1 + 3*x^4*d1"),
        (2, 5, ["x", "y", "z"], "x*d1 + y*d2 + z*d3 + x*y*d1*d2 + d3 + y^2*d2"),
        (11, 7, ["x", "y", "z"], "y*d1 + x*d2 + 4*x*z*d1*d3 + 7*y*z*d2*d3"),
        (2, 9, ["x"], "x^2 + d1^3 + 1"),
        (3, 7, ["x", "y"], "d1^4 + y + x*d2^3"),
        (5, 3, ["x", "y"], "x*y + d1 + 2"),
    ]
    for p, m, names, text in cases:
        M = QuotientModule(p, m, len(names))
        P = weyl_parse(text, names, M.field)
        assert M.operator_matrix(P).columns == operator_matrix_oracle(M, P).sparse().columns, (p, m, text)
