import pytest
from hypothesis import given, strategies as st

from polysum.polycore import (
    SumDomain,
    Term,
    TripleSum,
    is_generalized_polygonal,
    parse_sum,
    parse_terms,
    poly_value,
    poly_values_upto,
    square_completion,
)

N, Z = SumDomain.NATURALS, SumDomain.INTEGERS


@pytest.mark.parametrize("m,x,expected", [
    (5, -1, 2),
    (4, 0, 0),
    (9, -2, 19),
    (3, 4, 10),
    (6, 3, 15),
])
def test_poly_value(m, x, expected):
    assert poly_value(m, x) == expected


def test_small_value_table():
    for m in range(3, 61):
        assert poly_value(m, 0) == 0
        assert poly_value(m, 1) == 1
        assert poly_value(m, 2) == m
        assert poly_value(m, 3) == 3 * m - 3
        assert poly_value(m, 4) == 6 * m - 8
        assert poly_value(m, -1) == m - 3


def test_generalized_pentagonal_prefix():
    vals = poly_values_upto(Term(1, 5), Z, 40)
    assert vals == [0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40]


@pytest.mark.parametrize("a,m,domain,bound,expected", [
    (1, 6, Z, 10, [0, 1, 3, 6, 10]),
    (2, 3, N, 12, [0, 2, 6, 12]),
    (1, 5, N, 12, [0, 1, 5, 12]),
])
def test_values_upto(a, m, domain, bound, expected):
    assert poly_values_upto(Term(a, m), domain, bound) == expected


def test_order_validation():
    with pytest.raises(ValueError):
        Term(1, 2)
    with pytest.raises(ValueError):
        Term(0, 5)


@pytest.mark.parametrize("m,n,expected", [
    (5, 7, -2),
    (4, 2, None),
    (8, 5, -1),
    (3, 6, 3),
])
def test_is_generalized_polygonal(m, n, expected):
    assert is_generalized_polygonal(m, n) == expected


def test_naturals_variant():
    # 2 = p5(-1) only, so the N-restricted test refuses it
    assert is_generalized_polygonal(5, 2, Z) == -1
    assert is_generalized_polygonal(5, 2, N) is None
    assert is_generalized_polygonal(5, 5, N) == 2


@pytest.mark.parametrize("m,expected", [
    (5, (24, 1, 6, 1)),
    (4, (16, 0, 4, 0)),
    (9, (56, 25, 14, 5)),
])
def test_square_completion_values(m, expected):
    assert square_completion(m) == expected


def test_completion_identity_exhaustive():
    for m in range(3, 61):
        stretch, offset, step, residue = square_completion(m)
        for x in range(-200, 201):
            assert stretch * poly_value(m, x) + offset == (step * x - residue) ** 2


@given(st.integers(min_value=3, max_value=500),
       st.integers(min_value=-10**6, max_value=10**6))
def test_completion_identity_property(m, x):
    stretch, offset, step, residue = square_completion(m)
    assert stretch * poly_value(m, x) + offset == (step * x - residue) ** 2


@given(st.integers(min_value=3, max_value=40),
       st.integers(min_value=-300, max_value=300))
def test_membership_roundtrip(m, x):
    n = poly_value(m, x)
    recovered = is_generalized_polygonal(m, n)
    assert recovered is not None
    assert poly_value(m, recovered) == n


def test_hexagonal_equals_triangular_over_z():
    for n in range(10**5 + 1):
        assert (is_generalized_polygonal(6, n) is not None) == \
               (is_generalized_polygonal(3, n) is not None)


def test_parse_terms():
    terms = parse_terms("p3+2p4+p9")
    assert [(t.coefficient, t.order) for t in terms] == [(1, 3), (2, 4), (1, 9)]
    assert parse_terms("2*p4") == parse_terms("2p4")
    with pytest.raises(ValueError):
        parse_terms("q5+p3")
    # a sum takes any number of terms, but at least one
    assert len(parse_sum("p3+p4+p5+p6+p7", N).terms) == 5
    with pytest.raises(ValueError):
        TripleSum((), N)
