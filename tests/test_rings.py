from fractions import Fraction as F
from itertools import permutations

import pytest

from twistdet import (
    FiniteGroup,
    GroupAlgebra,
    LiteralSyntaxError,
    NotAUnit,
    RationalMatrixRing,
    cyclic_group,
    ring_axiom_check,
)

from conftest import assert_folded


def test_axioms_hold_on_samples(qq, z6, m2, qc2, qc4, free_yz):
    assert_folded("ring-axioms", [qq, z6, m2, qc2, qc4, free_yz], 20)


def test_axiom_report_flags_commutativity(qq, m2):
    assert ring_axiom_check(qq)["commutative"]
    assert not ring_axiom_check(m2)["commutative"]


# -- rationals ---------------------------------------------------------------

def test_rational_basics(qq):
    a = F(2, 3)
    assert qq.mul(a, qq.invert(a)) == qq.one
    assert qq.is_unit(a) and not qq.is_unit(F(0))
    assert qq.parse_element_literal("-3/4") == F(-3, 4)
    assert qq.element_to_literal(F(5, 2)) == "5/2"
    assert qq.trace(a) == {"1": a}


# -- integers mod n ----------------------------------------------------------

def test_z6_units_and_inverse(z6):
    assert z6.is_unit(5) and z6.invert(5) == 5
    assert not z6.is_unit(2) and not z6.is_unit(3)
    with pytest.raises(NotAUnit):
        z6.invert(4)


def test_z6_matrix_self_inverse(z6):
    # det = 4 - 9 = -5 = 1 mod 6, adjugate reproduces the matrix
    m = ((2, 3), (3, 2))
    assert z6.emat_mul(m, m) == z6.emat_identity(2)
    assert z6.mat_is_invertible(m)
    assert z6.emat_mul(z6.mat_invert(m), m) == z6.emat_identity(2)


def test_z6_trace_not_rational(z6):
    # the trace exists but takes values in Z/6, so log bookkeeping refuses it
    assert z6.has_trace and not z6.trace_is_rational
    assert z6.trace(5) == {"1": 5}


# -- rational matrices -------------------------------------------------------

def f2(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def test_m2_noncommutative(m2):
    a = f2([[0, 1], [0, 0]])
    b = f2([[0, 0], [1, 0]])
    assert m2.mul(a, b) != m2.mul(b, a)


def test_m2_swap_conjugation(m2):
    swap = m2.automorphism("swap")
    a = f2([[1, 2], [3, 4]])
    # conjugation by the flip matrix swaps both indices
    assert swap.apply(a) == f2([[4, 3], [2, 1]])
    assert swap.inverse.apply(swap.apply(a)) == a
    # it is a ring map
    b = f2([[0, 1], [5, 0]])
    assert swap.apply(m2.mul(a, b)) == m2.mul(swap.apply(a), swap.apply(b))


def test_m2_trace_and_inverse(m2):
    a = f2([[1, 2], [3, 4]])
    assert m2.trace(a) == {"tr": F(5)}
    assert m2.mul(a, m2.invert(a)) == m2.one
    with pytest.raises(NotAUnit):
        m2.invert(f2([[1, 2], [2, 4]]))


def test_m2_rejects_singular_conjugation():
    ring = RationalMatrixRing(2)
    with pytest.raises(NotAUnit):
        ring.register_conjugation("bad", [[1, 1], [1, 1]])


@pytest.mark.parametrize("matrix", [[[1]], [[0, 1], [1]], [[1, 0], [0, 1], [0, 0]]])
def test_m2_rejects_conjugation_of_wrong_shape(matrix):
    ring = RationalMatrixRing(2)
    with pytest.raises(ValueError, match="2x2"):
        ring.register_conjugation("bad", matrix)


def test_automorphisms_cannot_take_the_identitys_name(qc4, free_yz):
    m2 = RationalMatrixRing(2)
    with pytest.raises(ValueError, match="'id'"):
        m2.register_conjugation("id", [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="'id'"):
        qc4.register_group_automorphism("id", [0, 3, 2, 1])
    with pytest.raises(ValueError, match="'id'"):
        free_yz.register_generator_permutation("id", [1, 0])
    assert m2.automorphism("id").apply(m2.one) == m2.one


# -- group algebras ----------------------------------------------------------

def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # not a bijection in row 1


def test_s3_conjugacy_classes():
    perms = sorted(permutations(range(3)))
    compose = lambda p, q: tuple(p[q[k]] for k in range(3))
    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    g = FiniteGroup(table, name="S3")
    assert sorted(len(c) for c in g.conjugacy_classes()) == [1, 2, 3]


def test_qc3_inverse_frozen():
    ring = GroupAlgebra(cyclic_group(3))
    got = ring.invert(ring.parse_element_literal("1+g1"))
    assert got == ring.parse_element_literal("1/2-1/2*g1+1/2*g2")
    # 1-g augments to zero under the trivial character: not a unit
    assert not ring.is_unit(ring.parse_element_literal("1-g1"))


def test_group_automorphism_registration(qc4):
    inv = qc4.automorphism("inv")
    g1 = qc4.parse_element_literal("g1")
    assert inv.apply(g1) == qc4.parse_element_literal("g3")
    assert inv.inverse.apply(inv.apply(g1)) == g1
    with pytest.raises(ValueError):
        qc4.register_group_automorphism("bad", [1, 0, 3, 2])  # moves identity


def test_group_trace_is_class_vector(qc2):
    e = qc2.parse_element_literal("1/2+2*g1")
    assert qc2.trace(e) == {"g0": F(1, 2), "g1": F(2)}


# -- truncated free algebra --------------------------------------------------

def test_free_truncation_and_mul(free_yz):
    y = free_yz.parse_element_literal("y")
    z = free_yz.parse_element_literal("z")
    yz = free_yz.mul(y, z)
    assert free_yz.element_to_literal(yz) == "yz"
    # degree 3 falls off at max_degree 2
    assert free_yz.is_zero(free_yz.mul(yz, z))


def test_free_units(free_yz):
    u = free_yz.parse_element_literal("1-y+yy")
    assert free_yz.is_unit(u)
    assert free_yz.mul(u, free_yz.invert(u)) == free_yz.one
    assert not free_yz.is_unit(free_yz.parse_element_literal("y"))


def test_free_matrix_inverse_non_scalar_entries(free_yz):
    f = free_yz.parse_element_literal
    rows = ((f("2+y"), f("z-yz")), (f("1+zz"), f("3+y-zy")))
    inv = free_yz.mat_invert(rows)
    ident = free_yz.emat_identity(2)
    assert free_yz.emat_mul(inv, rows) == ident
    assert free_yz.emat_mul(rows, inv) == ident
    with pytest.raises(NotAUnit):
        free_yz.mat_invert(((f("y"), f("1")), (f("z"), f("1+y"))))


def test_free_trace_buckets_by_cyclic_word(free_yz):
    assert free_yz.trace(free_yz.parse_element_literal("yz-zy")) == {}
    assert free_yz.trace(free_yz.parse_element_literal("yz+zy")) == {"yz": F(2)}
    assert free_yz.trace(free_yz.parse_element_literal("3")) == {"1": F(3)}


def test_free_generator_permutation(free_yz):
    flip = free_yz.automorphism("flip")
    e = free_yz.parse_element_literal("y+2*yz")
    assert flip.apply(e) == free_yz.parse_element_literal("z+2*zy")
    with pytest.raises(ValueError):
        free_yz.register_generator_permutation("bad", [0, 0])


def test_central_detection(m2, qc2):
    assert m2.is_central(m2.scalar_mul(F(3), m2.one))
    assert not m2.is_central(f2([[1, 1], [0, 1]]))
    # C2 is abelian: everything is central
    assert qc2.is_central(qc2.parse_element_literal("1+g1"))


def test_literal_roundtrip_all_rings(qq, z6, m2, qc2, free_yz):
    import random
    rng = random.Random(10)
    for ring in (qq, z6, m2, qc2, free_yz):
        for _ in range(5):
            a = ring.random_element(rng)
            text = ring.element_to_literal(a)
            assert ring.parse_element_literal(text) == a, (ring.name, text)


def test_bad_literals_raise(qq, qc2):
    for text in ("", "1//2", "g9", "1++2"):
        with pytest.raises(LiteralSyntaxError):
            qc2.parse_element_literal(text)
    with pytest.raises(LiteralSyntaxError):
        qq.parse_element_literal("x")


def test_ring_classes_define_benchmark_hooks(qq, z6, m2, qc2, free_yz):
    # perfbench/spans.py wraps mul, add and invert per class, through
    # vars(cls): each ring class must define them in its own body
    for ring in (qq, z6, m2, qc2, free_yz):
        assert {"mul", "add", "invert"} <= set(vars(type(ring))), type(ring).__name__
