import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from twistdet import (
    FiniteGroup,
    GroupAlgebra,
    IntegersMod,
    LiteralSyntaxError,
    NeedsRationalCoefficients,
    NotAUnit,
    RationalField,
    RationalMatrixRing,
    cyclic_group,
)
from twistdet.rings import fraction_free

from conftest import assert_folded


def test_axioms_hold_on_samples(qq, z6, m2, qc2, qc4, free_yz):
    assert_folded("ring-axioms", [qq, z6, m2, qc2, qc4, free_yz], 20)


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
    with pytest.raises(ValueError, match="invertible"):
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


def s3():
    perms = sorted(permutations(range(3)))
    compose = lambda p, q: tuple(p[q[k]] for k in range(3))
    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    return FiniteGroup(table, name="S3")


def test_s3_conjugacy_classes():
    assert sorted(len(c) for c in s3().conjugacy_classes()) == [1, 2, 3]


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


# -- the integer kernels against Fraction references ---------------------------

def ref_mat_mul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b))
                 for row in a)


def ref_invert(rows):
    """Gauss-Jordan over Fractions; None if singular."""
    n = len(rows)
    aug = [list(map(F, rows[i])) + [F(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def ref_det(rows):
    """Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * ref_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]))


def ref_zmod_invert(rows, m):
    """The cofactor inverse mod m; None if det is not a unit mod m."""
    rows = [list(r) for r in rows]
    n, d = len(rows), ref_det(rows) % m
    if math.gcd(d, m) != 1:
        return None
    dinv = pow(d, -1, m)
    return tuple(tuple((-1) ** (i + j) * ref_det([r[:i] + r[i + 1:] for k, r in enumerate(rows)
                                                   if k != j]) * dinv % m
                       for j in range(n)) for i in range(n))


def random_rational_matrix(rng, n, entries=(-3, -2, -1, 0, 0, 1, 2, 5), dens=(1, 1, 2, 3, 7)):
    return tuple(tuple(F(rng.choice(entries), rng.choice(dens)) for _ in range(n))
                 for _ in range(n))


EDGE_MATRICES = [
    [[0]], [[F(-3, 2)]], [[7]],                      # 1x1: singular and units
    [[0, 1], [1, 0]],                                # zero leading pivot, det -1
    [[0, 2, 1], [1, 0, 0], [0, 0, 3]],               # row swap, det -6
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[1, 2, 3], [2, 4, 6], [1, 0, 1]],               # singular: dependent rows
    [[1, 2], [2, 4]],
    [[0, 0], [0, 1]],                                # singular with a zero column
    [[F(1, 2), F(1, 3)], [F(1, 4), F(-1, 5)]],
]


@pytest.mark.parametrize("rows", EDGE_MATRICES)
def test_fraction_free_edge_cases(rows):
    qq = RationalField()
    rows = tuple(tuple(F(x) for x in row) for row in rows)
    expected = ref_invert(rows)
    assert qq.mat_is_invertible(rows) == (expected is not None)
    if expected is None:
        with pytest.raises(NotAUnit):
            qq.mat_invert(rows)
    else:
        assert qq.mat_invert(rows) == expected


@pytest.mark.parametrize("rows,det", [
    ([[5]], 5), ([[0, 1], [1, 0]], -1), ([[0, 2, 1], [1, 0, 0], [0, 0, 3]], -6),
    ([[2, 0], [0, 3]], 6), ([[1, 2], [2, 4]], 0), ([], 1)])
def test_fraction_free_gives_determinant_and_adjugate(rows, det):
    n = len(rows)
    assert fraction_free(rows, inverse=False) == (det, None)
    got, adj = fraction_free(rows)
    assert got == det == ref_det(rows)
    if det:
        prod = [[sum(rows[i][t] * adj[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[det * (i == j) for j in range(n)] for i in range(n)]
    else:
        assert adj is None


def test_rational_inverse_matches_gauss_jordan():
    rng = random.Random(2024)
    qq, singular = RationalField(), 0
    for trial in range(600):
        rows = random_rational_matrix(rng, 1 + trial % 6)
        expected = ref_invert(rows)
        singular += expected is None
        assert qq.mat_is_invertible(rows) == (expected is not None), rows
        if expected is not None:
            assert qq.mat_invert(rows) == expected, rows
    assert 20 < singular < 580  # both outcomes were drawn


@pytest.mark.parametrize("modulus", [2, 6, 7, 12, 101])
def test_zmod_inverse_matches_cofactors(modulus):
    rng = random.Random(modulus)
    ring, refused = IntegersMod(modulus), 0
    for trial in range(300):
        n = 1 + trial % 4
        rows = tuple(tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(n))
        expected = ref_zmod_invert(rows, modulus)
        refused += expected is None
        assert ring.mat_is_invertible(rows) == (expected is not None), rows
        if expected is None:
            with pytest.raises(NotAUnit):
                ring.mat_invert(rows)
        else:
            assert ring.mat_invert(rows) == expected, rows
    assert 0 < refused < 300


def test_z12_zero_divisor_determinants():
    z12 = IntegersMod(12)
    for rows in (((2, 0), (0, 1)), ((3, 1), (1, 3)), ((4, 1), (1, 1)), ((0, 6), (2, 0))):
        assert not z12.mat_is_invertible(rows)  # det 2, 8, 3, -12
        with pytest.raises(NotAUnit, match="determinant"):
            z12.mat_invert(rows)
    rows = ((0, 1), (1, 0))  # det -1 = 11, zero leading pivot
    assert z12.mat_invert(rows) == ((0, 1), (1, 0))
    rows = ((2, 1), (1, 3))  # det 5
    assert z12.emat_mul(rows, z12.mat_invert(rows)) == z12.emat_identity(2)


def test_matrix_ring_products_match_fractions():
    rng = random.Random(7)
    for k in (1, 2, 3):
        ring = RationalMatrixRing(k)
        for _ in range(40):
            a, b = random_rational_matrix(rng, k), random_rational_matrix(rng, k)
            assert ring.mul(a, b) == ref_mat_mul(a, b)
            expected = ref_invert(a)
            assert ring.is_unit(a) == (expected is not None)
            if expected is not None:
                assert ring.invert(a) == expected


def test_conjugation_by_non_integral_matrix():
    ring = RationalMatrixRing(2)
    p = f2([[2, 1], [0, F(1, 3)]])
    pinv = ref_invert(p)
    assert pinv == f2([[F(1, 2), F(-3, 2)], [0, 3]])
    conj = ring.register_conjugation("p", [[2, 1], [0, F(1, 3)]])
    rng = random.Random(3)
    for _ in range(30):
        a = random_rational_matrix(rng, 2)
        assert conj.apply(a) == ref_mat_mul(ref_mat_mul(p, a), pinv)
        assert conj.inverse.apply(a) == ref_mat_mul(ref_mat_mul(pinv, a), p)
        assert conj.inverse.apply(conj.apply(a)) == a
    assert conj.inverse.data == ("conj", (("1/2", "-3/2"), ("0", "3")))


def test_s3_products_with_fractional_coefficients():
    ring = GroupAlgebra(s3())
    table = ring.group.table

    def ref_mul(a, b):
        acc = {}
        for g, c in a:
            for h, d in b:
                acc[table[g][h]] = acc.get(table[g][h], F(0)) + c * d
        return tuple((k, acc[k]) for k in sorted(acc) if acc[k])

    rng = random.Random(5)
    draw = lambda: ring._canon((rng.randrange(6), F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))))
                               for _ in range(rng.randint(0, 6)))
    for _ in range(200):
        a, b = draw(), draw()
        assert ring.mul(a, b) == ref_mul(a, b), (a, b)
    a = ring.parse_element_literal("1/2+2/3*g1-3/4*g3")
    b = ring.parse_element_literal("-2+1/5*g3+g5")
    assert ring.mul(ring.mul(a, b), ring.invert(b)) == a
    assert ring.mul(a, ring.invert(a)) == ring.one


# -- value arithmetic against plain-Fraction references -------------------------
#
# A value is read as a map key -> Fraction off its own format: () for Q and
# Z/6, (row, column) for M2(Q), the group element for Q[C4] and the word for
# Q<y,z>/deg>2. The references compute on those maps.

KEYS = {"Q": [()], "Z/6": [()], "M2(Q)": [(i, j) for i in range(2) for j in range(2)],
        "Q[C4]": list(range(4)),
        "Q<y,z>/deg>2": [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]}


def entries(A, a) -> dict:
    if A.kind == "matrix":
        pairs = [((i, j), x) for i, row in enumerate(a) for j, x in enumerate(row)]
    elif A.kind in ("group_algebra", "free_trunc"):
        pairs = a
    else:
        pairs = [((), a)]
    return {k: F(c) for k, c in pairs if c}


def value(A, d):
    """The canonical value of the map d."""
    if A.kind == "matrix":
        return tuple(tuple(F(d.get((i, j), 0)) for j in range(2)) for i in range(2))
    if A.kind in ("group_algebra", "free_trunc"):
        order = (lambda w: (len(w), w)) if A.kind == "free_trunc" else None
        return tuple((k, F(d[k])) for k in sorted(d, key=order) if d[k])
    if A.kind == "int_mod":
        return int(d.get((), 0)) % 6
    return F(d.get((), 0))


def ref_product(A, x, y) -> dict:
    if A.kind == "matrix":
        return entries(A, ref_mat_mul(value(A, x), value(A, y)))
    out = {}
    for k, c in x.items():
        for h, e in y.items():
            key = (k + h) % 4 if A.kind == "group_algebra" else k + h  # C4, or words
            if A.kind != "group_algebra" and len(key) > 2:
                continue
            out[key] = out.get(key, 0) + c * e
    return out


@pytest.mark.parametrize("name", list(KEYS))
def test_value_ops_match_fraction_references(name, qq, z6, m2, qc4, free_yz):
    A = {"Q": qq, "Z/6": z6, "M2(Q)": m2, "Q[C4]": qc4, "Q<y,z>/deg>2": free_yz}[name]
    assert A.name == name
    rng = random.Random(23)
    dens = (1,) if A is z6 else (1, 2, 3, 5)
    draws = [A.zero, A.one] + [
        value(A, {k: F(rng.randint(-4, 4), rng.choice(dens))
                  for k in rng.sample(KEYS[name], rng.randint(1, len(KEYS[name])))})
        for _ in range(10)]
    for a in draws:
        x = entries(A, a)
        assert A.is_zero(a) == (not x)
        assert A.neg(a) == value(A, {k: -c for k, c in x.items()})
        for q in (0, -3, F(2, 3)):
            if A is z6 and q == F(2, 3):
                continue
            assert A.scalar_mul(q, a) == value(A, {k: q * c for k, c in x.items()})
        for b in draws:
            y = entries(A, b)
            keys = x.keys() | y.keys()
            assert A.add(a, b) == value(A, {k: x.get(k, 0) + y.get(k, 0) for k in keys})
            assert A.sub(a, b) == value(A, {k: x.get(k, 0) - y.get(k, 0) for k in keys})
            assert A.mul(a, b) == value(A, ref_product(A, x, y))
            assert A.is_zero(A.sub(a, a)) and not A.is_zero(A.add(A.sub(a, a), A.one))
    with pytest.raises(NeedsRationalCoefficients, match=r"^cannot scale by 1/2 over Z/6$"):
        z6.scalar_mul(F(1, 2), z6.one)
