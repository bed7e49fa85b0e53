"""Acceptance gate: ten fixed criteria with runtime bounds.

Each test prints exactly one line, criterion number first, PASS or FAIL,
with the measured time against its bound. All comparisons are exact
rational equalities; the random ensembles are seeded and reproducible.
"""

import json
import pathlib
import random
import time
from fractions import Fraction as F

from twistdet import (
    FLAVORS,
    GroupAlgebra,
    IntegersMod,
    NotInvertible,
    NovikovSeries,
    RationalField,
    RationalMatrixRing,
    SeriesMatrix,
    SeriesRing,
    TruncatedFreeAlgebra,
    c_generator,
    cyc_log,
    cyclic_group,
    dieudonne_det,
    exact_sequence_additivity_check,
    ldu_decompose,
    orbit_counts,
    rearrange_inverses_check,
    vaserstein_transform,
    w1_invariant,
    whitehead_identity_check,
)
from twistdet.cli import main as cli_main
from twistdet.selftest import (
    random_flavor_pair,
    random_kernel_matrix,
    random_unipotent_matrix,
    random_unit,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens"

# one verdict line per criterion; conftest echoes these after the run
VERDICTS = []


def report(number, name, bound=None):
    """Run the wrapped body, record one verdict line, enforce any bound."""
    def wrap(body):
        def test():
            t0 = time.monotonic()
            try:
                body()
            except BaseException:
                dt = time.monotonic() - t0
                line = f"[criterion {number:2d}] {name}: FAIL ({dt:.2f}s)"
                VERDICTS.append(line)
                print(line)
                raise
            dt = time.monotonic() - t0
            verdict = "PASS" if bound is None or dt < bound else "FAIL"
            clause = f", bound {bound:g}s" if bound is not None else ""
            line = (f"[criterion {number:2d}] {name}: {verdict}"
                    f" ({dt:.2f}s{clause})")
            VERDICTS.append(line)
            print(line)
            if bound is not None:
                assert dt < bound, f"runtime {dt:.2f}s exceeded {bound}s"
        test.__name__ = f"test_criterion_{number:02d}"
        return test
    return wrap


def coeff_instances():
    m2 = RationalMatrixRing(2)
    m2.register_conjugation("swap", [[0, 1], [1, 0]])
    qc4 = GroupAlgebra(cyclic_group(4))
    qc4.register_group_automorphism("inv", [0, 3, 2, 1])
    free = TruncatedFreeAlgebra(("y", "z"), 2)
    free.register_generator_permutation("flip", [1, 0])
    return [
        (RationalField(), None),
        (IntegersMod(6), None),
        (m2, "swap"),
        (qc4, "inv"),
        (free, "flip"),
    ]


def one_letter(coeff, order, twist=None):
    tw = {"x": twist} if twist else None
    return SeriesRing(coeff, alphabet=("x",), twist=tw, order=order)


@report(1, "geometric inversion of units", 10)
def test_criterion_01():
    rng = random.Random(101)
    for coeff, twist in coeff_instances():
        R = one_letter(coeff, 4, twist)
        for _ in range(500):
            u = random_unit(R, rng)
            assert (u * u.inverse()).is_one()


@report(2, "LDU existence and uniqueness", 30)
def test_criterion_02():
    rng = random.Random(102)
    q = SeriesRing(RationalField(), order=3)
    m2 = coeff_instances()[2][0]
    tw = one_letter(m2, 3, "swap")
    for i in range(200):
        R = (q, tw)[i % 2]
        n = 2 + (i % 3)
        m = random_unipotent_matrix(R, rng, n)
        f = ldu_decompose(m)
        assert f.recompose() == m
        g = ldu_decompose(f.recompose())
        assert (g.l, g.d1, g.d2, g.u) == (f.l, f.d1, f.d2, f.u)


def poly(s):
    return {len(w): c for w, c in s.terms.items()}


def cofactor_poly_det(m, N):
    # independent oracle: first-row expansion on {degree: coeff} polys
    def pmul(p, q):
        r = {}
        for d1, c1 in p.items():
            for d2, c2 in q.items():
                if d1 + d2 <= N:
                    r[d1 + d2] = r.get(d1 + d2, F(0)) + c1 * c2
        return r
    def padd(p, q):
        r = dict(p)
        for d, c in q.items():
            r[d] = r.get(d, F(0)) + c
        return r
    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = {}
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = pmul(rows[0][j], det(minor))
            if j % 2:
                term = {d: -c for d, c in term.items()}
            acc = padd(acc, term)
        return acc
    rows = [[poly(m.entry(i, j)) for j in range(m.ncols)]
            for i in range(m.nrows)]
    return {d: c for d, c in det(rows).items() if c}


@report(3, "commutative determinant vs cofactor oracle", 60)
def test_criterion_03():
    rng = random.Random(103)
    R = SeriesRing(RationalField(), order=4)
    for i in range(200):
        n = 2 + (i % 3)
        m = random_unipotent_matrix(R, rng, n)
        assert poly(dieudonne_det(m)) == cofactor_poly_det(m, 4)


@report(4, "byte-exact generator goldens")
def test_criterion_04():
    import tempfile
    for stem in ("cgen_commutes", "cgen_conjugation"):
        job = GOLDENS / f"{stem}_job.json"
        want = (GOLDENS / f"{stem}_out.json").read_bytes()
        with tempfile.TemporaryDirectory() as td:
            target = pathlib.Path(td) / "out.json"
            assert cli_main(["run", str(job), "--out", str(target)]) == 0
            assert target.read_bytes() == want
    # the pinned degree-1 terms, re-read from the goldens themselves
    got = json.loads((GOLDENS / "cgen_commutes_out.json").read_text())
    assert got["result"].startswith('1+[yz-zy]*w("x")')
    got = json.loads((GOLDENS / "cgen_conjugation_out.json").read_text())
    assert got["result"] == '1+[yz-zy]*w("x")'


@report(5, "whitehead and rearrange identities", 30)
def test_criterion_05():
    rng = random.Random(105)
    q = SeriesRing(RationalField(), order=3)
    m2 = coeff_instances()[2][0]
    tw = one_letter(m2, 3, "swap")
    shapes = ((1, 1), (2, 2), (3, 2), (2, 3))
    for i in range(200):
        R = (q, tw)[i % 2]
        n, k = shapes[i % 4]
        a = random_kernel_matrix(R, rng, n, k)
        b = random_kernel_matrix(R, rng, k, n)
        assert whitehead_identity_check(a, b)
        a = random_kernel_matrix(R, rng, n, k)
        b = random_kernel_matrix(R, rng, k, n)
        assert rearrange_inverses_check(a, b)


@report(6, "vaserstein transform with central witness", 15)
def test_criterion_06():
    rng = random.Random(106)
    instances = coeff_instances()
    rings = [SeriesRing(instances[0][0], alphabet=("x", "y"), order=3),
             one_letter(instances[3][0], 3),
             one_letter(instances[4][0], 3)]
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 2000
        R = rings[done % 3]
        a = random_unit(R, rng)
        b = random_unit(R, rng)
        c = R.lift(R.coeff.random_central(rng))
        try:
            _, ok = vaserstein_transform(a, b, c)
        except NotInvertible:
            continue
        assert ok
        done += 1


@report(7, "cyclic log annihilates all generator flavors", 60)
def test_criterion_07():
    rng = random.Random(107)
    m2 = coeff_instances()[2][0]
    free = coeff_instances()[4][0]
    for coeff in (free, m2):
        R = SeriesRing(coeff, alphabet=("x", "y"), order=4)
        for flavor in FLAVORS:
            for _ in range(200):
                a, b = random_flavor_pair(R, rng, flavor)
                assert cyc_log(c_generator(a, b, flavor=flavor)).is_zero()


@report(8, "determinant multiplicative mod C, cyclically symmetric", 120)
def test_criterion_08():
    rng = random.Random(108)
    free = coeff_instances()[4][0]
    R = SeriesRing(free, alphabet=("x", "y"), order=3)
    shapes = ((2, 1), (2, 2), (3, 2))
    for i in range(100):
        n = 2 + (i % 2)
        m = random_unipotent_matrix(R, rng, n)
        k = random_unipotent_matrix(R, rng, n)
        assert cyc_log(dieudonne_det(m * k)) \
            == cyc_log(dieudonne_det(m)) + cyc_log(dieudonne_det(k))
        n, k = shapes[i % 3]
        a = random_kernel_matrix(R, rng, n, k)
        b = random_kernel_matrix(R, rng, k, n)
        lhs = cyc_log(dieudonne_det(SeriesMatrix.identity(R, n) + a * b))
        rhs = cyc_log(dieudonne_det(SeriesMatrix.identity(R, k) + b * a))
        assert lhs == rhs


@report(9, "endomorphism additivity on block assemblies", 60)
def test_criterion_09():
    rng = random.Random(109)
    q = RationalField()
    m2 = coeff_instances()[2][0]
    for i in range(100):
        coeff = (q, m2)[i % 2]
        na = 1 + (i % 2)
        nb = 1 + ((i // 2) % 2)
        alpha = [[coeff.random_element(rng) for _ in range(na)]
                 for _ in range(na)]
        alpha2 = [[coeff.random_element(rng) for _ in range(nb)]
                  for _ in range(nb)]
        coupling = [[coeff.random_element(rng) for _ in range(nb)]
                    for _ in range(na)]
        assert exact_sequence_additivity_check(coeff, alpha, alpha2,
                                               coupling, 4)


@report(10, "closed orbit coefficients and class grouping", 5)
def test_criterion_10():
    q = RationalField()
    R = SeriesRing(q, alphabet=("z",), order=5)
    u = NovikovSeries(R.one() - R.letter("z"))
    v = w1_invariant(u)
    assert v.entries == {("1", "z" * n): F(-1, n) for n in range(1, 6)}

    # orbit counts over C2 against a brute-force regrouping of w1
    qc2 = GroupAlgebra(cyclic_group(2))
    Rz = SeriesRing(qc2, alphabet=("z",), order=4)
    g = Rz.lift(qc2.parse_element_literal("g1"))
    z = Rz.letter("z")
    w = NovikovSeries(Rz.one() - g * z + (z * z).scale(F(1, 2)))
    rep = orbit_counts(w)

    group = cyclic_group(2)
    want = {}
    for (label, word), val in w1_invariant(w).entries.items():
        n = len(word)
        member = group.names.index(label)
        # brute-force class at degree n: orbit of g -> h g h^-1 (identity twist)
        cls = min(group.table[group.table[h][member]][group.inv[h]]
                  for h in range(group.order))
        key = (n, group.names[cls])
        want[key] = want.get(key, F(0)) + val
    want = {k: v for k, v in want.items() if v}
    assert rep.entries == want
