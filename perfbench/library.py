"""The two in-process workloads: series-dense and invariants-mixed.

Each builder returns a list of rounds; a round is a list of Op with the same
operation kinds in every round, interleaved by a seeded shuffle, on fresh
seeded inputs. Program functions are looked up on their modules at call
time, so a traced run sees every call.
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction

import inputs as gen
import oracle


class Wrong(Exception):
    """An output failed a check that holds even on the known-faulty inputs."""


class Op:
    """One timed operation: run() gives the output, check(output) judges it.

    check returns True or False; fault marks the operations that fail every
    time because of a known fault in the program.
    """

    __slots__ = ("kind", "run", "check", "fault")

    def __init__(self, kind, run, check, fault=False):
        self.kind, self.run, self.check, self.fault = kind, run, check, fault


def program():
    """The twistdet modules, imported on first use."""
    names = ("documents", "series", "matrices", "kgroup", "novikov", "literals")
    return {n: importlib.import_module("twistdet." + n) for n in names}


class Ring:
    """A ring document with its program ring and its oracle twin."""

    def __init__(self, tw, doc):
        self.doc = doc
        self.R = tw["documents"].series_ring_from_doc(doc)
        self.O = oracle.Series(doc)

    def prog(self, s):
        return gen.to_program(self.R, self.O, s)

    def prog_matrix(self, tw, m):
        return tw["matrices"].SeriesMatrix(self.R, [[self.prog(e) for e in row] for row in m])

    def back(self, s):
        return self.O.from_prog(s)

    def back_matrix(self, m):
        return [[self.back(e) for e in row] for row in m.rows]


def ldu_recompose(O, l, d1, d2, u):
    """[[d1, d1 u], [l d1, l d1 u + d2]] from the factors of an LDU split."""
    n = len(d2) + 1
    m = [[None] * n for _ in range(n)]
    m[0][0] = d1
    for j in range(1, n):
        m[0][j] = O.mul(d1, u[0][j - 1])
    for i in range(1, n):
        ld1 = O.mul(l[i - 1][0], d1)
        m[i][0] = ld1
        for j in range(1, n):
            m[i][j] = O.add(O.mul(ld1, u[0][j - 1]), d2[i - 1][j - 1])
    return m


def cyclog_entries(v):
    return dict(v.entries)


def add_entries(a, b):
    out = dict(a)
    for k, q in b.items():
        s = out.get(k, 0) + q
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


# -- series-dense ---------------------------------------------------------------------

# (coefficient ring, letters, order, twist): dense operands have every word
# up to the order, so most pairs in an all-pairs product overshoot it.
DENSE_CELLS = [
    ("Z/101", 1, 40, None), ("Z/101", 2, 8, None), ("Z/101", 3, 5, None),
    ("Q", 1, 20, None), ("Q", 2, 7, None), ("Q", 3, 4, None),
    ("M2", 1, 8, "shear"), ("M2", 2, 4, "shear"),
]
# (coefficient ring, order, size) for mat_invert and D on one commuting letter.
DENSE_MATRIX_CELLS = {
    "mat_invert": [("Z/101", 12, 3), ("Q", 8, 2), ("Q", 6, 3)],
    "det": [("Z/101", 16, 3), ("Q", 10, 2), ("Q", 8, 3)],
}


def dense_rounds(tw, seed, nrounds):
    rng = random.Random(f"series-dense/{seed}")
    cells = [Ring(tw, gen.ring_doc(gen.COEFF[c], "xyz"[:k], n, t))
             for c, k, n, t in DENSE_CELLS]
    mcells = {kind: [(Ring(tw, gen.ring_doc(gen.COEFF[c], "x", n)), size)
                     for c, n, size in spec]
              for kind, spec in DENSE_MATRIX_CELLS.items()}
    rounds = []
    for _ in range(nrounds):
        ops = []
        for ring in cells:
            ops.append(_dense_mul(rng, ring))
            ops.append(_dense_inverse(rng, ring))
            if ring.O.A.has_q:
                ops.append(_dense_logexp(tw, rng, ring))
        for ring, size in mcells["mat_invert"]:
            ops.append(_dense_mat_invert(tw, rng, ring, size))
        for ring, size in mcells["det"]:
            ops.append(_dense_det(tw, rng, ring, size))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def _dense_mul(rng, ring):
    O = ring.O
    a, b = gen.dense_series(rng, O), gen.dense_series(rng, O)
    pa, pb = ring.prog(a), ring.prog(b)
    return Op("mul", lambda: pa * pb,
              lambda out: ring.back(out) == O.mul(a, b))


def _dense_unit(rng, A):
    if A.kind == "matrix":
        # unit upper triangular times a nonzero scalar: always invertible
        q = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        return ((q, gen.rand_q(rng, 3, (1, 2))), (Fraction(0), q))
    if A.kind == "int_mod":
        return rng.randrange(1, A.m)
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))


def _dense_inverse(rng, ring):
    O = ring.O
    u = gen.dense_series(rng, O, const=_dense_unit(rng, O.A))
    pu = ring.prog(u)
    one = O.one()

    def check(out):
        v = ring.back(out)
        return O.mul(u, v) == one and O.mul(v, u) == one
    return Op("inverse", lambda: pu.inverse(), check)


def _dense_logexp(tw, rng, ring):
    O = ring.O
    u = gen.dense_series(rng, O, const=O.A.one())
    pu = ring.prog(u)
    ser = tw["series"]

    def run():
        t = ser.formal_log(pu)
        return t, ser.formal_exp(t)

    def check(out):
        t, e = out
        return ring.back(t) == O.log(u) and ring.back(e) == u
    return Op("log_exp", run, check)


def _dense_matrix(rng, ring, size, unipotent):
    O = ring.O
    m = [[gen.dense_series(rng, O, const=O.A.zero()) for _ in range(size)]
         for _ in range(size)]
    for i in range(size):
        m[i][i] = O.add(m[i][i], O.one())
        if not unipotent:
            for j in range(i + 1, size):
                m[i][j] = O.add(m[i][j], {(): gen.rand_elem(rng, O.A, nonzero=True)})
    return m


def _dense_mat_invert(tw, rng, ring, size):
    O = ring.O
    m = _dense_matrix(rng, ring, size, unipotent=False)
    pm = ring.prog_matrix(tw, m)
    ident = O.mat_identity(size)

    def check(out):
        inv = ring.back_matrix(out)
        return O.mat_mul(m, inv) == ident and O.mat_mul(inv, m) == ident
    return Op("mat_invert", lambda: tw["matrices"].mat_invert(pm), check)


def _dense_det(tw, rng, ring, size):
    O = ring.O
    m = _dense_matrix(rng, ring, size, unipotent=True)
    pm = ring.prog_matrix(tw, m)
    return Op("det", lambda: tw["matrices"].dieudonne_det(pm),
              lambda out: ring.back(out) == O.det_cofactor(m))


# -- invariants-mixed ----------------------------------------------------------------

FLAVORS = ("a_in_kernel", "ab_ba_in_kernel", "ba_in_kernel", "one_plus_ba_unit", "b_unit")

# C generators over twisted rings: cyc_log buckets them by the plain trace, so
# it does not vanish on them. Fixed inputs; each fails on every run.
TWISTED_CGEN = [
    ("QC4", "inv", 2, 'x', '[g1-3*g3]*w("x")+[-3*g1-2*g2]*w("xx")',
     '[3*g0]+[-2*g1+3*g2+3*g3]*w("x")+[-2*g3]*w("xx")'),
    ("M2", "swap", 2, 'x', '[1,2;0,0]*w("x")', '[1,0;3,0]+[0,1;0,0]*w("x")'),
    ("Qyz", "flip", 2, 'x', '[y]*w("x")', '[z]*w("x")'),
]


def mixed_rings(tw):
    twisted = {"M2": "swap", "M3": "cyc", "QC4": "inv", "QS3": "c12", "Qyz": "flip"}
    orders = {"M2": 4, "M3": 3, "QC4": 4, "QS3": 3, "Qyz": 3}
    rings = {}
    for name, auto in twisted.items():
        rings[name + "/" + auto] = Ring(tw, gen.ring_doc(gen.COEFF[name], "xy", orders[name], auto))
        rings[name] = Ring(tw, gen.ring_doc(gen.COEFF[name], "xy", orders[name]))
    rings["Q/x"] = Ring(tw, gen.ring_doc(gen.COEFF["Q"], "x", 4))
    for name, auto in (("QC4", "inv"), ("QC4", None), ("QS3", None)):
        rings[f"{name}/z/{auto}"] = Ring(tw, gen.ring_doc(gen.COEFF[name], "z", 5, auto))
    for name, auto, order, letter, a, b in TWISTED_CGEN:
        rings[f"cgen/{name}"] = Ring(tw, gen.ring_doc(gen.COEFF[name], letter, order, auto))
    return rings


def mixed_rounds(tw, seed, nrounds):
    rng = random.Random(f"invariants-mixed/{seed}")
    rings = mixed_rings(tw)
    untwisted = ["M2", "M3", "QC4", "QS3", "Qyz"]
    twisted = ["M2/swap", "M3/cyc", "QC4/inv", "QS3/c12", "Qyz/flip"]
    fixed = [_twisted_cgen(tw, rings[f"cgen/{spec[0]}"], spec) for spec in TWISTED_CGEN]
    rounds = []
    for r in range(nrounds):
        ops = list(fixed)
        for i, flavor in enumerate(FLAVORS):
            ops.append(_cgen_cyclog(tw, rng, rings[untwisted[(i + r) % 5]], flavor))
        for i in range(4):
            ring = rings[twisted[(i + r) % 5]]
            ops.append(_mixed_ldu(tw, rng, ring, 2 + i % 2))
            ops.append(_mixed_det(tw, rng, ring, 2 + (i + 1) % 2))
        for i in range(2):
            ops.append(_det_multiplicative(tw, rng, rings[untwisted[(2 * i + r) % 5]]))
        for i in range(3):
            ops.append(_vaserstein(tw, rng, rings[twisted[(i + 2 * r) % 5]]))
        ops.append(_endo_rational(tw, rng, rings["Q/x"], 2 + r % 2))
        for name in ("M2", "QS3"):
            ops.append(_endo_trace(tw, rng, rings[name], 1 + r % 2))
        for name in ("M2", "QC4"):
            ops.append(_addcheck(tw, rng, rings[name]))
        for name in ("QC4/z/inv", "QS3/z/None"):
            ops.append(_nov_invert(tw, rng, rings[name]))
        for name in ("QC4/z/inv", "QC4/z/None"):
            ops.append(_w1_orbits(tw, rng, rings[name], lefschetz=bool(r % 2)))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def _sparse(rng, O, const=None, terms=None):
    return gen.sparse_series(rng, O, terms or rng.randint(2, 4), const=const)


def cgen_inputs(rng, O, flavor, sparse):
    """(a, b) meeting the flavor's condition; sparse(const) draws one operand."""
    A = O.A
    if flavor == "a_in_kernel":
        return sparse(None), sparse(gen.rand_elem(rng, A))
    if flavor in ("ab_ba_in_kernel", "ba_in_kernel"):
        return sparse(gen.rand_elem(rng, A)), sparse(None)
    # one_plus_ba_unit and b_unit: positive central constants q, r, so 1 + qr != 0
    q = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    r = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 3)))
    return sparse(gen.scalar(A, q)), sparse(gen.scalar(A, r))


def _cgen_identity(O, a, b, g):
    one = O.one()
    return O.mul(g, O.add(one, O.mul(b, a))) == O.add(one, O.mul(a, b))


def _cgen_cyclog(tw, rng, ring, flavor):
    O = ring.O
    a, b = cgen_inputs(rng, O, flavor, lambda const: _sparse(rng, O, const=const))
    pa, pb = ring.prog(a), ring.prog(b)
    kg = tw["kgroup"]

    def run():
        g = kg.c_generator(pa, pb, flavor)
        return g, kg.cyc_log(g)

    def check(out):
        g, v = out
        return _cgen_identity(O, a, b, ring.back(g)) and v.is_zero()
    return Op("cgen_cyclog", run, check)


def _twisted_cgen(tw, ring, spec):
    O = ring.O
    lit = tw["literals"]
    pa, pb = lit.parse_series(spec[4], ring.R), lit.parse_series(spec[5], ring.R)
    a, b = ring.back(pa), ring.back(pb)
    kg = tw["kgroup"]

    def run():
        g = kg.c_generator(pa, pb, "ab_ba_in_kernel")
        return g, kg.cyc_log(g)

    def check(out):
        g, v = out
        if not _cgen_identity(O, a, b, ring.back(g)):
            raise Wrong("C generator is not (1+ab)(1+ba)^-1")
        return v.is_zero()
    return Op("cgen_cyclog_twisted", run, check, fault=True)


def _unipotent(rng, ring, size):
    O = ring.O
    return gen.unipotent_matrix(rng, O, size, lambda: _sparse(rng, O, terms=rng.randint(1, 3)))


def _mixed_ldu(tw, rng, ring, size):
    O = ring.O
    m = _unipotent(rng, ring, size)
    pm = ring.prog_matrix(tw, m)

    def check(f):
        return ldu_recompose(O, ring.back_matrix(f.l), ring.back(f.d1),
                             ring.back_matrix(f.d2), ring.back_matrix(f.u)) == m
    return Op("ldu", lambda: tw["matrices"].ldu_decompose(pm), check)


def _mixed_det(tw, rng, ring, size):
    O = ring.O
    m = _unipotent(rng, ring, size)
    pm = ring.prog_matrix(tw, m)
    return Op("det", lambda: tw["matrices"].dieudonne_det(pm),
              lambda out: ring.back(out) == O.det_schur(m))


def _det_multiplicative(tw, rng, ring):
    m, n = _unipotent(rng, ring, 2), _unipotent(rng, ring, 2)
    pm, pn = ring.prog_matrix(tw, m), ring.prog_matrix(tw, n)
    mat, kg = tw["matrices"], tw["kgroup"]

    def run():
        d = [mat.dieudonne_det(x) for x in (pm, pn, pm * pn)]
        return [cyclog_entries(kg.cyc_log(x)) for x in d]

    def check(out):
        cm, cn, cmn = out
        return add_entries(cm, cn) == cmn
    return Op("det_mult", run, check)


def _vaserstein(tw, rng, ring):
    O = ring.O
    a = _sparse(rng, O)
    b = _sparse(rng, O, const=gen.rand_elem(rng, O.A))
    c = O.add(O.scale(gen.rand_q(rng, 3, (1, 2)) or 1, a),
              O.scale(gen.rand_q(rng, 3, (1, 2)), O.mul(a, a)))
    pa, pb, pc = ring.prog(a), ring.prog(b), ring.prog(c)
    want = O.add(O.add(b, c), O.mul(O.mul(b, a), c))

    def check(out):
        b2, ok = out
        return ok is True and ring.back(b2) == want
    return Op("vaserstein", lambda: tw["kgroup"].vaserstein_transform(pa, pb, pc), check)


def _coeff_matrix(rng, A, n):
    return [[gen.rand_elem(rng, A) for _ in range(n)] for _ in range(n)]


def _endo_rational(tw, rng, ring, n):
    O = ring.O
    A = O.A
    alpha = _coeff_matrix(rng, A, n)
    want = O.det_cofactor([[O.sub({(): A.one()} if i == j else {}, {(0,): alpha[i][j]})
                            for j in range(n)] for i in range(n)])
    coeff, order = ring.R.coeff, ring.R.order
    return Op("endo_class",
              lambda: tw["kgroup"].endo_class_invariant(coeff, alpha, order),
              lambda out: ring.back(out) == want)


def _endo_trace(tw, rng, ring, n):
    A = ring.O.A
    alpha = _coeff_matrix(rng, A, n)
    palpha = tuple(tuple(A.to_prog(x) for x in row) for row in alpha)
    coeff, order = ring.R.coeff, ring.R.order
    want = oracle.trace_log_one_minus(A, alpha, order)
    kg = tw["kgroup"]

    def run():
        return cyclog_entries(kg.cyc_log(kg.endo_class_invariant(coeff, palpha, order)))
    return Op("endo_class", run, lambda out: out == want)


def _addcheck(tw, rng, ring):
    A = ring.O.A
    n, m = rng.choice(((1, 1), (1, 2), (2, 1)))
    alpha, alpha2 = _coeff_matrix(rng, A, n), _coeff_matrix(rng, A, m)
    coupling = [[gen.rand_elem(rng, A) for _ in range(m)] for _ in range(n)]
    args = [tuple(tuple(A.to_prog(x) for x in row) for row in mat)
            for mat in (alpha, alpha2, coupling)]
    coeff, order = ring.R.coeff, ring.R.order
    return Op("addcheck",
              lambda: tw["kgroup"].exact_sequence_additivity_check(coeff, *args, order),
              lambda out: out is True)


def _novikov(tw, ring, degrees):
    A = ring.O.A
    return tw["novikov"].NovikovSeries.from_degree_map(
        ring.R, {d: A.to_prog(c) for d, c in degrees.items()})


def _nov_read(ring, u):
    """(min degree, max degree, {degree: coefficient}) of a program element."""
    O = ring.O
    twist = O.fwd[0]
    out = {}
    for w, c in u.base.terms.items():
        c = O.A.from_prog(c)
        for _ in range(u.shift):
            c = twist(c)
        out[len(w) - u.shift] = c
    return -u.shift, u.base.ring.order - u.shift, out


def _nov_invert(tw, rng, ring):
    O = ring.O
    A = O.A
    low = -rng.randint(1, 2)
    degrees = {low: gen.scalar(A, Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))}
    for d in range(low + 1, 3):
        degrees[d] = gen.rand_elem(rng, A)
    pu = _novikov(tw, ring, degrees)
    known = (low, 10 * ring.R.order, {d: c for d, c in degrees.items() if not A.is_zero(c)})

    def check(v):
        return oracle.laurent_identity_window(A, O.fwd[0], O.back[0], known, _nov_read(ring, v))
    return Op("nov_invert", lambda: tw["novikov"].nov_invert(pu), check)


def _w1_orbits(tw, rng, ring, lefschetz):
    O = ring.O
    A = O.A
    degrees = {0: A.one()}
    for d in range(1, rng.randint(2, 4) + 1):
        degrees[d] = gen.rand_elem(rng, A)
    pu = _novikov(tw, ring, degrees)
    want = O.cyc_log(O.clean({(0,) * d: c for d, c in degrees.items()}))
    nov = tw["novikov"]

    def run():
        return cyclog_entries(nov.w1_invariant(pu)), nov.orbit_counts(pu, lefschetz)

    def check(out):
        w1, orbits = out
        if w1 != want:
            return False
        totals = {}
        for (label, word), q in w1.items():
            n = len(word)
            totals[n] = totals.get(n, 0) + (q * n if lefschetz else q)
        counted = {}
        for (n, label), q in orbits.entries.items():
            counted[n] = counted.get(n, 0) + q
        return ({n: q for n, q in totals.items() if q}
                == {n: q for n, q in counted.items() if q})
    return Op("w1_orbits", run, check)
