"""Seeded inputs in the oracle's element forms, and their program forms.

Everything here is drawn from a random.Random the caller seeds, so one seed
gives one set of inputs. Nothing here imports twistdet: series become
program objects only through to_program, which calls the ring's from_terms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_table():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[i]] for i in range(3))] for b in perms] for a in perms]


def conjugation_perm(table, t):
    """The group automorphism g -> t g t^-1 as a permutation of indices."""
    n = len(table)
    e = next(i for i in range(n) if all(table[i][k] == k for k in range(n)))
    t_inv = next(j for j in range(n) if table[t][j] == e)
    return [table[table[t][g]][t_inv] for g in range(n)]


def ring_doc(coeff, letters, order, twist=None):
    doc = {"coeff": coeff, "alphabet": list(letters), "order": order}
    if twist:
        doc["twist"] = {a: twist for a in letters}
    return doc


COEFF = {
    "Q": {"kind": "rational"},
    "Z/101": {"kind": "int_mod", "modulus": 101},
    "Z/12": {"kind": "int_mod", "modulus": 12},
    "M2": {"kind": "matrix", "size": 2,
           "conjugations": {"swap": [["0", "1"], ["1", "0"]],
                            "shear": [["1", "1"], ["0", "1"]]}},
    "M3": {"kind": "matrix", "size": 3,
           "conjugations": {"cyc": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]}},
    "QC4": {"kind": "group_algebra", "group": {"name": "C4", "table": cyclic_table(4)},
            "automorphisms": {"inv": [0, 3, 2, 1]}},
    "QS3": {"kind": "group_algebra", "group": {"name": "S3", "table": s3_table()},
            "automorphisms": {"c12": conjugation_perm(s3_table(), 1)}},
    "Qyz": {"kind": "free_trunc", "generators": ["y", "z"], "max_degree": 3,
            "permutations": {"flip": [1, 0]}},
}


def all_words(nletters, order, min_len=0):
    out, frontier = [], [()]
    for n in range(order + 1):
        if n >= min_len:
            out.extend(frontier)
        frontier = [w + (i,) for w in frontier for i in range(nletters)]
    return out


def rand_q(rng, span=4, dens=(1, 1, 2, 3)):
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def rand_elem(rng, A, nonzero=False):
    """A random coefficient; small numerators and denominators."""
    while True:
        if A.kind == "rational":
            a = rand_q(rng)
        elif A.kind == "int_mod":
            a = rng.randrange(A.m)
        elif A.kind == "matrix":
            a = tuple(tuple(rand_q(rng, 3, (1, 1, 2)) for _ in range(A.k)) for _ in range(A.k))
        elif A.kind == "group_algebra":
            n = len(A.table)
            a = {g: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                 for g in rng.sample(range(n), rng.randint(1, 3))}
        else:
            words = all_words(len(A.generators), A.d)
            a = {w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                 for w in rng.sample(words, rng.randint(1, 3))}
        if not (nonzero and A.is_zero(a)):
            return a


def scalar(A, q):
    return A.scale(q, A.one())


def dense_series(rng, O, const=None):
    """Every word up to the order present, with a random coefficient."""
    s = {w: rand_elem(rng, O.A, nonzero=True)
         for w in all_words(len(O.alphabet), O.order, 1)}
    s[()] = rand_elem(rng, O.A) if const is None else const
    return O.clean(s)


def sparse_series(rng, O, terms, const=None, min_len=1):
    """`terms` random words of length >= min_len, plus an optional constant."""
    words = all_words(len(O.alphabet), O.order, min_len)
    s = {w: rand_elem(rng, O.A, nonzero=True)
         for w in rng.sample(words, min(terms, len(words)))}
    if const is not None:
        s[()] = const
    return O.clean(s)


def unipotent_matrix(rng, O, n, make_entry):
    """n x n, augmentation the identity: diagonal 1 + entry, off-diagonal entry."""
    one = O.one()
    return [[O.add(one, make_entry()) if i == j else make_entry() for j in range(n)]
            for i in range(n)]


def to_program(R, O, s):
    """The program's series for an oracle series (built with from_terms)."""
    return R.from_terms([(w, O.A.to_prog(c)) for w, c in s.items()])
