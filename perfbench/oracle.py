"""Exact arithmetic written apart from twistdet, used to check its outputs.

Nothing here imports twistdet. Coefficient rings are rebuilt from the same
JSON ring documents the program reads, and series products follow the stated
rule a*x = x*xi_x(a) directly: moving a coefficient b leftward past a word v
applies the inverse twists of v's letters from right to left.

Element forms:
  rational       Fraction
  int_mod        int in [0, m)
  matrix         k x k tuple of tuples of Fraction
  group_algebra  dict {group index: nonzero Fraction}
  free_trunc     dict {word tuple: nonzero Fraction}
A series is a dict {word tuple of letter indices: nonzero coefficient}.
"""

from __future__ import annotations

from fractions import Fraction

# -- rational matrices ----------------------------------------------------------


def qmat_mul(a, b):
    k = len(b)
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def qmat_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def qmat_inverse(rows):
    """Gauss-Jordan inverse of a rational matrix; raises on a singular one."""
    n = len(rows)
    work = [[Fraction(x) for x in rows[i]] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


# -- coefficient rings -------------------------------------------------------------


class Rational:
    kind = "rational"
    has_q = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def scale(self, q, a):
        return Fraction(q) * a

    def is_zero(self, a):
        return a == 0

    def trace(self, a):
        return {"1": a} if a else {}

    def from_prog(self, c):
        return c

    def to_prog(self, a):
        return a

    def literal(self, a):
        return str(a)


class IntMod(Rational):
    kind = "int_mod"
    has_q = False

    def __init__(self, m):
        self.m = m

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def scale(self, q, a):
        q = Fraction(q)
        if q.denominator != 1:
            raise ValueError("non-integral scalar over Z/m")
        return (q.numerator * a) % self.m

    def trace(self, a):
        raise ValueError("Z/m has no rational trace")


class MatrixQ(Rational):
    kind = "matrix"

    def __init__(self, k):
        self.k = k

    def zero(self):
        return tuple(tuple(Fraction(0) for _ in range(self.k)) for _ in range(self.k))

    def one(self):
        return qmat_identity(self.k)

    def add(self, a, b):
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def neg(self, a):
        return tuple(tuple(-x for x in row) for row in a)

    def mul(self, a, b):
        return qmat_mul(a, b)

    def scale(self, q, a):
        q = Fraction(q)
        return tuple(tuple(q * x for x in row) for row in a)

    def is_zero(self, a):
        return all(x == 0 for row in a for x in row)

    def trace(self, a):
        t = sum((a[i][i] for i in range(self.k)), Fraction(0))
        return {"tr": t} if t else {}

    def literal(self, a):
        return ";".join(",".join(str(x) for x in row) for row in a)


def _dict_add(a, b):
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


class GroupQ(Rational):
    """Q[G] for the group given by a multiplication table."""

    kind = "group_algebra"

    def __init__(self, table):
        self.table = [list(row) for row in table]
        n = len(table)
        self.e = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
        self.inv = [next(j for j in range(n) if table[i][j] == self.e) for i in range(n)]
        self.label = {}
        for g in range(n):
            cls = {table[table[h][g]][self.inv[h]] for h in range(n)}
            self.label[g] = f"g{min(cls)}"

    def zero(self):
        return {}

    def one(self):
        return {self.e: Fraction(1)}

    def add(self, a, b):
        return _dict_add(a, b)

    def neg(self, a):
        return {g: -c for g, c in a.items()}

    def mul(self, a, b):
        out = {}
        for g, c in a.items():
            row = self.table[g]
            for h, d in b.items():
                k = row[h]
                out[k] = out.get(k, 0) + c * d
        return {g: c for g, c in out.items() if c}

    def scale(self, q, a):
        q = Fraction(q)
        return {g: q * c for g, c in a.items()} if q else {}

    def is_zero(self, a):
        return not a

    def trace(self, a):
        out = {}
        for g, c in a.items():
            out[self.label[g]] = out.get(self.label[g], 0) + c
        return {k: v for k, v in out.items() if v}

    def from_prog(self, c):
        return dict(c)

    def to_prog(self, a):
        return tuple((g, a[g]) for g in sorted(a))

    def literal(self, a):
        if not a:
            return "0"
        return "+".join(f"{a[g]}*g{g}" for g in sorted(a)).replace("+-", "-")


class FreeQ(GroupQ):
    """Q<generators> with words longer than max_degree set to zero."""

    kind = "free_trunc"

    def __init__(self, generators, max_degree):
        self.generators = tuple(generators)
        self.d = max_degree

    def one(self):
        return {(): Fraction(1)}

    def mul(self, a, b):
        out = {}
        for v, c in a.items():
            for w, d in b.items():
                if len(v) + len(w) <= self.d:
                    out[v + w] = out.get(v + w, 0) + c * d
        return {w: c for w, c in out.items() if c}

    def trace(self, a):
        out = {}
        for w, c in a.items():
            lab = min(w[i:] + w[:i] for i in range(len(w))) if w else ()
            key = "".join(self.generators[i] for i in lab) or "1"
            out[key] = out.get(key, 0) + c
        return {k: v for k, v in out.items() if v}

    def to_prog(self, a):
        return tuple((w, a[w]) for w in sorted(a, key=lambda w: (len(w), w)))

    def literal(self, a):
        if not a:
            return "0"
        parts = []
        for w in sorted(a, key=lambda w: (len(w), w)):
            word = "".join(self.generators[i] for i in w)
            parts.append(f"{a[w]}*{word}" if word else str(a[w]))
        return "+".join(parts).replace("+-", "-")


def coeff_from_doc(doc):
    """(arithmetic, {automorphism name: function}) for a coefficient document."""
    kind = doc["kind"]
    autos = {"id": lambda a: a}
    if kind == "rational":
        return Rational(), autos
    if kind == "int_mod":
        return IntMod(doc["modulus"]), autos
    if kind == "matrix":
        ar = MatrixQ(doc["size"])
        for name, rows in doc.get("conjugations", {}).items():
            p = tuple(tuple(Fraction(x) for x in row) for row in rows)
            pinv = qmat_inverse(p)
            autos[name] = lambda a, p=p, pinv=pinv: qmat_mul(qmat_mul(p, a), pinv)
            autos[name + "^-1"] = lambda a, p=p, pinv=pinv: qmat_mul(qmat_mul(pinv, a), p)
        return ar, autos
    if kind == "group_algebra":
        ar = GroupQ(doc["group"]["table"])
        for name, perm in doc.get("automorphisms", {}).items():
            inv = [0] * len(perm)
            for i, p in enumerate(perm):
                inv[p] = i
            autos[name] = lambda a, p=tuple(perm): {p[g]: c for g, c in a.items()}
            autos[name + "^-1"] = lambda a, p=tuple(inv): {p[g]: c for g, c in a.items()}
        return ar, autos
    if kind == "free_trunc":
        ar = FreeQ(doc["generators"], doc["max_degree"])
        for name, perm in doc.get("permutations", {}).items():
            inv = [0] * len(perm)
            for i, p in enumerate(perm):
                inv[p] = i
            autos[name] = lambda a, p=tuple(perm): {tuple(p[i] for i in w): c
                                                    for w, c in a.items()}
            autos[name + "^-1"] = lambda a, p=tuple(inv): {tuple(p[i] for i in w): c
                                                           for w, c in a.items()}
        return ar, autos
    raise ValueError(f"unknown coefficient kind {kind!r}")


# -- series -------------------------------------------------------------------------


class Series:
    """Truncated twisted series over one of the rings above."""

    def __init__(self, doc, order=None):
        self.A, autos = coeff_from_doc(doc["coeff"])
        self.alphabet = tuple(doc.get("alphabet", ["x"]))
        self.order = doc["order"] if order is None else order
        twist = doc.get("twist") or {}
        names = [twist.get(a, "id") for a in self.alphabet]
        self.twisted = any(n != "id" for n in names)
        self.fwd = [autos[n] for n in names]
        self.back = [autos["id"] if n == "id" else autos[n + "^-1"] for n in names]

    # conversions
    def from_prog(self, s):
        return {tuple(w): self.A.from_prog(c) for w, c in s.terms.items()}

    def literal(self, s):
        """A series literal in the program's input syntax."""
        if not s:
            return "0"
        parts = []
        for w in sorted(s, key=lambda w: (len(w), w)):
            coeff = f"[{self.A.literal(s[w])}]"
            parts.append(coeff + (f'*w("{"".join(self.alphabet[i] for i in w)}")' if w else ""))
        return "+".join(parts)

    # arithmetic
    def clean(self, s):
        return {w: c for w, c in s.items() if not self.A.is_zero(c)}

    def one(self):
        return {(): self.A.one()}

    def add(self, s, t):
        A = self.A
        out = dict(s)
        for w, c in t.items():
            out[w] = A.add(out[w], c) if w in out else c
        return self.clean(out)

    def neg(self, s):
        return {w: self.A.neg(c) for w, c in s.items()}

    def sub(self, s, t):
        return self.add(s, self.neg(t))

    def scale(self, q, s):
        return self.clean({w: self.A.scale(q, c) for w, c in s.items()})

    def move_left(self, v, b):
        if self.twisted:
            for i in reversed(v):
                b = self.back[i](b)
        return b

    def mul(self, s, t):
        """Word convolution by degree: only pairs that fit the order meet."""
        A, N = self.A, self.order
        by_len = {}
        for w, b in t.items():
            by_len.setdefault(len(w), []).append((w, b))
        out = {}
        for v, a in s.items():
            for k in range(N - len(v) + 1):
                for w, b in by_len.get(k, ()):
                    c = A.mul(a, self.move_left(v, b))
                    word = v + w
                    out[word] = A.add(out[word], c) if word in out else c
        return self.clean(out)

    def inverse_unipotent(self, s):
        """Inverse of a series with constant term 1: sum of (1-s)^k."""
        theta = self.sub(self.one(), s)
        acc, power = self.one(), self.one()
        for _ in range(self.order):
            power = self.mul(power, theta)
            if not power:
                break
            acc = self.add(acc, power)
        return acc

    def log(self, u):
        theta = self.sub(u, self.one())
        acc, power = {}, self.one()
        for k in range(1, self.order + 1):
            power = self.mul(power, theta)
            if not power:
                break
            acc = self.add(acc, self.scale(Fraction((-1) ** (k + 1), k), power))
        return acc

    def cyc_log(self, u):
        """{(trace label, least rotation as text): value} of log(u).

        Valid as the program's invariant for untwisted rings and for one
        letter, where no rotation moves a coefficient past a letter.
        """
        out = {}
        for w, c in self.log(u).items():
            rot = min(w[i:] + w[:i] for i in range(len(w)))
            text = "".join(self.alphabet[i] for i in rot)
            for label, q in self.A.trace(c).items():
                key = (label, text)
                out[key] = out.get(key, 0) + q
        return {k: v for k, v in out.items() if v}

    # matrices of series
    def mat_mul(self, a, b):
        zero = {}
        return [[_sum(self, (self.mul(a[i][t], b[t][j]) for t in range(len(b))), zero)
                 for j in range(len(b[0]))] for i in range(len(a))]

    def mat_identity(self, n):
        return [[self.one() if i == j else {} for j in range(n)] for i in range(n)]

    def det_cofactor(self, m):
        """Laplace expansion along the first row; commutative rings only."""
        n = len(m)
        if n == 1:
            return m[0][0]
        acc = {}
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = self.mul(m[0][j], self.det_cofactor(minor))
            acc = self.add(acc, term if j % 2 == 0 else self.neg(term))
        return acc

    def det_schur(self, m):
        """D for a matrix with identity augmentation: a11 * D(Schur complement)."""
        n = len(m)
        if n == 1:
            return m[0][0]
        a11_inv = self.inverse_unipotent(m[0][0])
        u = [self.mul(a11_inv, m[0][j]) for j in range(1, n)]
        d2 = [[self.sub(m[i][j], self.mul(m[i][0], u[j - 1])) for j in range(1, n)]
              for i in range(1, n)]
        return self.mul(m[0][0], self.det_schur(d2))


def _sum(ring, items, zero):
    acc = zero
    for s in items:
        acc = ring.add(acc, s)
    return acc


def trace_log_one_minus(A, alpha, order):
    """{(label, "x"*j): value} of -sum_j tr(alpha^j)/j, the trace of log(1 - alpha x).

    alpha is a square matrix over A; tr sums the diagonal, then takes A's trace.
    """
    n = len(alpha)
    out = {}
    power = [[A.one() if i == j else A.zero() for j in range(n)] for i in range(n)]
    for j in range(1, order + 1):
        power = [[_fold(A, (A.mul(power[i][t], alpha[t][c]) for t in range(n)))
                  for c in range(n)] for i in range(n)]
        diag = _fold(A, (power[i][i] for i in range(n)))
        for label, q in A.trace(diag).items():
            out[(label, "x" * j)] = -q / j
    return {k: v for k, v in out.items() if v}


def _fold(A, items):
    acc = A.zero()
    for x in items:
        acc = A.add(acc, x)
    return acc


def laurent_identity_window(A, twist, untwist, u, v):
    """True iff u*v is 1 on every degree both factors determine.

    u and v are (min degree, max degree, {degree: coefficient}). A coefficient
    moves left past z^d as z^d c = untwist^d(c) z^d, where untwist is the
    inverse of the letter's twist; for negative d the twist itself applies.
    """
    (lo_u, hi_u, cu), (lo_v, hi_v, cv) = u, v
    past = {0: lambda c: c}
    for d in range(1, hi_u + 1):
        past[d] = (lambda f: lambda c: untwist(f(c)))(past[d - 1])
    for d in range(-1, lo_u - 1, -1):
        past[d] = (lambda f: lambda c: twist(f(c)))(past[d + 1])
    for k in range(lo_u + lo_v, min(hi_u + lo_v, hi_v + lo_u) + 1):
        acc = A.zero()
        for d in range(max(lo_u, k - hi_v), min(hi_u, k - lo_v) + 1):
            if d in cu and k - d in cv:
                acc = A.add(acc, A.mul(cu[d], past[d](cv[k - d])))
        if k == 0:
            acc = A.add(acc, A.neg(A.one()))
        if not A.is_zero(acc):
            return False
    return True
