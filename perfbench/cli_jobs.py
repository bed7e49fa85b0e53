"""The cli-jobs workload: one `twistdet` process at a time over a seeded job list.

Every computing subcommand runs in its flag form and in its `run` form, on all
five coefficient kinds where the operation is defined, plus a few 4x4 matrix
documents given as @file. Outputs are decoded with the library and checked
with the oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

import inputs as gen
import oracle
from library import FLAVORS, Ring, cgen_inputs, ldu_recompose, program


def _coeff(name, **override):
    doc = json.loads(json.dumps(gen.COEFF[name]))
    doc.update(override)
    return doc


# kind: (ring for most operations, untwisted ring for cyclog/coset, one-letter
# ring for novikov); None where the operation needs a rational trace.
CLI_RINGS = {
    "rational": (gen.ring_doc(gen.COEFF["Q"], "xy", 3),
                 gen.ring_doc(gen.COEFF["Q"], "xy", 3),
                 gen.ring_doc(gen.COEFF["Q"], "z", 4)),
    "int_mod": (gen.ring_doc(gen.COEFF["Z/12"], "x", 3), None, None),
    "matrix": (gen.ring_doc(gen.COEFF["M2"], "x", 2, "swap"),
               gen.ring_doc(gen.COEFF["M2"], "xy", 2),
               gen.ring_doc(gen.COEFF["M2"], "z", 3)),
    "group_algebra": (gen.ring_doc(gen.COEFF["QC4"], "x", 3, "inv"),
                      gen.ring_doc(gen.COEFF["QS3"], "xy", 2),
                      gen.ring_doc(gen.COEFF["QC4"], "z", 4, "inv")),
    "free_trunc": (gen.ring_doc(_coeff("Qyz", max_degree=2), "x", 2, "flip"),
                   gen.ring_doc(_coeff("Qyz", max_degree=2), "xy", 2),
                   gen.ring_doc(_coeff("Qyz", max_degree=2), "z", 3)),
}
JOB_TIMEOUT_S = 60  # a job still running after this is killed and counts as failed
SERIES_OPS = ("inv", "mul", "log", "ldu", "det", "cgen", "vaserstein",
              "cyclog", "coset", "endoclass", "addcheck", "novikov")
# (operation, kind, form): 4x4 documents that make decoding cost visible
LARGE = [("det", "rational", "flag"), ("det", "matrix", "run"),
         ("ldu", "group_algebra", "flag"), ("ldu", "free_trunc", "run")]


class CliJob:
    """One CLI invocation: its argv (flag form, or `run` with a job file) and a check."""

    __slots__ = ("kind", "argv", "check")

    def __init__(self, kind, argv, check):
        self.kind, self.argv, self.check = kind, argv, check


class CliWorkload:
    def __init__(self, root, seed, workdir):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # children fill __pycache__
        self.peak_rss_kb = 0

    # -- set-up ----------------------------------------------------------------
    def build(self):
        self.tw = program()
        os.makedirs(self.workdir, exist_ok=True)
        rng = random.Random(f"cli-jobs/{self.seed}")
        self._rings = {}
        self._files = 0
        jobs = []
        for kind, docs in CLI_RINGS.items():
            for op in SERIES_OPS:
                for form in ("flag", "run"):
                    job = self._job(rng, op, kind, docs, form, size=None)
                    if job is not None:
                        jobs.append(job)
        for op, kind, form in LARGE:
            jobs.append(self._job(rng, op, kind, CLI_RINGS[kind], form, size=4))
        rng.shuffle(jobs)
        return jobs

    def ring(self, doc):
        key = json.dumps(doc, sort_keys=True)
        if key not in self._rings:
            path = self._write(doc)
            self._rings[key] = (Ring(self.tw, doc), path)
        return self._rings[key]

    def _write(self, doc):
        self._files += 1
        path = os.path.join(self.workdir, f"doc{self._files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _job(self, rng, op, kind, docs, form, size):
        general, traced, one_letter = docs
        doc = {"cyclog": traced, "coset": traced, "novikov": one_letter}.get(op, general)
        if doc is None or (op == "log" and kind == "int_mod"):
            return None
        ring, ring_path = self.ring(doc)
        body, check = getattr(self, "_" + op)(rng, ring, size)
        job = {"op": op, "ring": doc, **body}
        if form == "run":
            argv = ["run", self._write(job)]
        else:
            argv = [op, "--ring", ring_path] + self._flags(op, body, size)
        return CliJob(op, argv, check)

    def _flags(self, op, body, size):
        if "series" in body:
            extra = ["--flavor", body["flavor"]] if "flavor" in body else []
            return extra + list(body["series"])
        if "matrix" in body:
            return ["@" + self._write(body["matrix"])] if size else [json.dumps(body["matrix"])]
        if "alpha" in body and "alpha2" not in body:
            return [json.dumps(body["alpha"])]
        if "alpha2" in body:
            return [json.dumps(body[k]) for k in ("alpha", "alpha2", "coupling")]
        return [json.dumps(body["novikov"])] + (["--lefschetz"] if body.get("lefschetz") else [])

    # -- decoding ----------------------------------------------------------------
    def parse(self, ring, text):
        return ring.back(self.tw["literals"].parse_series(text, ring.R))

    def parse_matrix(self, ring, rows):
        return [[self.parse(ring, t) for t in row] for row in rows]

    @staticmethod
    def entries(doc):
        return {(label, word): Fraction(q)
                for word, labels in doc["entries"].items() for label, q in labels.items()}

    # -- inputs and checks per operation --------------------------------------------
    def _unit_const(self, rng, A):
        if A.kind == "int_mod":
            return rng.choice((1, 5, 7, 11))
        if A.kind == "rational":
            return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        return gen.scalar(A, Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2))))

    def _sparse(self, rng, O, const=None):
        return gen.sparse_series(rng, O, rng.randint(1, 3), const=const)

    def _inv(self, rng, ring, size):
        O = ring.O
        s = self._sparse(rng, O, const=self._unit_const(rng, O.A))
        one = O.one()

        def check(out):
            r = self.parse(ring, out["result"])
            return O.mul(s, r) == one and O.mul(r, s) == one
        return {"series": [O.literal(s)]}, check

    def _mul(self, rng, ring, size):
        O = ring.O
        factors = [self._sparse(rng, O, const=gen.rand_elem(rng, O.A))
                   for _ in range(rng.choice((2, 3)))]
        want = factors[0]
        for f in factors[1:]:
            want = O.mul(want, f)
        return ({"series": [O.literal(f) for f in factors]},
                lambda out: self.parse(ring, out["result"]) == want)

    def _log(self, rng, ring, size):
        O = ring.O
        u = self._sparse(rng, O, const=O.A.one())
        want = O.log(u)
        return ({"series": [O.literal(u)]},
                lambda out: self.parse(ring, out["result"]) == want)

    def _unipotent(self, rng, ring, size):
        O = ring.O
        if size:
            return gen.unipotent_matrix(rng, O, size, lambda: gen.dense_series(rng, O, const=O.A.zero()))
        return gen.unipotent_matrix(rng, O, rng.choice((2, 3)), lambda: self._sparse(rng, O))

    def _ldu(self, rng, ring, size):
        O = ring.O
        m = self._unipotent(rng, ring, size)

        def check(out):
            d1 = self.parse(ring, out["d1"])
            parts = [self.parse_matrix(ring, out[k]) for k in ("l", "d2", "u")]
            return out["recomposes"] is True and ldu_recompose(O, parts[0], d1, *parts[1:]) == m
        return {"matrix": [[O.literal(e) for e in row] for row in m]}, check

    def _det(self, rng, ring, size):
        O = ring.O
        m = self._unipotent(rng, ring, size)
        want = O.det_schur(m)
        return ({"matrix": [[O.literal(e) for e in row] for row in m]},
                lambda out: self.parse(ring, out["det"]) == want)

    def _cgen(self, rng, ring, size):
        O = ring.O
        flavors = FLAVORS[:3] if O.A.kind == "int_mod" else FLAVORS
        flavor = rng.choice(flavors)
        a, b = cgen_inputs(rng, O, flavor, lambda const: self._sparse(rng, O, const=const))
        one = O.one()
        lhs, rhs = O.add(one, O.mul(b, a)), O.add(one, O.mul(a, b))
        return ({"series": [O.literal(a), O.literal(b)], "flavor": flavor},
                lambda out: O.mul(self.parse(ring, out["result"]), lhs) == rhs)

    def _vaserstein(self, rng, ring, size):
        O = ring.O
        a = self._sparse(rng, O)
        b = self._sparse(rng, O, const=gen.rand_elem(rng, O.A))
        c = O.add(O.scale(rng.choice((-2, -1, 1, 2)), a),
                  O.scale(rng.choice((-1, 1, 3)), O.mul(a, a)))
        want = O.add(O.add(b, c), O.mul(O.mul(b, a), c))
        return ({"series": [O.literal(a), O.literal(b), O.literal(c)]},
                lambda out: out["check"] is True and self.parse(ring, out["b_prime"]) == want)

    def _cyclog(self, rng, ring, size):
        O = ring.O
        u = self._sparse(rng, O, const=O.A.one())
        want = O.cyc_log(u)
        return ({"series": [O.literal(u)]}, lambda out: self.entries(out) == want)

    def _coset(self, rng, ring, size):
        O = ring.O
        u = self._sparse(rng, O, const=O.A.one())
        if rng.random() < 0.5:
            # v = u * (1+ab)(1+ba)^-1 lies in the same coset of C
            a, b = self._sparse(rng, O), self._sparse(rng, O, const=gen.rand_elem(rng, O.A))
            one = O.one()
            g = O.mul(O.add(one, O.mul(a, b)), O.inverse_unipotent(O.add(one, O.mul(b, a))))
            v = O.mul(u, g)
        else:
            v = self._sparse(rng, O, const=O.A.one())
        want = "distinct" if O.cyc_log(u) != O.cyc_log(v) else "indistinguishable"
        return ({"series": [O.literal(u), O.literal(v)]},
                lambda out: out["verdict"] == want)

    def _alpha(self, rng, A, n, m=None):
        return [[gen.rand_elem(rng, A) for _ in range(m or n)] for _ in range(n)]

    def _endoclass(self, rng, ring, size):
        A = ring.O.A
        n = rng.choice((1, 2, 3)) if A.kind in ("rational", "int_mod") else rng.choice((1, 2))
        alpha = self._alpha(rng, A, n)
        one_letter = {"coeff": ring.doc["coeff"], "alphabet": ["x"], "order": ring.doc["order"]}
        target, _ = self.ring(one_letter)
        T = target.O
        if A.kind in ("rational", "int_mod"):
            want = T.det_cofactor([[T.sub({(): A.one()} if i == j else {}, {(0,): alpha[i][j]})
                                    for j in range(n)] for i in range(n)])
            check = lambda out: self.parse(target, out["result"]) == want  # noqa: E731
        else:
            want = oracle.trace_log_one_minus(A, alpha, ring.doc["order"])
            check = lambda out: T.cyc_log(self.parse(target, out["result"])) == want  # noqa: E731
        return {"alpha": [[A.literal(x) for x in row] for row in alpha]}, check

    def _addcheck(self, rng, ring, size):
        A = ring.O.A
        n, m = rng.choice(((1, 1), (1, 2), (2, 1)))
        body = {"alpha": self._alpha(rng, A, n), "alpha2": self._alpha(rng, A, m),
                "coupling": self._alpha(rng, A, n, m)}
        body = {k: [[A.literal(x) for x in row] for row in v] for k, v in body.items()}
        return body, lambda out: out["equal"] is True

    def _novikov(self, rng, ring, size):
        O = ring.O
        A = O.A
        degrees = {0: A.one()}
        for d in range(1, rng.randint(2, ring.doc["order"]) + 1):
            degrees[d] = gen.rand_elem(rng, A)
        lefschetz = rng.random() < 0.5
        want = O.cyc_log(O.clean({(0,) * d: c for d, c in degrees.items()}))
        body = {"novikov": {"degrees": {str(d): A.literal(c) for d, c in degrees.items()}}}
        if lefschetz:
            body["lefschetz"] = True

        def check(out):
            w1 = self.entries(out["w1"])
            if w1 != want:
                return False
            if A.kind != "group_algebra":
                return "orbits" not in out
            totals, counted = {}, {}
            for (label, word), q in w1.items():
                totals[len(word)] = totals.get(len(word), 0) + (q * len(word) if lefschetz else q)
            for n, labels in out["orbits"]["entries"].items():
                for q in labels.values():
                    counted[int(n)] = counted.get(int(n), 0) + Fraction(q)
            return ({n: q for n, q in totals.items() if q}
                    == {n: q for n, q in counted.items() if q})
        return body, check

    # -- running -----------------------------------------------------------------
    def spawn(self, job):
        """Run one job as a child process; returns (exit code, stdout text)."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "twistdet.cli", *job.argv],
                                    stdout=out, stderr=err, cwd=self.root, env=self.env)
            watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            return proc.returncode, fh.read()

    def call(self, job):
        """Run one job in this process through twistdet.cli.main."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["twistdet.cli"].main(job.argv)
        return code, out.getvalue()

    @staticmethod
    def judge(job, result):
        code, text = result
        return code == 0 and bool(job.check(json.loads(text)))
