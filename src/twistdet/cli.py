"""Batch command line front end.

Every invocation is normalized into a single job document, validated against
the schema of its op, executed, and answered with one canonical JSON document
on stdout (or --out). Exit codes: 0 success, 1 usage, schema or input-format
error, 2 domain error (and a failed selftest suite), 3 a failed internal
self-check. Every error is one JSON document on stderr; only --help prints
plain text.

A job is checked by documents.validate, a small interpreter of the JSON Schema
keywords the schemas use, so a process never imports jsonschema; the tests
compare the interpreter with jsonschema and check the schemas themselves
against the draft 2020-12 meta-schema. A schema error's message names the
failing JSON path. An integral float such as 3.0 is not an integer.

Series operands are literal strings like '1+[g1]*w("x")'. Matrix and
Novikov operands are JSON, given inline or as @path to read a file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .documents import (
    OP_SCHEMAS,
    canonical_json,
    coeff_matrix_from_doc,
    cyclog_to_doc,
    matrix_from_doc,
    matrix_to_doc,
    novikov_from_doc,
    orbit_report_to_doc,
    series_ring_from_doc,
    validate,
)
from .errors import (
    InternalInvariantError,
    LiteralSyntaxError,
    TwistdetError,
    ValidationError,
)
from .kgroup import (
    FLAVOR_AB_BA_KERNEL,
    FLAVORS,
    c_generator,
    coset_probably_equal,
    cyc_log,
    endo_class_invariant,
    exact_sequence_additivity_check,
    refuse_twisted_trace,
    vaserstein_transform,
)
from .literals import parse_series, render_series
from .matrices import dieudonne_det, ldu_decompose
from .novikov import orbit_counts, w1_invariant
from .selftest import SUITE_NAMES, selftest
from .series import formal_log


def validate_job(job) -> None:
    """Raise ValidationError unless job matches the schema of its op.

    Accepts exactly the documents that documents.JOB_SCHEMA accepts (integral
    floats aside), and reports the error jsonschema's best_match would pick.
    """
    if not isinstance(job, dict):
        raise ValidationError(
            f"a job must be a JSON object, not {type(job).__name__}")
    op = job.get("op")
    schema = OP_SCHEMAS.get(op) if isinstance(op, str) else None
    if schema is None:
        raise ValidationError(
            f"unknown op {op!r}; expected one of {', '.join(OP_SCHEMAS)}",
            path=["op"])
    try:
        validate(job, schema)
    except RecursionError:
        raise ValidationError("JSON nested too deeply") from None


def __getattr__(name):
    # The traced benchmark run (perfbench/spans.py) wraps
    # twistdet.cli.jsonschema.validate; jsonschema is imported only when that
    # name is read, so no CLI process pays for it.
    if name == "jsonschema":
        import jsonschema
        return jsonschema
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _build_job(args) -> dict:
    op = args.op
    if op == "selftest":
        job = {"op": "selftest", "suite": args.suite}
        if args.seed is not None:
            job["seed"] = args.seed
        if args.order is not None:
            job["order"] = args.order
        if args.trials is not None:
            job["trials"] = args.trials
        return job
    ring_doc = _load_json_arg("@" + args.ring)
    if args.order is not None and isinstance(ring_doc, dict):
        ring_doc = {**ring_doc, "order": args.order}
    job = {"op": op, "ring": ring_doc}
    if op in ("inv", "log", "cyclog"):
        job["series"] = [args.series]
    elif op == "mul":
        job["series"] = list(args.series)
    elif op in ("cgen", "coset"):
        job["series"] = [args.a, args.b]
        if op == "cgen" and args.flavor is not None:
            job["flavor"] = args.flavor
    elif op == "vaserstein":
        job["series"] = [args.a, args.b, args.c]
    elif op in ("ldu", "det"):
        job["matrix"] = _load_json_arg(args.matrix)
    elif op == "endoclass":
        job["alpha"] = _load_json_arg(args.alpha)
    elif op == "addcheck":
        job["alpha"] = _load_json_arg(args.alpha)
        job["alpha2"] = _load_json_arg(args.alpha2)
        job["coupling"] = _load_json_arg(args.coupling)
    elif op == "novikov":
        job["novikov"] = _load_json_arg(args.series)
        if args.lefschetz:
            job["lefschetz"] = True
    return job


def execute_job(job: dict):
    """Run a validated job document; returns (output document, exit code)."""
    op = job["op"]
    if op == "selftest":
        report = selftest(job["suite"], seed=job.get("seed", 42),
                          order=job.get("order", 4),
                          trials=job.get("trials", 10))
        return {"op": "selftest", **report}, 0 if report["passed"] else 2
    ring = series_ring_from_doc(job["ring"])
    if op == "inv":
        s = parse_series(job["series"][0], ring)
        return {"op": "inv", "result": render_series(s.inverse())}, 0
    if op == "mul":
        acc = parse_series(job["series"][0], ring)
        for text in job["series"][1:]:
            acc = acc * parse_series(text, ring)
        return {"op": "mul", "result": render_series(acc)}, 0
    if op == "log":
        s = parse_series(job["series"][0], ring)
        return {"op": "log", "result": render_series(formal_log(s))}, 0
    if op == "ldu":
        m = matrix_from_doc(ring, job["matrix"])
        f = ldu_decompose(m)
        return {"op": "ldu",
                "l": matrix_to_doc(f.l),
                "d1": render_series(f.d1),
                "d2": matrix_to_doc(f.d2),
                "u": matrix_to_doc(f.u),
                "recomposes": f.recompose() == m}, 0
    if op == "det":
        m = matrix_from_doc(ring, job["matrix"])
        return {"op": "det", "det": render_series(dieudonne_det(m))}, 0
    if op == "cgen":
        flavor = job.get("flavor", FLAVOR_AB_BA_KERNEL)
        a = parse_series(job["series"][0], ring)
        b = parse_series(job["series"][1], ring)
        return {"op": "cgen", "flavor": flavor,
                "result": render_series(c_generator(a, b, flavor))}, 0
    if op == "vaserstein":
        a, b, c = (parse_series(t, ring) for t in job["series"])
        b2, ok = vaserstein_transform(a, b, c)
        return {"op": "vaserstein", "b_prime": render_series(b2),
                "check": ok}, 0
    if op == "cyclog":
        refuse_twisted_trace(ring, "cyclog needs")
        s = parse_series(job["series"][0], ring)
        return {"op": "cyclog", **cyclog_to_doc(cyc_log(s))}, 0
    if op == "coset":
        u = parse_series(job["series"][0], ring)
        v = parse_series(job["series"][1], ring)
        return {"op": "coset", "verdict": coset_probably_equal(u, v)}, 0
    if op == "endoclass":
        alpha = coeff_matrix_from_doc(ring.coeff, job["alpha"])
        result = endo_class_invariant(ring.coeff, alpha, ring.order)
        return {"op": "endoclass", "order": ring.order,
                "result": render_series(result)}, 0
    if op == "addcheck":
        alpha = coeff_matrix_from_doc(ring.coeff, job["alpha"])
        alpha2 = coeff_matrix_from_doc(ring.coeff, job["alpha2"])
        coupling = coeff_matrix_from_doc(ring.coeff, job["coupling"])
        equal = exact_sequence_additivity_check(ring.coeff, alpha, alpha2,
                                                coupling, ring.order)
        return {"op": "addcheck", "equal": equal}, 0
    if op == "novikov":
        u = novikov_from_doc(ring, job["novikov"])
        lefschetz = job.get("lefschetz", False)
        doc = {"op": "novikov", "lefschetz": lefschetz,
               "w1": cyclog_to_doc(w1_invariant(u))}
        if ring.coeff.kind == "group_algebra":
            doc["orbits"] = orbit_report_to_doc(orbit_counts(u, lefschetz))
        return doc, 0
    raise LiteralSyntaxError(f"unknown operation {op!r}")


def _add_common(sub):
    sub.add_argument("--ring", required=True,
                     help="path to a series-ring JSON document")
    sub.add_argument("--order", type=int, default=None,
                     help="override the ring document's truncation order")
    sub.add_argument("--out", default=None,
                     help="write the output document here instead of stdout")


class UsageError(ValueError):
    """A command line argparse rejects; main reports it as a JSON error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twistdet",
        description="Exact invariants of truncated twisted power series")
    subs = parser.add_subparsers(dest="op", required=True)

    for name, text in (("inv", "invert a series"),
                       ("log", "formal logarithm of a series"),
                       ("cyclog", "cyclic-word logarithm vector")):
        p = subs.add_parser(name, help=text)
        p.add_argument("series")
        _add_common(p)
    p = subs.add_parser("mul", help="product of two or more series")
    p.add_argument("series", nargs="+")
    _add_common(p)
    for name, text in (("ldu", "LDU factors of an augmentation-1 matrix"),
                       ("det", "recursive determinant of such a matrix")):
        p = subs.add_parser(name, help=text)
        p.add_argument("matrix", help="JSON rows of series literals, or @file")
        _add_common(p)
    p = subs.add_parser("cgen", help="(1+ab)(1+ba)^-1 for a flavored pair")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--flavor", choices=FLAVORS, default=None)
    _add_common(p)
    p = subs.add_parser("vaserstein", help="replace b by b+c+bac, check equality")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    _add_common(p)
    p = subs.add_parser("coset", help="one-sided coset distinctness test")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p = subs.add_parser("endoclass", help="determinant invariant of 1-alpha*x")
    p.add_argument("alpha", help="JSON rows of coefficient literals, or @file")
    _add_common(p)
    p = subs.add_parser("addcheck",
                        help="block-triangular determinant additivity")
    p.add_argument("alpha")
    p.add_argument("alpha2")
    p.add_argument("coupling")
    _add_common(p)
    p = subs.add_parser("novikov", help="w1 invariant and orbit counts")
    p.add_argument("series", help='JSON {"degrees": {...}}, or @file')
    p.add_argument("--lefschetz", action="store_true",
                   help="multiply degree-n buckets by n")
    _add_common(p)
    p = subs.add_parser("selftest", help="run a named property suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--out", default=None)
    p = subs.add_parser("run", help="execute a job document")
    p.add_argument("job", help="path to a job JSON file")
    p.add_argument("--out", default=None)
    return parser


def _emit(doc: dict, out_path) -> None:
    text = canonical_json(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.op == "run":
            job = _load_json_arg("@" + args.job)
            out_path = args.out or (job.get("out") if isinstance(job, dict) else None)
        else:
            job = _build_job(args)
            out_path = args.out
        validate_job(job)
        doc, code = execute_job(job)
        _emit(doc, out_path)
    except (ValidationError, json.JSONDecodeError,
            LiteralSyntaxError, ValueError) as exc:
        _emit_error(exc)
        return 1
    except OSError as exc:
        _emit_error(exc)
        return 1
    except InternalInvariantError as exc:
        _emit_error(exc)
        return 3
    except TwistdetError as exc:
        _emit_error(exc)
        return 2
    return code


def _emit_error(exc) -> None:
    if isinstance(exc, ValidationError):
        message = f"{exc.json_path}: {exc.message}"
    else:
        message = str(exc)
    doc = {"error": {"type": type(exc).__name__, "message": message}}
    sys.stderr.write(canonical_json(doc))


if __name__ == "__main__":
    sys.exit(main())
