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

Every job op's subcommand, and the job its command line builds, come from
documents._OPERANDS: each job key there is read from the parsed argument of
the same name, and --order overrides the ring's order. Series operands are
literal strings like '1+[g1]*w("x")', one positional per literal. Matrix and
Novikov operands are JSON, given inline or as @path to read a file.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from functools import reduce

from .documents import (
    _OPERANDS,
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
    job = {"op": args.op}
    for key in _OPERANDS[args.op]:
        value = getattr(args, key)
        if key == "ring":
            value = _load_json_arg("@" + value)
            if args.order is not None and isinstance(value, dict):
                value = {**value, "order": args.order}
        elif key not in _ARGUMENTS and key != "series":
            value = _load_json_arg(value)
        if value is not None:
            job[key] = value
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
    if op == "cyclog":  # refused before its literal is read
        refuse_twisted_trace(ring, "cyclog needs")
    s = [parse_series(text, ring) for text in job.get("series", ())]
    m = matrix_from_doc(ring, job["matrix"]) if "matrix" in job else None
    alphas = [coeff_matrix_from_doc(ring.coeff, job[key])
              for key in ("alpha", "alpha2", "coupling") if key in job]
    if op == "inv":
        doc = {"result": render_series(s[0].inverse())}
    elif op == "mul":
        doc = {"result": render_series(reduce(operator.mul, s))}
    elif op == "log":
        doc = {"result": render_series(formal_log(s[0]))}
    elif op == "ldu":
        f = ldu_decompose(m)
        doc = {"l": matrix_to_doc(f.l), "d1": render_series(f.d1),
               "d2": matrix_to_doc(f.d2), "u": matrix_to_doc(f.u),
               "recomposes": f.recompose() == m}
    elif op == "det":
        doc = {"det": render_series(dieudonne_det(m))}
    elif op == "cgen":
        flavor = job.get("flavor", FLAVOR_AB_BA_KERNEL)
        doc = {"flavor": flavor, "result": render_series(c_generator(*s, flavor))}
    elif op == "vaserstein":
        b2, ok = vaserstein_transform(*s)
        doc = {"b_prime": render_series(b2), "check": ok}
    elif op == "cyclog":
        doc = cyclog_to_doc(cyc_log(s[0]))
    elif op == "coset":
        doc = {"verdict": coset_probably_equal(*s)}
    elif op == "endoclass":
        result = endo_class_invariant(ring.coeff, *alphas, ring.order)
        doc = {"order": ring.order, "result": render_series(result)}
    elif op == "addcheck":
        doc = {"equal": exact_sequence_additivity_check(ring.coeff, *alphas, ring.order)}
    else:  # novikov
        u = novikov_from_doc(ring, job["novikov"])
        lefschetz = job.get("lefschetz", False)
        w1 = w1_invariant(u)
        doc = {"lefschetz": lefschetz, "w1": cyclog_to_doc(w1)}
        if ring.coeff.kind == "group_algebra":
            doc["orbits"] = orbit_report_to_doc(orbit_counts(u, lefschetz, w1))
    return {"op": op, **doc}, 0


class UsageError(ValueError):
    """A command line argparse rejects; main reports it as a JSON error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_HELP = {"inv": "invert a series",
         "mul": "product of two or more series",
         "log": "formal logarithm of a series",
         "ldu": "LDU factors of an augmentation-1 matrix",
         "det": "recursive determinant of such a matrix",
         "cgen": "(1+ab)(1+ba)^-1 for a flavored pair",
         "vaserstein": "replace b by b+c+bac, check equality",
         "cyclog": "cyclic-word logarithm vector",
         "coset": "one-sided coset distinctness test",
         "endoclass": "determinant invariant of 1-alpha*x",
         "addcheck": "block-triangular determinant additivity",
         "novikov": "w1 invariant and orbit counts",
         "selftest": "run a named property suite"}

# job key -> its command line arguments; every other key is a positional: one
# per series literal, or one JSON document (inline or @file)
_ARGUMENTS = {
    "ring": [("--ring", {"required": True, "help": "path to a series-ring JSON document"}),
             ("--order", {"type": int,
                          "help": "override the ring document's truncation order"})],
    "out": [("--out", {"help": "write the output document here instead of stdout"})],
    "flavor": [("--flavor", {"choices": FLAVORS})],
    "lefschetz": [("--lefschetz", {"action": "store_true", "default": None,
                                   "help": "multiply degree-n buckets by n"})],
    "suite": [("suite", {"choices": SUITE_NAMES})],
    "seed": [("--seed", {"type": int})],
    "order": [("--order", {"type": int})],
    "trials": [("--trials", {"type": int})],
}
_JSON_HELP = {"matrix": "JSON rows of series literals, or @file",
              "novikov": 'JSON {"degrees": {...}}, or @file'}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twistdet",
        description="Exact invariants of truncated twisted power series")
    subs = parser.add_subparsers(dest="op", required=True)
    for op, keys in _OPERANDS.items():
        p = subs.add_parser(op, help=_HELP[op])
        for key, schema in keys.items():
            if key in _ARGUMENTS:
                for name, kwargs in _ARGUMENTS[key]:
                    p.add_argument(name, **kwargs)
            elif key != "series":
                p.add_argument(key, help=_JSON_HELP.get(
                    key, "JSON rows of coefficient literals, or @file"))
            elif "maxItems" not in schema:
                p.add_argument("series", nargs="+")
            else:  # one positional per literal, so options may sit between them
                n = schema["maxItems"]
                for name in ("series",) if n == 1 else "abc"[:n]:
                    p.add_argument("series", action="append", metavar=name)
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
        job = _load_json_arg("@" + args.job) if args.op == "run" else _build_job(args)
        out_path = args.out or (job.get("out") if isinstance(job, dict) else None)
        validate_job(job)
        doc, code = execute_job(job)
        _emit(doc, out_path)
    except (LiteralSyntaxError, ValueError, OSError) as exc:
        # ValidationError, JSONDecodeError and UsageError are ValueErrors
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
