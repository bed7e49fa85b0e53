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
documents._OPERANDS: a job key in _OPTIONS is read from the option --key, and
every other key from the operands, in table order; --order overrides the
ring's order. parse_command_line reads the command line and no file;
_build_job then reads the ring and the JSON operands. Series operands are
literal strings like '1+[g1]*w("x")', one operand per literal. Matrix and
Novikov operands are JSON, given inline or as @path to read a file.

Options may stand before, between or after the operands, as --name value or
--name=value, and are never abbreviated. '--' ends the options. Any other token
that starts with '-' is an option, unless it is '-' alone, or names no option
and is a negative number or holds a space, so a literal such as '-2+w("x")'
goes after '--'. -h or --help prints plain-text usage and exits 0.
"""

from __future__ import annotations

import json
import operator
import re
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
from .rings import quoted
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


def _build_job(op: str, values: dict):
    """The job document of a parsed command line: a run's job file, or a job
    of op's keys in _OPERANDS order. Reads the ring and every JSON operand."""
    if op == "run":
        return _load_json_arg("@" + values["job"])
    job = {"op": op}
    for key in _OPERANDS[op]:
        value = values.get(key)
        if key == "ring":
            value = _load_json_arg("@" + value)
            if "order" in values and isinstance(value, dict):
                value = {**value, "order": values["order"]}
        elif key not in _OPTIONS and key not in ("series", "suite"):
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
    try:
        ring = series_ring_from_doc(job["ring"])
    except ValidationError as exc:
        raise exc.under("ring") from None
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
    """A command line that parse_command_line refuses; main reports it as a
    JSON error."""


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
         "novikov": "w1 invariant and orbit counts; --lefschetz multiplies "
                    "degree-n buckets by n",
         "selftest": "run a named property suite",
         "run": "execute a job document"}

# job key -> metavar of its option --key, None for a flag. A subcommand takes
# the options of its job keys, and --order along with --ring.
_OPTIONS = {"ring": "FILE", "order": "N", "out": "FILE", "flavor": "NAME",
            "seed": "N", "trials": "N", "lefschetz": None}
_INTS = ("order", "seed", "trials")
_CHOICES = {"flavor": FLAVORS, "suite": SUITE_NAMES}
_RUN = {"job": {}, "out": {}}  # the keys of run: a job file, and --out
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_GRAMMAR = """\
--ring FILE reads a series-ring JSON document and --order N overrides its
truncation order; --out FILE writes the output document there, not to stdout.
Series operands are literals such as '1+w("x")', one per operand; the other
operands are JSON, inline or as @path. Options may come before, between or
after the operands, as --name VALUE or --name=VALUE, and are never abbreviated.
'--' ends the options, so an operand that starts with '-', such as
'-2+w("x")', goes after it."""


def parse_command_line(argv) -> tuple[str, dict]:
    """Read a command line into (subcommand, {job key: value}); reads no file.

    A value is the command line's string, a list of them for "series", an int
    for --order, --seed and --trials, or True for --lefschetz. Raises
    UsageError on an unknown subcommand or option, an option without its value,
    a bad int or name, or too few or too many operands. -h or --help prints the
    usage and raises SystemExit(0).
    """
    op = argv[0] if argv else None
    if op in ("-h", "--help"):
        _exit_with_help(None)
    keys = _RUN if op == "run" else _OPERANDS.get(op)
    if keys is None:
        raise UsageError(f"twistdet: expected a subcommand ({', '.join(_HELP)}), "
                         f"got {quoted(op) if argv else 'none'}")
    prog = f"twistdet {op}"
    names = _option_names(keys)
    values, operands = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            operands.extend(tokens)
        elif not _is_option(token, names):
            operands.append(token)
        else:
            name, eq, value = token.partition("=")
            key = names.get(name)
            if key is None and name not in ("-h", "--help"):
                raise UsageError(f"{prog}: unknown option {quoted(name)}; it takes "
                                 f"{', '.join(names)}, and an operand that starts "
                                 f"with '-' goes after '--'")
            if key is None or _OPTIONS[key] is None:  # a flag
                if eq:
                    raise UsageError(f"{prog}: {name} takes no value")
                if key is None:
                    _exit_with_help(op)
                values[key] = True
                continue
            if not eq:
                value = next(tokens, "--")
                if value == "--" or _is_option(value, names):
                    raise UsageError(f"{prog}: {name} needs a value")
            values[key] = _checked(prog, key, value)
    for key, count in _operands(keys):
        n = count or max(len(operands), 1)
        if len(operands) < n:
            raise UsageError(f"{prog}: missing {key} operand")
        taken, operands = operands[:n], operands[n:]
        values[key] = taken if key == "series" else _checked(prog, key, taken[0])
    if operands:
        raise UsageError(f"{prog}: unexpected operand {quoted(operands[0])}")
    if "ring" in keys and "ring" not in values:
        raise UsageError(f"{prog}: --ring is required")
    return op, values


def _option_names(keys) -> dict:
    """{--name: job key} of the options a subcommand with these job keys takes."""
    names = {}
    for key in keys:
        if key in _OPTIONS:
            names["--" + key] = key
        if key == "ring":
            names["--order"] = "order"
    return names


def _operands(keys):
    """Yield (job key, count) per operand key, in command-line order; a count
    of None takes one literal or more."""
    for key, schema in keys.items():
        if key not in _OPTIONS:
            yield key, schema.get("maxItems") if key == "series" else 1


def _is_option(token: str, names) -> bool:
    # as argparse reads it: a token that starts with "-" is an option unless
    # it is "-" alone, or names no option and is a negative number or holds a space
    if token.partition("=")[0] in names:
        return True
    return (len(token) > 1 and token[0] == "-" and " " not in token
            and not _NEGATIVE_NUMBER.match(token))


def _checked(prog: str, key: str, value: str):
    """value as job key takes it: an int, or one of the names in _CHOICES."""
    label = "--" + key if key in _OPTIONS else key
    if key in _INTS:
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"{prog}: {label} takes an integer, "
                             f"not {quoted(value)}") from None
    if key in _CHOICES and value not in _CHOICES[key]:
        raise UsageError(f"{prog}: {label} is one of {', '.join(_CHOICES[key])}, "
                         f"not {quoted(value)}")
    return value


def _exit_with_help(op) -> None:
    sys.stdout.write(_usage(op))
    raise SystemExit(0)


def _usage(op) -> str:
    """Plain-text help: the subcommands, or one subcommand's usage line."""
    if op is None:
        width = max(map(len, _HELP))
        lines = ["usage: twistdet SUBCOMMAND [OPTIONS] OPERANDS...", "",
                 "Exact invariants of truncated twisted power series.", "", "subcommands:",
                 *(f"  {name:<{width}}  {text}" for name, text in _HELP.items()), "",
                 "twistdet SUBCOMMAND --help shows the options and operands of one."]
    else:
        keys = _RUN if op == "run" else _OPERANDS[op]
        words = [f"usage: twistdet {op}"]
        for name, key in _option_names(keys).items():
            shown = f"{name} {_metavar(key)}" if _OPTIONS[key] else name
            words.append(shown if key == "ring" else f"[{shown}]")
        for key, count in _operands(keys):
            if key != "series":
                words.append(_metavar(key) if key in _CHOICES else key)
            elif count is None:
                words.append("series [series ...]")
            else:
                words.append(" ".join(("series",) if count == 1 else "abc"[:count]))
        lines = [" ".join(words), "", _HELP[op]]
    return "\n".join([*lines, "", _GRAMMAR]) + "\n"


def _metavar(key: str) -> str:
    return "{" + ",".join(_CHOICES[key]) + "}" if key in _CHOICES else _OPTIONS[key]


def _emit(doc: dict, out_path) -> None:
    text = canonical_json(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        op, values = parse_command_line(sys.argv[1:] if argv is None else argv)
        job = _build_job(op, values)
        out_path = values.get("out") or (job.get("out") if isinstance(job, dict) else None)
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
