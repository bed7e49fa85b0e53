"""JSON documents: ring descriptions, operands, reports, the job schema and
the validator that checks a job against it.

Output dicts are built in their final key order and rendered with indent=2
and a trailing newline; keys are never re-sorted at dump time (series words
are ordered by graded length, which plain lexicographic sorting would
destroy). Fixed inputs therefore produce byte-identical outputs.
"""

from __future__ import annotations

import heapq
import json
import re
from fractions import Fraction

from .errors import LiteralSyntaxError, ValidationError
from .literals import parse_series, render_series
from .matrices import SeriesMatrix
from .novikov import NovikovSeries, OrbitCountReport
from .kgroup import FLAVORS, CycLogVector
from .rings import (
    CoeffRing,
    FiniteGroup,
    GroupAlgebra,
    IntegersMod,
    RationalField,
    RationalMatrixRing,
    TruncatedFreeAlgebra,
    frac_from_str,
    frac_str,
    quoted,
)
from .selftest import SUITE_NAMES
from .series import SeriesRing, TwistedSeries


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# -- coefficient rings ---------------------------------------------------------

def coeff_ring_from_doc(doc: dict) -> CoeffRing:
    """The coefficient ring a document describes. A ring constructor's
    refusal is raised as a ValidationError naming the field it refuses."""
    kind = doc["kind"]
    if kind == "rational":
        return RationalField()
    if kind == "int_mod":
        return _built(("modulus",), IntegersMod, doc["modulus"])
    if kind == "matrix":
        ring = _built(("size",), RationalMatrixRing, doc["size"])
        for name, mat in sorted(doc.get("conjugations", {}).items()):
            _built(("conjugations", name), ring.register_conjugation, name,
                   [[_frac(x) for x in row] for row in mat])
        return ring
    if kind == "group_algebra":
        g = doc["group"]
        group = _built(("group", "table"), FiniteGroup, g["table"], g.get("name", "G"))
        ring = GroupAlgebra(group)
        for name, perm in sorted(doc.get("automorphisms", {}).items()):
            _built(("automorphisms", name), ring.register_group_automorphism, name, perm)
        return ring
    if kind == "free_trunc":
        ring = _built(("generators",), TruncatedFreeAlgebra, tuple(doc["generators"]),
                      doc["max_degree"])
        for name, perm in sorted(doc.get("permutations", {}).items()):
            _built(("permutations", name), ring.register_generator_permutation, name, perm)
        return ring
    raise LiteralSyntaxError(f"unknown coefficient ring kind {kind!r}")


def _built(path: tuple, build, *args):
    """build(*args), with its ValueError raised as a ValidationError that
    names the document field at `path`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValidationError(str(exc), path) from None


def _frac(x):
    return frac_from_str(x) if isinstance(x, str) else Fraction(x)


# -- series rings ----------------------------------------------------------------

def series_ring_from_doc(doc: dict) -> SeriesRing:
    """The series ring a document describes; a field that a ring
    constructor refuses raises a ValidationError that names it."""
    try:
        coeff = coeff_ring_from_doc(doc["coeff"])
    except ValidationError as exc:
        raise exc.under("coeff") from None
    return SeriesRing(coeff, alphabet=doc.get("alphabet", ["x"]), twist=doc.get("twist"),
                      order=doc["order"], letters_commute=doc.get("letters_commute", False))


# -- operands ---------------------------------------------------------------------

def series_from_doc(ring: SeriesRing, text: str) -> TwistedSeries:
    return parse_series(text, ring)


def series_to_doc(s: TwistedSeries) -> str:
    return render_series(s)


def matrix_from_doc(ring: SeriesRing, rows) -> SeriesMatrix:
    return SeriesMatrix(ring, [[parse_series(t, ring) for t in row] for row in rows])


def matrix_to_doc(m: SeriesMatrix):
    return [[render_series(e) for e in row] for row in m.rows]


def coeff_matrix_from_doc(ring: CoeffRing, rows):
    return tuple(tuple(ring.parse_element_literal(t) for t in row) for row in rows)


def novikov_from_doc(ring: SeriesRing, doc: dict) -> NovikovSeries:
    degrees, keys = {}, {}
    for key, literal in doc["degrees"].items():
        try:
            d = int(key)
        except ValueError:
            raise LiteralSyntaxError(f"bad z-degree {quoted(key)}") from None
        if d in keys:
            raise LiteralSyntaxError(
                f"z-degree keys {quoted(keys[d])} and {quoted(key)} name one degree, {d}")
        keys[d] = key
        degrees[d] = ring.coeff.parse_element_literal(literal)
    for d, key in keys.items():
        if key != str(d):
            raise LiteralSyntaxError(f"z-degree {quoted(key)} is not written as {quoted(str(d))}")
    return NovikovSeries.from_degree_map(ring, degrees)


def novikov_to_doc(u: NovikovSeries) -> dict:
    A = u.base.ring.coeff
    degrees = {}
    for d in range(u.min_degree, u.max_degree + 1):
        c = u.coefficient(d)
        if not A.is_zero(c):
            degrees[str(d)] = A.element_to_literal(c)
    return {"shift": u.shift, "order": u.base.ring.order, "degrees": degrees}


# -- reports ----------------------------------------------------------------------

def cyclog_to_doc(v: CycLogVector) -> dict:
    entries: dict = {}
    for (label, word), q in v.sorted_items():
        entries.setdefault(word, {})[label] = frac_str(q)
    return {"order": v.order, "entries": entries}


def orbit_report_to_doc(r: OrbitCountReport) -> dict:
    entries: dict = {}
    for (n, label), q in r.sorted_items():
        entries.setdefault(str(n), {})[label] = frac_str(q)
    return {"order": r.order, "group": r.group_name, "twist": r.twist_name,
            "lefschetz": r.lefschetz, "entries": entries}


# -- schemas ------------------------------------------------------------------------

_FRACTION = {"type": "string", "pattern": r"^-?[0-9]+(/[0-9]+)?(?!\n)$"}
_PERM = {"type": "array", "items": {"type": "integer", "minimum": 0}}

RING_SCHEMA = {
    "oneOf": [
        {"type": "object", "properties": {"kind": {"const": "rational"}},
         "required": ["kind"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "int_mod"},
                        "modulus": {"type": "integer", "minimum": 2}},
         "required": ["kind", "modulus"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "matrix"},
                        "size": {"type": "integer", "minimum": 1},
                        "conjugations": {
                            "type": "object",
                            "additionalProperties": {
                                "type": "array",
                                "items": {"type": "array", "items": _FRACTION}}}},
         "required": ["kind", "size"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "group_algebra"},
                        "group": {
                            "type": "object",
                            "properties": {
                                "name": {"type": "string"},
                                "table": {"type": "array",
                                          "items": {"type": "array",
                                                    "items": {"type": "integer",
                                                              "minimum": 0}}}},
                            "required": ["table"],
                            "additionalProperties": False},
                        "automorphisms": {"type": "object",
                                          "additionalProperties": _PERM}},
         "required": ["kind", "group"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "free_trunc"},
                        "generators": {"type": "array",
                                       "items": {"type": "string",
                                                 "minLength": 1, "maxLength": 1}},
                        "max_degree": {"type": "integer", "minimum": 1},
                        "permutations": {"type": "object",
                                         "additionalProperties": _PERM}},
         "required": ["kind", "generators", "max_degree"],
         "additionalProperties": False},
    ]
}

SERIES_RING_SCHEMA = {
    "type": "object",
    "properties": {
        "coeff": RING_SCHEMA,
        "alphabet": {"type": "array",
                     "items": {"type": "string", "minLength": 1, "maxLength": 1},
                     "minItems": 1},
        "twist": {"type": "object", "additionalProperties": {"type": "string"}},
        "order": {"type": "integer", "minimum": 0},
        "letters_commute": {"type": "boolean"},
    },
    "required": ["coeff", "order"],
    "additionalProperties": False,
}

_SERIES = {"type": "string"}
_SERIES_MATRIX = {"type": "array", "minItems": 1,
                  "items": {"type": "array", "minItems": 1, "items": _SERIES}}
_COEFF_MATRIX = {"type": "array", "minItems": 1,
                 "items": {"type": "array", "minItems": 1,
                           "items": {"type": "string"}}}
_NOVIKOV = {"type": "object",
            "properties": {"degrees": {"type": "object",
                                       "additionalProperties": {"type": "string"}}},
            "required": ["degrees"], "additionalProperties": False}


def _one_of(names) -> dict:
    # in Python's re, a bare $ also matches before a final newline
    return {"type": "string", "pattern": f"^({'|'.join(names)})(?!\\n)$"}


def _literals(n: int) -> dict:
    return {"type": "array", "items": _SERIES, "minItems": n, "maxItems": n}


def _on_ring(**operands) -> dict:
    return {"ring": SERIES_RING_SCHEMA, "out": {"type": "string"}, **operands}


# {op: {job key: schema}}, keys in the order a job schema lists them after "op"
_OPERANDS = {
    "inv": _on_ring(series=_literals(1)),
    "mul": _on_ring(series={"type": "array", "items": _SERIES, "minItems": 2}),
    "log": _on_ring(series=_literals(1)),
    "ldu": _on_ring(matrix=_SERIES_MATRIX),
    "det": _on_ring(matrix=_SERIES_MATRIX),
    "cgen": _on_ring(series=_literals(2), flavor=_one_of(FLAVORS)),
    "vaserstein": _on_ring(series=_literals(3)),
    "cyclog": _on_ring(series=_literals(1)),
    "coset": _on_ring(series=_literals(2)),
    "endoclass": _on_ring(alpha=_COEFF_MATRIX),
    "addcheck": _on_ring(alpha=_COEFF_MATRIX, alpha2=_COEFF_MATRIX, coupling=_COEFF_MATRIX),
    "novikov": _on_ring(novikov=_NOVIKOV, lefschetz={"type": "boolean"}),
    "selftest": {"out": {"type": "string"}, "suite": _one_of(SUITE_NAMES),
                 "seed": {"type": "integer", "minimum": 0},
                 "order": {"type": "integer", "minimum": 0},
                 "trials": {"type": "integer", "minimum": 1}},
}
_OPTIONAL = ("out", "flavor", "lefschetz", "seed", "order", "trials")

# One schema per job op; a job is valid when it matches the schema of its op.
OP_SCHEMAS = {op: {"type": "object", "properties": {"op": {"const": op}, **keys},
                   "required": ["op", *(key for key in keys if key not in _OPTIONAL)],
                   "additionalProperties": False}
              for op, keys in sorted(_OPERANDS.items())}

JOB_SCHEMA = {"oneOf": list(OP_SCHEMAS.values())}


# -- validation -------------------------------------------------------------------------
#
# Documents are checked by this interpreter of the keywords the schemas above use,
# not by jsonschema, whose import alone costs a CLI process about as much as the
# rest of its start-up. It reports the error that jsonschema.exceptions.best_match
# picks from a draft 2020-12 validator, with the same path and message, except
# that an integral float such as 3.0 is not an "integer" here.

_TYPES = {"object": lambda x: isinstance(x, dict),
          "array": lambda x: isinstance(x, list),
          "string": lambda x: isinstance(x, str),
          "integer": lambda x: type(x) is int,
          "boolean": lambda x: isinstance(x, bool)}


def validate(doc, schema: dict) -> None:
    """Raise ValidationError unless doc matches schema."""
    best = max(_errors(schema, doc), key=_relevance, default=None)
    if best is None:
        return
    path = best[0]
    # a oneOf error gives way to its least relevant sub-error, unless two of them tie
    while best[4]:
        first, *rest = heapq.nsmallest(2, best[4], key=_relevance)
        if rest and _relevance(first) == _relevance(rest[0]):
            break
        best = first
        path += first[0]
    raise ValidationError(best[3], path)


def _relevance(error):
    # the key of jsonschema.exceptions.relevance, less its always-false "strong" term
    path, keyword, type_matches = error[:3]
    return -len(path), path, keyword != "oneOf", not type_matches


def _errors(schema: dict, x, path=()):
    """Yield (path, keyword, type_matches, message, context) for each failure of x,
    in jsonschema's order. Paths in a oneOf's context are relative to its value."""
    type_matches = "type" in schema and _TYPES[schema["type"]](x)

    def fail(message, context=()):
        return path, key, type_matches, message, context

    for key, value in schema.items():
        if key == "type":
            if not type_matches:
                yield fail(f"{x!r} is not of type {value!r}")
        elif key == "properties":
            if isinstance(x, dict):
                for name, sub in value.items():
                    if name in x:
                        yield from _errors(sub, x[name], path + (name,))
        elif key == "required":
            if isinstance(x, dict):
                for name in value:
                    if name not in x:
                        yield fail(f"{name!r} is a required property")
        elif key == "additionalProperties":
            if isinstance(x, dict):
                extras = [name for name in x if name not in schema.get("properties", {})]
                if isinstance(value, dict):
                    for name in extras:
                        yield from _errors(value, x[name], path + (name,))
                elif value is False and extras:
                    names = ", ".join(repr(name) for name in sorted(extras, key=str))
                    verb = "was" if len(extras) == 1 else "were"
                    yield fail("Additional properties are not allowed "
                               f"({names} {verb} unexpected)")
        elif key == "const":
            if x != value or isinstance(x, bool) != isinstance(value, bool):
                yield fail(f"{value!r} was expected")
        elif key == "items":
            if isinstance(x, list):
                for i, item in enumerate(x):
                    yield from _errors(value, item, path + (i,))
        elif key in ("minItems", "minLength"):
            if isinstance(x, list if key == "minItems" else str) and len(x) < value:
                yield fail(f"{x!r} should be non-empty" if value == 1
                           else f"{x!r} is too short")
        elif key in ("maxItems", "maxLength"):
            if isinstance(x, list if key == "maxItems" else str) and len(x) > value:
                yield fail(f"{x!r} is expected to be empty" if value == 0
                           else f"{x!r} is too long")
        elif key == "minimum":
            if type(x) in (int, float) and x < value:
                yield fail(f"{x!r} is less than the minimum of {value!r}")
        elif key == "pattern":
            if isinstance(x, str) and not re.search(value, x):
                yield fail(f"{x!r} does not match {value!r}")
        elif key == "oneOf":
            results = [list(_errors(sub, x)) for sub in value]
            valid = [sub for sub, errors in zip(value, results) if not errors]
            if not valid:
                yield fail(f"{x!r} is not valid under any of the given schemas",
                           [error for errors in results for error in errors])
            elif len(valid) > 1:
                reprs = ", ".join(repr(sub) for sub in valid[1:] + valid[:1])
                yield fail(f"{x!r} is valid under each of {reprs}")
        else:
            raise NotImplementedError(f"schema keyword {key!r}")
