"""JSON documents: ring descriptions, operands, reports, and the job schema.

Output dicts are built in their final key order and rendered with indent=2
and a trailing newline; keys are never re-sorted at dump time (series words
are ordered by graded length, which plain lexicographic sorting would
destroy). Fixed inputs therefore produce byte-identical outputs.
"""

from __future__ import annotations

import json

from .errors import LiteralSyntaxError
from .literals import parse_series, render_series
from .matrices import SeriesMatrix
from .novikov import NovikovSeries, OrbitCountReport
from .kgroup import CycLogVector
from .rings import (
    CoeffRing,
    FiniteGroup,
    GroupAlgebra,
    IntegersMod,
    RationalField,
    RationalMatrixRing,
    TruncatedFreeAlgebra,
)
from .series import SeriesRing, TwistedSeries


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# -- coefficient rings ---------------------------------------------------------

def coeff_ring_from_doc(doc: dict) -> CoeffRing:
    kind = doc["kind"]
    if kind == "rational":
        return RationalField()
    if kind == "int_mod":
        return IntegersMod(doc["modulus"])
    if kind == "matrix":
        ring = RationalMatrixRing(doc["size"])
        for name, mat in sorted(doc.get("conjugations", {}).items()):
            ring.register_conjugation(name, [[_frac(x) for x in row] for row in mat])
        return ring
    if kind == "group_algebra":
        g = doc["group"]
        group = FiniteGroup(g["table"], name=g.get("name", "G"))
        ring = GroupAlgebra(group)
        for name, perm in sorted(doc.get("automorphisms", {}).items()):
            ring.register_group_automorphism(name, perm)
        return ring
    if kind == "free_trunc":
        ring = TruncatedFreeAlgebra(tuple(doc["generators"]), doc["max_degree"])
        for name, perm in sorted(doc.get("permutations", {}).items()):
            ring.register_generator_permutation(name, perm)
        return ring
    raise LiteralSyntaxError(f"unknown coefficient ring kind {kind!r}")


def coeff_ring_to_doc(ring: CoeffRing) -> dict:
    if ring.kind == "rational":
        return {"kind": "rational"}
    if ring.kind == "int_mod":
        return {"kind": "int_mod", "modulus": ring.modulus}
    if ring.kind == "matrix":
        doc = {"kind": "matrix", "size": ring.size}
        if ring._conjugators:
            doc["conjugations"] = {
                name: [[str(x) for x in row] for row in mat]
                for name, mat in sorted(ring._conjugators.items())}
        return doc
    if ring.kind == "group_algebra":
        doc = {"kind": "group_algebra",
               "group": {"name": ring.group.name,
                         "table": [list(row) for row in ring.group.table]}}
        if ring._perms:
            doc["automorphisms"] = {name: list(perm)
                                    for name, perm in sorted(ring._perms.items())}
        return doc
    if ring.kind == "free_trunc":
        doc = {"kind": "free_trunc", "generators": list(ring.generators),
               "max_degree": ring.max_degree}
        if ring._perms:
            doc["permutations"] = {name: list(perm)
                                   for name, perm in sorted(ring._perms.items())}
        return doc
    raise LiteralSyntaxError(f"ring {ring.name} has no document form")


def _frac(x):
    from .rings import frac_from_str
    from fractions import Fraction
    return frac_from_str(x) if isinstance(x, str) else Fraction(x)


# -- series rings ----------------------------------------------------------------

def series_ring_from_doc(doc: dict) -> SeriesRing:
    coeff = coeff_ring_from_doc(doc["coeff"])
    return SeriesRing(coeff,
                      alphabet=tuple(doc.get("alphabet", ["x"])),
                      twist=doc.get("twist") or {},
                      order=doc["order"],
                      letters_commute=doc.get("letters_commute", False))


def series_ring_to_doc(ring: SeriesRing) -> dict:
    doc = {"coeff": coeff_ring_to_doc(ring.coeff),
           "alphabet": list(ring.alphabet),
           "order": ring.order}
    twist = {a: n for a, n in zip(ring.alphabet, ring.twist_names) if n != "id"}
    if twist:
        doc["twist"] = twist
    if ring.letters_commute:
        doc["letters_commute"] = True
    return doc


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
    degrees = {}
    for key, literal in doc["degrees"].items():
        try:
            d = int(key)
        except ValueError:
            raise LiteralSyntaxError(f"bad z-degree {key!r}") from None
        degrees[d] = ring.coeff.parse_element_literal(literal)
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
        entries.setdefault(word, {})[label] = str(q)
    return {"order": v.order, "entries": entries}


def orbit_report_to_doc(r: OrbitCountReport) -> dict:
    entries: dict = {}
    for (n, label), q in r.sorted_items():
        entries.setdefault(str(n), {})[label] = str(q)
    return {"order": r.order, "group": r.group_name, "twist": r.twist_name,
            "lefschetz": r.lefschetz, "entries": entries}


# -- schemas ------------------------------------------------------------------------

_FRACTION = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}
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
                        "max_degree": {"type": "integer", "minimum": 0},
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

_OPERAND_SCHEMAS = {
    "inv": {"series": ([_SERIES], 1)},
    "mul": {"series": ([_SERIES], (2, None))},
    "log": {"series": ([_SERIES], 1)},
    "ldu": {"matrix": (_SERIES_MATRIX, None)},
    "det": {"matrix": (_SERIES_MATRIX, None)},
    "cgen": {"series": ([_SERIES], 2), "flavor": ({"type": "string"}, None)},
    "vaserstein": {"series": ([_SERIES], 3)},
    "cyclog": {"series": ([_SERIES], 1)},
    "coset": {"series": ([_SERIES], 2)},
    "endoclass": {"alpha": (_COEFF_MATRIX, None)},
    "addcheck": {"alpha": (_COEFF_MATRIX, None), "alpha2": (_COEFF_MATRIX, None),
                 "coupling": (_COEFF_MATRIX, None)},
    "novikov": {"novikov": (_NOVIKOV, None),
                "lefschetz": ({"type": "boolean"}, None)},
    "selftest": {"suite": ({"type": "string"}, None)},
}


def _op_branch(op: str) -> dict:
    operands = _OPERAND_SCHEMAS[op]
    props = {"op": {"const": op},
             "ring": SERIES_RING_SCHEMA,
             "seed": {"type": "integer", "minimum": 0},
             "out": {"type": "string"}}
    required = ["op", "ring"]
    for key, (schema, count) in operands.items():
        if isinstance(schema, list):
            item = schema[0]
            entry = {"type": "array", "items": item}
            if isinstance(count, int):
                entry["minItems"] = entry["maxItems"] = count
            elif isinstance(count, tuple):
                lo, hi = count
                entry["minItems"] = lo
                if hi is not None:
                    entry["maxItems"] = hi
            props[key] = entry
            required.append(key)
        else:
            props[key] = schema
            if key not in ("flavor", "lefschetz"):
                required.append(key)
    if op == "selftest":
        required.remove("ring")
        props.pop("ring")
        props["order"] = {"type": "integer", "minimum": 0}
        props["trials"] = {"type": "integer", "minimum": 1}
    return {"type": "object", "properties": props,
            "required": required, "additionalProperties": False}


# One schema per job op; a job is valid when it matches the schema of its op.
OP_SCHEMAS = {op: _op_branch(op) for op in sorted(_OPERAND_SCHEMAS)}

JOB_SCHEMA = {"oneOf": list(OP_SCHEMAS.values())}
