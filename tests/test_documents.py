import contextlib
import copy
import json
import pathlib
import random

import jsonschema
import pytest
from jsonschema.exceptions import best_match

from twistdet import NovikovSeries, SeriesMatrix, SeriesRing, cyc_log, orbit_counts
from twistdet.cli import validate_job
from twistdet.documents import (
    JOB_SCHEMA,
    OP_SCHEMAS,
    RING_SCHEMA,
    canonical_json,
    coeff_ring_from_doc,
    cyclog_to_doc,
    matrix_from_doc,
    matrix_to_doc,
    novikov_from_doc,
    novikov_to_doc,
    orbit_report_to_doc,
    series_ring_from_doc,
    validate,
)
from twistdet.errors import ValidationError
from twistdet.rings import (
    FiniteGroup,
    GroupAlgebra,
    IntegersMod,
    RationalField,
    RationalMatrixRing,
    TruncatedFreeAlgebra,
    cyclic_group,
)
from twistdet.selftest import random_series


RING_DOCS = [
    {"kind": "rational"},
    {"kind": "int_mod", "modulus": 6},
    {"kind": "matrix", "size": 2,
     "conjugations": {"swap": [["0", "1"], ["1", "0"]]}},
    {"kind": "group_algebra",
     "group": {"name": "C4", "table": [[(i + j) % 4 for j in range(4)]
                                       for i in range(4)]},
     "automorphisms": {"inv": [0, 3, 2, 1]}},
    {"kind": "free_trunc", "generators": ["y", "z"], "max_degree": 2,
     "permutations": {"flip": [1, 0]}},
]


def _hand_built_rings():
    """The rings of RING_DOCS, built without documents."""
    m2 = RationalMatrixRing(2)
    m2.register_conjugation("swap", [[0, 1], [1, 0]])
    qc4 = GroupAlgebra(cyclic_group(4))
    qc4.register_group_automorphism("inv", [0, 3, 2, 1])
    qyz = TruncatedFreeAlgebra(("y", "z"), 2)
    qyz.register_generator_permutation("flip", [1, 0])
    return [RationalField(), IntegersMod(6), m2, qc4, qyz]


def test_coeff_ring_doc_roundtrip():
    # a ring read from its document equals the ring built by hand, with the
    # same name (signature() leaves out the group name) and twists
    for doc, want in zip(RING_DOCS, _hand_built_rings()):
        jsonschema.validate(doc, RING_SCHEMA)
        ring = coeff_ring_from_doc(doc)
        assert ring == want and ring.name == want.name
        assert ring.twists() == want.twists()
    # a group without a name is "G": equal to Q[C4] as a ring, but not by name
    unnamed = {"kind": "group_algebra", "group": {"table": RING_DOCS[3]["group"]["table"]}}
    ring = coeff_ring_from_doc(unnamed)
    assert ring == GroupAlgebra(cyclic_group(4)) and ring.name == "Q[G]"
    assert ring == GroupAlgebra(FiniteGroup(cyclic_group(4).table))


def test_series_ring_doc_roundtrip():
    doc = {"coeff": {"kind": "group_algebra",
                     "group": {"name": "C4",
                               "table": [[(i + j) % 4 for j in range(4)]
                                         for i in range(4)]},
                     "automorphisms": {"inv": [0, 3, 2, 1]}},
           "alphabet": ["z"],
           "order": 3,
           "twist": {"z": "inv"}}
    ring = series_ring_from_doc(doc)
    qc4 = _hand_built_rings()[3]
    want = SeriesRing(qc4, ("z",), twist={"z": "inv"}, order=3)
    assert ring == want and repr(ring) == repr(want) == "Q[C4]<<z>>@3"
    assert ring.coeff.name == want.coeff.name
    assert ring.twist_names == ("inv",)
    # the defaults: alphabet x, no twist, noncommuting letters
    plain = series_ring_from_doc({"coeff": {"kind": "rational"}, "order": 2})
    assert plain == SeriesRing(RationalField(), ("x",), order=2)
    assert plain != SeriesRing(RationalField(), ("x",), order=2, letters_commute=True)


@pytest.mark.parametrize("doc, path", [
    ({"coeff": {"kind": "matrix", "size": 2, "conjugations": {"p": [["1", "1"], ["1", "1"]]}},
      "order": 2}, ("coeff", "conjugations", "p")),
    ({"coeff": {"kind": "group_algebra", "group": {"table": [[0, 1], [1, 1]]}}, "order": 2},
     ("coeff", "group", "table")),
    ({"coeff": {"kind": "rational"}, "alphabet": ["x"], "twist": {"y": "swap"}, "order": 2},
     ("twist", "y")),
], ids=["singular-conjugation", "group-table", "stray-twist"])
def test_ring_refusals_name_their_field(doc, path):
    # a field a ring constructor refuses raises a ValidationError whose path
    # starts at the ring document; its message is the constructor's
    with pytest.raises(ValidationError) as caught:
        series_ring_from_doc(doc)
    assert caught.value.path == path
    assert caught.value.under("ring").path == ("ring", *path)


def test_series_and_matrix_docs(qq):
    R = SeriesRing(qq, alphabet=("x", "y"), order=3)
    rng = random.Random(61)
    m = SeriesMatrix(R, [[random_series(R, rng) for _ in range(2)]
                         for _ in range(2)])
    assert matrix_from_doc(R, matrix_to_doc(m)) == m


def test_novikov_doc_roundtrip(qc2):
    R = SeriesRing(qc2, alphabet=("z",), order=3)
    doc = {"degrees": {"-1": "g1", "1": "1+g1"}}
    u = novikov_from_doc(R, doc)
    assert u.shift == 1
    out = novikov_to_doc(u)
    assert out["shift"] == 1
    assert out["degrees"] == {"-1": "g1", "1": "g0+g1"}
    assert novikov_from_doc(R, {"degrees": out["degrees"]}) == u


def test_novikov_doc_bad_degree_key(qc2):
    R = SeriesRing(qc2, alphabet=("z",), order=3)
    from twistdet import LiteralSyntaxError
    with pytest.raises(LiteralSyntaxError):
        novikov_from_doc(R, {"degrees": {"one": "g1"}})
    # two keys of one degree, in either order: neither is dropped silently
    for degrees in ({"0": "1", "1": "5", "01": "-1"}, {"0": "1", "01": "-1", "1": "5"}):
        with pytest.raises(LiteralSyntaxError) as exc:
            novikov_from_doc(R, {"degrees": degrees})
        assert "'1'" in str(exc.value) and "'01'" in str(exc.value)
    # a key is read only as it would be written: str(int(key))
    for key in ("1_0", "+1", " 1", "-0"):
        with pytest.raises(LiteralSyntaxError) as exc:
            novikov_from_doc(R, {"degrees": {key: "g1"}})
        assert repr(key) in str(exc.value)


def test_op_schemas_golden():
    # key order decides which of two equally relevant errors validate reports
    want = (pathlib.Path(__file__).parent / "goldens" / "op_schemas.json").read_text()
    assert json.dumps(OP_SCHEMAS, indent=2) + "\n" == want
    assert JOB_SCHEMA == {"oneOf": list(OP_SCHEMAS.values())}


def test_cyclog_doc_shape(qq):
    R = SeriesRing(qq, order=3)
    doc = cyclog_to_doc(cyc_log(R.one() + R.letter("x")))
    assert doc == {"order": 3,
                   "entries": {"x": {"1": "1"},
                               "xx": {"1": "-1/2"},
                               "xxx": {"1": "1/3"}}}


def test_orbit_report_doc_shape(qc2):
    R = SeriesRing(qc2, alphabet=("z",), order=3)
    g = R.lift(qc2.parse_element_literal("g1"))
    doc = orbit_report_to_doc(orbit_counts(NovikovSeries(R.one() - g * R.letter("z"))))
    assert doc["group"] == "C2" and doc["twist"] == "id"
    assert doc["lefschetz"] is False
    assert doc["entries"] == {"1": {"g1": "-1"}, "2": {"g0": "-1/2"},
                              "3": {"g1": "-1/3"}}


RING = {"coeff": {"kind": "rational"}, "order": 3}


def job(**kw):
    base = {"op": "inv", "ring": RING, "series": ['1+w("x")']}
    base.update(kw)
    return base


GOOD_JOBS = [
    job(),
    job(op="mul", series=["1", '1-w("x")']),
    job(op="log", series=['1+w("x")']),
    {"op": "ldu", "ring": RING, "matrix": [["1", "0"], ["0", "1"]]},
    {"op": "det", "ring": RING, "matrix": [["1"]]},
    {"op": "cgen", "ring": RING, "series": ['w("x")', 'w("x")'],
     "flavor": "ab_ba_in_kernel"},
    {"op": "vaserstein", "ring": RING, "series": ['w("x")', 'w("x")', "2"]},
    {"op": "cyclog", "ring": RING, "series": ['1+w("x")']},
    {"op": "coset", "ring": RING, "series": ["1", "1"]},
    {"op": "endoclass", "ring": RING, "alpha": [["2"]]},
    {"op": "addcheck", "ring": RING, "alpha": [["1"]], "alpha2": [["1"]],
     "coupling": [["1"]]},
    {"op": "novikov", "ring": RING, "novikov": {"degrees": {"0": "1"}},
     "lefschetz": True},
    {"op": "selftest", "suite": "rings", "seed": 1, "trials": 2},
]

BAD_JOBS = [
    job(op="nope"),
    job(extra_field=1),
    {"op": "inv", "series": ["1"]},                      # ring missing
    job(op="cgen", series=["1"]),                        # wrong arity
    job(op="mul", series=["1"]),                         # mul needs two
    {"op": "selftest", "suite": "rings",
     "ring": {"coeff": {"kind": "rational"}, "order": 1}},  # no ring here
    job(ring={"coeff": {"kind": "int_mod"}, "order": 3}),   # modulus missing
    job(seed=-1),
    job(ring={**RING, "alphabet": []}),
]


def test_job_schema_accepts_each_op():
    # one validator for all documents; the meta-schema check has its own test
    validator = jsonschema.Draft202012Validator(JOB_SCHEMA)
    for doc in GOOD_JOBS:
        validator.validate(doc)


def test_job_schema_rejects_bad_jobs():
    validator = jsonschema.Draft202012Validator(JOB_SCHEMA)
    for doc in BAD_JOBS:
        with pytest.raises(jsonschema.ValidationError):
            validator.validate(doc)


def test_job_schemas_are_valid_draft_2020_12():
    # the CLI never checks its schemas; this test is where that happens
    jsonschema.Draft202012Validator.check_schema(JOB_SCHEMA)
    for schema in OP_SCHEMAS.values():
        jsonschema.Draft202012Validator.check_schema(schema)


def _error(check, doc):
    """The CLI's form of the error check(doc) raises, or None if it accepts."""
    try:
        check(doc)
    except ValidationError as exc:
        return f"{exc.json_path}: {exc.message}"
    return None


def _accepts(check, doc) -> bool:
    return _error(check, doc) is None


def _best_match(schema, doc):
    error = best_match(jsonschema.Draft202012Validator(schema).iter_errors(doc))
    return None if error is None else f"{error.json_path}: {error.message}"


def test_per_op_validation_matches_job_schema():
    odd = [[], "inv", {}, {"op": None}, {"op": ["inv"]}]
    oracle = jsonschema.Draft202012Validator(JOB_SCHEMA)
    for doc in GOOD_JOBS + BAD_JOBS + odd:
        assert _accepts(validate_job, doc) == oracle.is_valid(doc), doc


@pytest.mark.parametrize("doc", BAD_JOBS)
def test_errors_match_jsonschema_best_match(doc):
    schemas = [JOB_SCHEMA] + ([OP_SCHEMAS[doc["op"]]] if doc["op"] in OP_SCHEMAS else [])
    for schema in schemas:
        assert _error(lambda d: validate(d, schema), doc) == _best_match(schema, doc)


def test_error_messages_name_the_failing_value():
    ring = job(ring={"coeff": {"kind": "int_mod"}, "order": 3})
    assert _error(validate_job, ring) == (
        "$.ring.coeff: {'kind': 'int_mod'} is not valid under any of the given schemas")
    alphabet = job(ring={**RING, "alphabet": []})
    assert _error(validate_job, alphabet) == "$.ring.alphabet: [] should be non-empty"


def _subschemas(schema):
    yield schema
    for key, value in schema.items():
        if key == "properties":
            subs = value.values()
        elif key == "oneOf":
            subs = value
        elif key in ("items", "additionalProperties") and isinstance(value, dict):
            subs = [value]
        else:
            continue
        for sub in subs:
            yield from _subschemas(sub)


def test_validator_implements_every_schema_keyword():
    for schema in OP_SCHEMAS.values():
        for node in _subschemas(schema):
            for key, value in node.items():
                # an unknown keyword raises NotImplementedError
                with contextlib.suppress(ValidationError):
                    validate(None, {key: value})


# Seeds for the mutation test: GOOD_JOBS, and one job over each kind of ring.
MUTATION_SEEDS = GOOD_JOBS + [
    job(ring={"coeff": doc, "alphabet": ["x", "y"], "twist": {"x": "t"},
              "order": 2, "letters_commute": False})
    for doc in RING_DOCS]
MUTATION_KEYS = ["op", "ring", "coeff", "kind", "order", "seed", "size", "modulus",
                 "alphabet", "twist", "group", "table", "degrees", "max_degree", "extra"]


def _values(doc):
    yield doc
    if isinstance(doc, (dict, list)):
        for value in (doc.values() if isinstance(doc, dict) else doc):
            yield from _values(value)


def _mutant(rng, pool):
    """A seed job with one to three values swapped, keys dropped or added, or
    items appended, at random places."""
    doc = copy.deepcopy(rng.choice(MUTATION_SEEDS))
    for _ in range(rng.randint(1, 3)):
        node = rng.choice([v for v in _values(doc) if isinstance(v, (dict, list))])
        value = copy.deepcopy(rng.choice(pool))
        edit = rng.randrange(4)
        if isinstance(node, dict):
            if edit == 0 and node:
                node[rng.choice(list(node))] = value
            elif edit == 1 and node:
                del node[rng.choice(list(node))]
            else:
                node[rng.choice(MUTATION_KEYS)] = value
        elif edit == 0 and node:
            node[rng.randrange(len(node))] = value
        elif edit == 1 and node:
            del node[rng.randrange(len(node))]
        else:
            node.append(value)
    return doc


def test_validation_matches_jsonschema_on_mutants():
    # JOB_SCHEMA is a oneOf whose branches each require their own "op" const,
    # so at most one branch can hold and the branch named by a job's "op"
    # gives exactly the oneOf verdict; one prebuilt validator per op is much
    # cheaper for jsonschema than the 13-way oneOf
    assert JOB_SCHEMA == {"oneOf": list(OP_SCHEMAS.values())}
    for op, schema in OP_SCHEMAS.items():
        assert schema["type"] == "object" and "op" in schema["required"]
        assert schema["properties"]["op"] == {"const": op}
    oracles = {op: jsonschema.Draft202012Validator(schema) for op, schema in OP_SCHEMAS.items()}
    pool = [None, True, False, 0, 1, 2, -1, 3.0, -1.0, 2.5, "", "x", "xy", "1/2",
            "a/b", [], {}]
    pool += [v for seed in MUTATION_SEEDS for v in _values(seed)]
    rng = random.Random(5)
    for _ in range(5000):
        doc = _mutant(rng, pool)
        has_float = any(isinstance(v, float) for v in _values(doc))
        error = _error(validate_job, doc)
        op = doc.get("op")
        oracle = oracles.get(op) if isinstance(op, str) else None
        # jsonschema counts an integral float such as 3.0 as an integer; twistdet does not
        assert (error is None) == (oracle is not None and oracle.is_valid(doc)
                                   and not has_float), doc
        if error is not None and not has_float and oracle is not None:
            assert error == _best_match(OP_SCHEMAS[op], doc), doc


def test_canonical_json_stable():
    doc = {"b": 1, "a": [1, 2]}
    text = canonical_json(doc)
    assert text == '{\n  "b": 1,\n  "a": [\n    1,\n    2\n  ]\n}\n'
    assert canonical_json(doc) == text
