import random

import jsonschema
import pytest

from twistdet import NovikovSeries, SeriesMatrix, SeriesRing, cyc_log, orbit_counts
from twistdet.cli import validate_job
from twistdet.documents import (
    JOB_SCHEMA,
    OP_SCHEMAS,
    RING_SCHEMA,
    canonical_json,
    coeff_ring_from_doc,
    coeff_ring_to_doc,
    cyclog_to_doc,
    matrix_from_doc,
    matrix_to_doc,
    novikov_from_doc,
    novikov_to_doc,
    orbit_report_to_doc,
    series_ring_from_doc,
    series_ring_to_doc,
)
from twistdet.randgen import random_series


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


def test_coeff_ring_doc_roundtrip():
    for doc in RING_DOCS:
        jsonschema.validate(doc, RING_SCHEMA)
        ring = coeff_ring_from_doc(doc)
        assert coeff_ring_to_doc(ring) == doc
        # the registered automorphisms came through
        if doc["kind"] == "matrix":
            ring.automorphism("swap")
        if doc["kind"] in ("group_algebra", "free_trunc"):
            names = doc.get("automorphisms") or doc.get("permutations")
            for name in names:
                ring.automorphism(name)


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
    assert ring.twist_names == ("inv",)
    assert series_ring_to_doc(ring) == doc


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
]


def test_job_schema_accepts_each_op():
    for doc in GOOD_JOBS:
        jsonschema.validate(doc, JOB_SCHEMA)


def test_job_schema_rejects_bad_jobs():
    for doc in BAD_JOBS:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, JOB_SCHEMA)


def test_job_schemas_are_valid_draft_2020_12():
    # the CLI never checks its schemas; this test is where that happens
    jsonschema.Draft202012Validator.check_schema(JOB_SCHEMA)
    for schema in OP_SCHEMAS.values():
        jsonschema.Draft202012Validator.check_schema(schema)


def _accepts(check, doc) -> bool:
    try:
        check(doc)
    except jsonschema.ValidationError:
        return False
    return True


def test_per_op_validation_matches_job_schema():
    odd = [[], "inv", {}, {"op": None}, {"op": ["inv"]}]
    for doc in GOOD_JOBS + BAD_JOBS + odd:
        assert _accepts(validate_job, doc) == _accepts(
            lambda d: jsonschema.validate(d, JOB_SCHEMA), doc), doc


def test_canonical_json_stable():
    doc = {"b": 1, "a": [1, 2]}
    text = canonical_json(doc)
    assert text == '{\n  "b": 1,\n  "a": [\n    1,\n    2\n  ]\n}\n'
    assert canonical_json(doc) == text
