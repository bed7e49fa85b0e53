import argparse
import importlib.util
import json
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap

import jsonschema
import pytest

import twistdet
from twistdet.cli import build_parser, main, validate_job
from twistdet.documents import OP_SCHEMAS
from twistdet.errors import ValidationError
from twistdet.selftest import qs3_conj
from twistdet.series import TwistedSeries

GOLDENS = pathlib.Path(__file__).parent / "goldens"

QRING_DOC = {"coeff": {"kind": "rational"}, "order": 3}


@pytest.fixture
def ring_file(tmp_path):
    def write(doc, name="ring.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return write


@pytest.fixture
def qring(ring_file):
    return ring_file(QRING_DOC)


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_inv_stdout(capsys, qring):
    code, out, err = run_cli(capsys, "inv", "--ring", qring, '1+w("x")')
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["op"] == "inv"
    assert doc["result"] == '1-w("x")+w("xx")-w("xxx")'


def test_order_flag_overrides_ring(capsys, qring):
    code, out, _ = run_cli(capsys, "inv", "--ring", qring, "--order", "1",
                           '1+w("x")')
    assert code == 0
    assert json.loads(out)["result"] == '1-w("x")'


def test_mul_variadic(capsys, qring):
    code, out, _ = run_cli(capsys, "mul", "--ring", qring,
                           '1+w("x")', '1-w("x")', "1")
    assert code == 0
    assert json.loads(out)["result"] == '1-w("xx")'


def test_ldu_and_det(capsys, qring):
    mat = json.dumps([['1+w("x")', 'w("x")'], ['w("x")', '1+w("x")']])
    code, out, _ = run_cli(capsys, "ldu", "--ring", qring, mat)
    assert code == 0
    doc = json.loads(out)
    assert doc["d1"] == '1+w("x")'
    assert doc["l"] == [['w("x")-w("xx")+w("xxx")']]
    code, out, _ = run_cli(capsys, "det", "--ring", qring, mat)
    assert code == 0
    assert json.loads(out)["det"] == '1+2*w("x")'


def test_matrix_operand_from_file(capsys, qring, tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps([["1"]]))
    code, out, _ = run_cli(capsys, "det", "--ring", qring, f"@{p}")
    assert code == 0
    assert json.loads(out)["det"] == "1"


def test_cyclog_output(capsys, qring):
    code, out, _ = run_cli(capsys, "cyclog", "--ring", qring, '1+w("x")')
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == {"x": {"1": "1"}, "xx": {"1": "-1/2"},
                              "xxx": {"1": "1/3"}}


def test_coset_verdict(capsys, qring):
    code, out, _ = run_cli(capsys, "coset", "--ring", qring, '1+w("x")', "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "distinct"


def test_endoclass_and_addcheck(capsys, ring_file):
    ring = ring_file({"coeff": {"kind": "rational"}, "order": 4})
    code, out, _ = run_cli(capsys, "endoclass", "--ring", ring,
                           json.dumps([["0", "1"], ["0", "0"]]))
    assert code == 0
    assert json.loads(out)["result"] == "1"
    code, out, _ = run_cli(capsys, "addcheck", "--ring", ring,
                           json.dumps([["1"]]), json.dumps([["1"]]),
                           json.dumps([["5"]]))
    assert code == 0
    assert json.loads(out)["equal"] is True
    # at order 0, 1 - alpha*x is the identity and D is 1 for every alpha
    code, out, _ = run_cli(capsys, "endoclass", "--ring", ring, "--order", "0",
                           json.dumps([["2", "1"], ["0", "3"]]))
    assert code == 0
    assert json.loads(out) == {"op": "endoclass", "order": 0, "result": "1"}
    code, out, _ = run_cli(capsys, "addcheck", "--ring", ring, "--order", "0",
                           json.dumps([["2"]]), json.dumps([["3"]]),
                           json.dumps([["5"]]))
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_novikov_report(capsys, ring_file):
    ring = ring_file({
        "coeff": {"kind": "group_algebra",
                  "group": {"name": "C2", "table": [[0, 1], [1, 0]]}},
        "alphabet": ["z"], "order": 3})
    nov = json.dumps({"degrees": {"0": "1", "1": "-1*g1"}})
    code, out, _ = run_cli(capsys, "novikov", "--ring", ring, nov)
    assert code == 0
    doc = json.loads(out)
    assert doc["w1"]["entries"]["z"] == {"g1": "-1"}
    assert doc["orbits"]["entries"] == {"1": {"g1": "-1"}, "2": {"g0": "-1/2"},
                                        "3": {"g1": "-1/3"}}


def test_selftest_op(capsys):
    code, out, _ = run_cli(capsys, "selftest", "all", "--trials", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["suite"] == "all"
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == []


def test_selftest_reports_the_order_each_check_ran_at(capsys):
    code, out, _ = run_cli(capsys, "selftest", "novikov", "--order", "1", "--trials", "1")
    assert code == 0
    doc = json.loads(out)
    orders = {c["name"]: c["order"] for c in doc["checks"]}
    assert doc["order"] == 1
    assert orders["log-coefficients[Q]"] == 3
    assert orders["twisted-monomial-inverse[Q[C2]]"] == 2


def test_exit_code_1_on_bad_input(capsys, ring_file, tmp_path):
    # malformed ring JSON
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run_cli(capsys, "inv", "--ring", str(p), "1")
    assert code == 1
    assert json.loads(err)["error"]["type"]
    # schema violation: unknown ring kind
    ring = ring_file({"coeff": {"kind": "octonions"}, "order": 2})
    code, _, err = run_cli(capsys, "inv", "--ring", ring, "1")
    assert code == 1
    # a ring file that is not a JSON object, with the order overridden
    ring = ring_file([1])
    code, out, err = run_cli(capsys, "inv", "--ring", ring, "--order", "2", "1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["message"].startswith("$.ring:")
    # bad series literal
    ring = ring_file(QRING_DOC)
    code, _, err = run_cli(capsys, "inv", "--ring", ring, 'w("q")')
    assert code == 1
    assert json.loads(err)["error"]["type"] == "LiteralSyntaxError"
    # zero denominator in a rational factor
    code, out, err = run_cli(capsys, "inv", "--ring", ring, "1/0")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "LiteralSyntaxError"
    # missing ring file
    code, _, err = run_cli(capsys, "inv", "--ring", str(tmp_path / "nope.json"), "1")
    assert code == 1
    # an unwritable output path, given as --out or as a job's "out" field
    job = tmp_path / "job.json"
    for out_path in (tmp_path / "no" / "dir" / "x.json", tmp_path):
        job.write_text(json.dumps({"op": "inv", "ring": QRING_DOC, "series": ["1"],
                                   "out": str(out_path)}))
        for argv in (["inv", "--ring", ring, "1", "--out", str(out_path)],
                     ["run", str(job)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert json.loads(err)["error"]["type"] in ("FileNotFoundError",
                                                         "IsADirectoryError")
    # JSON nested too deeply: a ring file, an inline matrix, a job and a job field
    deep = "[" * 100000 + "]" * 100000
    deep_ring = tmp_path / "deep.json"
    deep_ring.write_text(deep)
    job.write_text('{"op": "det", "ring": %s, "matrix": %s}' % (json.dumps(QRING_DOC), deep))
    for argv in (["inv", "--ring", str(deep_ring), "1"], ["det", "--ring", ring, deep],
                 ["run", str(deep_ring)], ["run", str(job)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["message"].endswith("JSON nested too deeply")
    # usage errors: an unknown suite or flavor, a missing --ring, too few operands
    for argv in (["selftest", "bogus"],
                 ["cgen", "--flavor", "nope", "--ring", ring, "1", "1"],
                 ["inv", "1"],
                 ["vaserstein", "--ring", ring, "1", "1"],
                 ["addcheck", "--ring", ring, '[["1"]]', '[["1"]]'],
                 ["mul", "--ring", ring]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "UsageError"
    # every job op has a subcommand, and run is the only other one
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(OP_SCHEMAS) | {"run"}
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0



def test_only_selftest_takes_a_seed(capsys, qring, tmp_path):
    # the computing ops draw nothing at random: --seed and a job's "seed" are
    # refused there (exit 1), and selftest still reads both
    code, out, err = run_cli(capsys, "inv", "--seed", "1", "--ring", qring, '1+w("x")')
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"op": "inv", "ring": QRING_DOC, "series": ["1"], "seed": 1}))
    code, out, err = run_cli(capsys, "run", str(job))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"
    job.write_text(json.dumps({"op": "selftest", "suite": "novikov", "seed": 7,
                               "order": 1, "trials": 1}))
    code, out, err = run_cli(capsys, "run", str(job))
    assert code == 0 and err == "" and json.loads(out)["seed"] == 7
    code, out, _ = run_cli(capsys, "selftest", "novikov", "--seed", "7", "--order", "1",
                           "--trials", "1")
    assert code == 0 and json.loads(out)["seed"] == 7


def test_selftest_golden(capsys):
    # the property registry's report at the documented seed, byte for byte
    want = (GOLDENS / "selftest_all_out.json").read_text()
    code, out, _ = run_cli(capsys, "selftest", "all", "--seed", "42", "--order", "4",
                           "--trials", "10")
    assert code == 0 and out == want

def test_integers_past_the_int_string_digit_limit(capsys, qring, ring_file):
    # Python refuses to convert ints of more than `limit` digits to or from
    # str. An exact result that long is still printed; a literal that long is
    # refused by name, and its message shows only the literal's start.
    limit = sys.get_int_max_str_digits()
    digits = limit - 1
    n = "9" * digits
    code, out, err = run_cli(capsys, "mul", "--ring", qring, n, n)
    assert code == 0 and err == ""
    # (10^k - 1)^2 = 9...98 0...01
    assert json.loads(out)["result"] == "9" * (digits - 1) + "8" + "0" * (digits - 1) + "1"
    z12 = ring_file({"coeff": {"kind": "int_mod", "modulus": 12}, "order": 2}, "z12.json")
    m2 = ring_file({"coeff": {"kind": "matrix", "size": 2}, "order": 2}, "m2.json")
    long = "9" * (limit + 700)
    for ring, literal in ((qring, long), (qring, f"[{long}]"), (qring, f"1/{long}"),
                          (z12, f"[{long}]"), (m2, f"[1,{long};0,1]")):
        code, out, err = run_cli(capsys, "mul", "--ring", ring, literal, "1")
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "LiteralSyntaxError"
        assert f"more than {limit} digits" in error["message"]
        assert len(error["message"]) < 200 and "9" * 81 not in error["message"]


LONG = 5000


@pytest.mark.parametrize("ring, argv", [
    # a group element name, a word over the max degree, a dangling sign
    ({"coeff": {"kind": "group_algebra", "group": {"table": [[0, 1], [1, 0]]}}, "order": 2},
     ["mul", "[g" + "1" * (LONG - 1) + "]", "1"]),
    ({"coeff": {"kind": "free_trunc", "generators": ["y", "z"], "max_degree": 2},
      "order": 2}, ["mul", "[" + "y" * LONG + "]", "1"]),
    ({"coeff": {"kind": "group_algebra", "group": {"table": [[0, 1], [1, 0]]}}, "order": 2},
     ["mul", "[" + "g1+" * (LONG // 3) + "-]", "1"]),
    # a Novikov z-degree key, an automorphism name in a twist
    ({"coeff": {"kind": "rational"}, "alphabet": ["z"], "order": 3},
     ["novikov", json.dumps({"degrees": {"d" * LONG: "1"}})]),
    ({"coeff": {"kind": "rational"}, "alphabet": ["x"], "twist": {"x": "q" * LONG},
      "order": 2}, ["inv", "1"]),
], ids=["group-element", "max-degree", "dangling-sign", "z-degree", "automorphism"])
def test_long_literals_are_clipped_in_errors(capsys, ring_file, ring, argv):
    # an error echoes at most the first 80 characters of a literal
    code, out, err = run_cli(capsys, argv[0], "--ring", ring_file(ring), *argv[1:])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "LiteralSyntaxError"
    assert len(error["message"]) < 200 and " characters)" in error["message"]


@pytest.mark.parametrize("ring, error_type, fragment", [
    # jsonschema counts an integral float as an integer; twistdet does not
    ({"coeff": {"kind": "rational"}, "order": 3.0}, "ValidationError",
     "$.ring.order: 3.0 is not of type 'integer'"),
    ({"coeff": {"kind": "int_mod", "modulus": 12.0}, "order": 2}, "ValidationError",
     "$.ring.coeff:"),
    ({"coeff": {"kind": "matrix", "size": 2.0}, "order": 2}, "ValidationError",
     "$.ring.coeff:"),
    ({"coeff": {"kind": "free_trunc", "generators": ["y"], "max_degree": 2.0},
      "order": 2}, "ValidationError", "$.ring.coeff:"),
    # conjugating matrices of the wrong size, and ragged ones
    ({"coeff": {"kind": "matrix", "size": 2, "conjugations": {"p": [["1"]]}},
      "alphabet": ["x"], "twist": {"x": "p"}, "order": 2}, "ValueError", "2x2"),
    ({"coeff": {"kind": "matrix", "size": 2,
                "conjugations": {"p": [["0", "1"], ["1"]]}},
      "alphabet": ["x"], "twist": {"x": "p"}, "order": 2}, "ValueError", "2x2"),
    # a singular conjugating matrix defines no automorphism either
    ({"coeff": {"kind": "matrix", "size": 2,
                "conjugations": {"p": [["1", "1"], ["1", "1"]]}},
      "alphabet": ["x"], "twist": {"x": "p"}, "order": 2}, "ValueError",
     "conjugating matrix must be invertible"),
    # conjugation entries the numeral reader would refuse are refused by the schema
    ({"coeff": {"kind": "matrix", "size": 2,
                "conjugations": {"p": [["\u0663", "0"], ["0", "1"]]}},
      "alphabet": ["x"], "twist": {"x": "p"}, "order": 2}, "ValidationError",
     "$.ring.coeff.conjugations.p[0][0]: '\u0663' does not match"),
    ({"coeff": {"kind": "matrix", "size": 2,
                "conjugations": {"p": [["3\n", "0"], ["0", "1"]]}},
      "alphabet": ["x"], "twist": {"x": "p"}, "order": 2}, "ValidationError",
     "$.ring.coeff.conjugations.p[0][0]: '3\\n' does not match"),
    # a twist for a letter that is not in the alphabet
    ({"coeff": {"kind": "rational"}, "alphabet": ["x"], "twist": {"q": "swap"},
      "order": 2}, "ValueError", "'q'"),
    # an automorphism registered under the identity's name
    ({"coeff": {"kind": "matrix", "size": 2,
                "conjugations": {"id": [["0", "1"], ["1", "0"]]}},
      "alphabet": ["x"], "twist": {"x": "id"}, "order": 2}, "ValueError", "'id'"),
    # registering "a" registers its inverse "a^-1", so the document's own "a^-1" is refused
    ({"coeff": {"kind": "matrix", "size": 2,
                "conjugations": {"a": [["0", "1"], ["1", "0"]], "a^-1": [["1", "1"], ["0", "1"]]}},
      "alphabet": ["x"], "twist": {"x": "a^-1"}, "order": 2}, "ValueError",
     "automorphism 'a^-1' is already registered"),
    # a generator no element literal can name: the word "1" would read back as 1
    ({"coeff": {"kind": "free_trunc", "generators": ["1", "y"], "max_degree": 2,
                "permutations": {"flip": [1, 0]}},
      "alphabet": ["x"], "twist": {"x": "flip"}, "order": 2}, "ValueError", "'1'"),
    # a letter no w("...") factor can hold: no series literal could name its words
    ({"coeff": {"kind": "rational"}, "alphabet": ['"'], "order": 2}, "ValueError",
     "letter '\"'"),
], ids=["order-3.0", "modulus-12.0", "size-2.0", "max_degree-2.0", "conjugation-1x1",
        "conjugation-ragged", "conjugation-singular", "conjugation-non-ascii-digit",
        "conjugation-trailing-newline", "twist-stray-letter",
        "automorphism-named-id", "automorphism-named-an-inverse", "generator-1", "letter-quote"])
def test_exit_code_1_on_bad_ring(capsys, ring_file, ring, error_type, fragment):
    code, out, err = run_cli(capsys, "inv", "--ring", ring_file(ring), '1+w("x")')
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == error_type
    assert fragment in error["message"]


def test_exit_code_2_on_domain_error(capsys, qring, ring_file):
    # eps = 0: schema-valid input refused on mathematical grounds
    code, _, err = run_cli(capsys, "inv", "--ring", qring, 'w("x")')
    assert code == 2
    assert json.loads(err)["error"]["type"] == "AugmentationNotUnit"
    # the refused augmentation is named by its literal, not a Python repr
    m2 = ring_file({"coeff": {"kind": "matrix", "size": 2}, "order": 2}, "m2.json")
    code, out, err = run_cli(capsys, "inv", "--ring", m2, "[0,0;0,0]")
    error = json.loads(err)["error"]
    assert code == 2 and out == "" and error["type"] == "AugmentationNotUnit"
    assert "augmentation 0,0;0,0 is not a unit of M2(Q)" in error["message"]
    assert "Fraction(" not in error["message"]
    # coset verdicts are refused on a ring with a twisted letter
    c4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    ring = ring_file({"coeff": {"kind": "group_algebra", "group": {"table": c4},
                                "automorphisms": {"inv": [0, 3, 2, 1]}},
                      "alphabet": ["x"], "twist": {"x": "inv"}, "order": 2})
    code, out, err = run_cli(capsys, "coset", "--ring", ring,
                             '1+[-12*g1+12*g3]*w("xx")', "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "NeedsTrace"
    # so is cyc_log, whose plain-trace buckets are not invariant there
    code, out, err = run_cli(capsys, "cyclog", "--ring", ring,
                             '1+[-12*g1+12*g3]*w("xx")')
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "NeedsTrace"


def test_exit_code_2_when_a_class_splits_across_twisted_classes(capsys, ring_file):
    # Q[S3] twisted by conjugation with a 3-cycle: at z-degree 1 the plain class
    # of the 3-cycle g3 is not inside one twisted class. ROADMAP item 1(c) will
    # replace these classes; until then the regrouping is refused.
    A = qs3_conj()
    ring = ring_file({"coeff": {"kind": "group_algebra",
                                "group": {"name": "S3", "table": A.group.table},
                                "automorphisms": {"conj": A.automorphism("conj").data[1]}},
                      "alphabet": ["z"], "twist": {"z": "conj"}, "order": 3})
    code, out, err = run_cli(capsys, "novikov", "--ring", ring,
                             json.dumps({"degrees": {"0": "1", "1": "-1*g3"}}))
    error = json.loads(err)["error"]
    assert code == 2 and out == "" and error["type"] == "ClassRegroupIncompatible"
    assert error["message"].startswith("plain class g3 splits across xi^1-twisted classes")


@pytest.mark.parametrize("suite,kind,message", [
    ("cyclog", "matrix", "commutator identity failed"),
    ("novikov", "group_algebra", "multiply-back check"),
])
def test_exit_code_3_on_broken_self_check(capsys, monkeypatch, suite, kind, message):
    # a product over one coefficient kind gains a stray top-degree term, so a
    # self-check fails on valid input: broken arithmetic, not a domain error
    product = TwistedSeries.__mul__

    def broken(self, other):
        out = product(self, other)
        R = self.ring
        if R.coeff.kind == kind:
            out = out + R.from_terms([((0,) * R.order, R.coeff.one)])
        return out
    monkeypatch.setattr(TwistedSeries, "__mul__", broken)
    code, out, err = run_cli(capsys, "selftest", suite)
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InternalInvariantError"
    assert message in error["message"]


def test_run_job_file(capsys, tmp_path):
    p = tmp_path / "job.json"
    p.write_text(json.dumps({"op": "inv",
                             "ring": {"coeff": {"kind": "rational"}, "order": 2},
                             "series": ['1-w("x")']}))
    code, out, _ = run_cli(capsys, "run", str(p))
    assert code == 0
    assert json.loads(out)["result"] == '1+w("x")+w("xx")'


def test_run_rejects_unknown_op(capsys, tmp_path):
    p = tmp_path / "job.json"
    p.write_text(json.dumps({"op": "frobnicate"}))
    code, _, err = run_cli(capsys, "run", str(p))
    assert code == 1


_FREE_DOC = {"coeff": {"kind": "free_trunc", "generators": ["y", "z"], "max_degree": 4},
             "alphabet": ["x"], "order": 2}
_C2_DOC = {"coeff": {"kind": "group_algebra", "group": {"name": "C2", "table": [[0, 1], [1, 0]]}},
           "alphabet": ["z"], "order": 3}
_MATRIX = [['1+w("x")', 'w("x")'], ['w("x")', '1+w("x")']]
_NOVIKOV = {"degrees": {"0": "1", "1": "-1*g1"}}


# (flag-form argv less --ring, the ring document, the job's other keys); a
# job's "ring" key, where given, is the ring document with --order applied
FLAG_AND_RUN = [
    (["inv", '1+w("x")'], QRING_DOC, {"series": ['1+w("x")']}),
    (["inv", '1+w("x")', "--order", "5"], QRING_DOC,
     {"ring": {**QRING_DOC, "order": 5}, "series": ['1+w("x")']}),
    (["mul", '1+w("x")', '1-w("x")', "2"], QRING_DOC, {"series": ['1+w("x")', '1-w("x")', "2"]}),
    (["log", '1+w("x")'], QRING_DOC, {"series": ['1+w("x")']}),
    (["ldu", json.dumps(_MATRIX)], QRING_DOC, {"matrix": _MATRIX}),
    (["det", json.dumps(_MATRIX)], QRING_DOC, {"matrix": _MATRIX}),
    (["cgen", '[z+yz]*w("x")', "[1-y+yy]"], _FREE_DOC, {"series": ['[z+yz]*w("x")', "[1-y+yy]"]}),
    (["cgen", "--flavor", "a_in_kernel", '[z+yz]*w("x")', "[1-y+yy]"], _FREE_DOC,
     {"series": ['[z+yz]*w("x")', "[1-y+yy]"], "flavor": "a_in_kernel"}),
    (["vaserstein", 'w("x")', '[y]*w("x")', "2"], _FREE_DOC,
     {"series": ['w("x")', '[y]*w("x")', "2"]}),
    # options between the operands
    (["cgen", '[z+yz]*w("x")', "--flavor", "a_in_kernel", "[1-y+yy]"], _FREE_DOC,
     {"series": ['[z+yz]*w("x")', "[1-y+yy]"], "flavor": "a_in_kernel"}),
    (["vaserstein", 'w("x")', "--order", "1", '[y]*w("x")', "2"], _FREE_DOC,
     {"ring": {**_FREE_DOC, "order": 1}, "series": ['w("x")', '[y]*w("x")', "2"]}),
    (["cyclog", '1+w("x")'], QRING_DOC, {"series": ['1+w("x")']}),
    (["coset", '1+w("x")', "1"], QRING_DOC, {"series": ['1+w("x")', "1"]}),
    (["endoclass", '[["0","1"],["0","0"]]'], QRING_DOC, {"alpha": [["0", "1"], ["0", "0"]]}),
    (["addcheck", '[["1"]]', '[["1"]]', '[["5"]]'], QRING_DOC,
     {"alpha": [["1"]], "alpha2": [["1"]], "coupling": [["5"]]}),
    (["novikov", json.dumps(_NOVIKOV)], _C2_DOC, {"novikov": _NOVIKOV}),
    (["novikov", json.dumps(_NOVIKOV), "--lefschetz"], _C2_DOC,
     {"novikov": _NOVIKOV, "lefschetz": True}),
    (["selftest", "novikov", "--seed", "3", "--order", "3", "--trials", "1"], None,
     {"suite": "novikov", "seed": 3, "order": 3, "trials": 1}),
]


def _form_id(argv):
    # the op and its flags; "-between" marks a flag written between two operands
    parts = [argv[0]]
    for i, a in enumerate(argv):
        if a.startswith("--"):
            between = 1 < i < len(argv) - 2 and not argv[i + 2].startswith("--")
            parts.append(a + "-between" * between)
    return "".join(parts)


@pytest.mark.parametrize("argv, ring, body", FLAG_AND_RUN,
                         ids=[_form_id(argv) for argv, _, _ in FLAG_AND_RUN])
def test_flag_and_run_forms_agree(capsys, ring_file, tmp_path, argv, ring, body):
    job = {"op": argv[0], **({"ring": ring} if ring else {}), **body}
    flag = run_cli(capsys, *argv, *(["--ring", ring_file(ring)] if ring else []))
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert flag[0] == 0 and flag[1]
    assert run_cli(capsys, "run", str(path)) == flag


def test_readme_command_lines_parse():
    # every twistdet line of the README's CLI block is a command line the parser
    # takes; nothing is run, so no ring or operand file is read
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("twistdet ")]
    assert {shlex.split(line)[1] for line in lines} == set(OP_SCHEMAS) | {"run"}
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_no_meta_schema_check_per_job(capsys, qring, monkeypatch):
    def refuse(cls, schema, **kwargs):
        raise AssertionError("the job schema was re-checked while running a job")
    monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema",
                        classmethod(refuse))
    code, out, err = run_cli(capsys, "inv", "--ring", qring, '1+w("x")')
    assert code == 0 and err == ""
    assert json.loads(out)["result"] == '1-w("x")+w("xx")-w("xxx")'


def test_cli_process_does_not_import_jsonschema(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"op": "inv", "ring": QRING_DOC, "series": ['1+w("x")']}))
    code = textwrap.dedent(f"""
        import sys
        import twistdet.cli
        assert "jsonschema" not in sys.modules, "imported by twistdet.cli"
        assert twistdet.cli.main(["run", {str(job)!r}]) == 0
        assert "jsonschema" not in sys.modules, "imported while running a job"
        # the traced benchmark run wraps this function
        assert callable(twistdet.cli.jsonschema.validate)
    """)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(twistdet.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_validate_job_rejects_nesting_too_deep_to_check():
    # json.loads accepts a little more nesting than the validator can walk
    deep = []
    for _ in range(100000):
        deep = [deep]
    with pytest.raises(ValidationError, match="JSON nested too deeply"):
        validate_job({"op": "det", "ring": QRING_DOC, "matrix": deep})


@pytest.mark.parametrize("argv", [
    ["inv", "--ring", "{ring}", '1+w("x")'],
    ["ldu", "--ring", "{ring}", json.dumps([['1+w("x")', 'w("x")'], ['w("x")', "1"]])],
    ["cgen", "--ring", "{ring}", 'w("x")', 'w("x")'],
    ["cyclog", "--ring", "{ring}", '1+w("x")'],
    ["novikov", "--ring", "{c2ring}", json.dumps({"degrees": {"0": "1", "1": "-1*g1"}})],
])
def test_cli_process_does_not_import_dataclasses(ring_file, argv):
    # spawned as the benchmark spawns a job; -X importtime lists on stderr every
    # module the process imports, including any imported while the job runs
    rings = {"{ring}": ring_file(QRING_DOC),
             "{c2ring}": ring_file({"coeff": {"kind": "group_algebra", "group": {
                 "name": "C2", "table": [[0, 1], [1, 0]]}}, "alphabet": ["z"], "order": 3},
                 name="c2.json")}
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(twistdet.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "twistdet.cli",
                           *(rings.get(a, a) for a in argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"twistdet.kgroup", "twistdet.matrices", "twistdet.novikov"} <= imported
    assert not imported & {"dataclasses", "inspect", "jsonschema"}


@pytest.mark.parametrize("job, names", [
    ({"op": "inv", "ring": QRING_DOC, "series": ["1"], "colour": "red"},
     "colour"),
    ({"op": "cgen", "ring": QRING_DOC, "series": ["1"]}, "$.series"),
    ({"op": "frobnicate", "ring": QRING_DOC}, "frobnicate"),
    ([{"op": "inv"}], "JSON object"),
    ({"op": "cgen", "ring": QRING_DOC, "series": ["1", "1"], "flavor": "nope"}, "$.flavor"),
    ({"op": "cgen", "ring": QRING_DOC, "series": ["1", "1"], "flavor": "b_unit\n"}, "$.flavor"),
    ({"op": "selftest", "suite": "dieudonne"}, "$.suite"),
])
def test_run_schema_errors_are_readable(capsys, tmp_path, job, names):
    p = tmp_path / "job.json"
    p.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "run", str(p))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert names in error["message"]
    assert len(error["message"]) < 1024


def test_tracer_installs_on_the_package_and_uninstalls(capsys, qring):
    # perfbench/spans.py wraps functions and methods of the loaded package by
    # name; a hook it looks up that is gone fails here
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._restore)
        code = twistdet.cli.main(["mul", "--ring", qring, '1+w("x")', '2-w("x")'])
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(capsys.readouterr().out)["result"] == '2+w("x")-w("xx")'
    assert tracer.calls["cli.self"] == 1 and tracer.calls["literals.parse"] == 2
    assert tracer.calls["series.mul"] == 1 and tracer.calls["literals.render"] == 1
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)


def test_out_flag_writes_canonical_file(capsys, qring, tmp_path):
    target = tmp_path / "o.json"
    code, out, _ = run_cli(capsys, "inv", "--ring", qring, "--out", str(target),
                           "1")
    assert code == 0
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["result"] == "1"


def byte_golden(capsys, tmp_path, stem):
    job = GOLDENS / f"{stem}_job.json"
    want = (GOLDENS / f"{stem}_out.json").read_bytes()
    target = tmp_path / "out.json"
    code = main(["run", str(job), "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_bytes() == want
    # determinism: a second run produces identical bytes
    code = main(["run", str(job), "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_bytes() == want


def test_golden_cgen_coefficient_commutator(capsys, tmp_path):
    byte_golden(capsys, tmp_path, "cgen_commutes")


def test_golden_cgen_unit_conjugation(capsys, tmp_path):
    byte_golden(capsys, tmp_path, "cgen_conjugation")


ARITHMETIC_GOLDENS = sorted(p.name[:-len("_job.json")] for p in GOLDENS.glob("*_job.json")
                            if not p.name.startswith("cgen_co"))


@pytest.mark.parametrize("stem", ARITHMETIC_GOLDENS)
def test_golden_arithmetic_stdout(capsys, stem):
    # one inv, log, ldu, det, cgen and novikov job per coefficient kind, on
    # the ring shapes of perfbench's cli-jobs: `run` prints these exact bytes
    want = (GOLDENS / f"{stem}_out.json").read_text()
    code, out, _ = run_cli(capsys, "run", str(GOLDENS / f"{stem}_job.json"))
    assert code == 0 and out == want


def test_novikov_job_takes_one_log(capsys, monkeypatch):
    # a novikov job over a group algebra computes w1 once, for "w1" and for
    # its orbit counts
    logs, log = [], twistdet.kgroup.formal_log

    def counted(u):
        logs.append(u)
        return log(u)
    monkeypatch.setattr(twistdet.kgroup, "formal_log", counted)
    want = (GOLDENS / "novikov_group_algebra_out.json").read_text()
    code, out, _ = run_cli(capsys, "run", str(GOLDENS / "novikov_group_algebra_job.json"))
    assert code == 0 and out == want
    assert len(logs) == 1
