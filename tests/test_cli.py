import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bolext.cli import main
from bolext.core import Variant

from conftest import corpus_dir
from oracles import classify_text


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def C(name):
    return str(corpus_dir() / name)


def test_validate(capsys):
    code, out = run_cli("validate", C("s2.bol"))
    assert code == 0 and out.splitlines()[0] == "algebra: valid"


def test_validate_invalid(tmp_path):
    # skew-consistent but cyclically broken: parses, then fails validation
    doc = json.loads((corpus_dir() / "z3.bol").read_text())
    doc["trilinear"][0][1][2] = ["0", "0", "1"]
    doc["trilinear"][1][0][2] = ["0", "0", "-1"]
    p = tmp_path / "broken.bol"
    p.write_text(json.dumps(doc))
    code, out = run_cli("validate", str(p))
    assert code == 1
    assert "bracket-cyclic" in out


def test_parse_error_exit_2(tmp_path):
    p = tmp_path / "nope.bol"
    p.write_text("{}")
    code, _ = run_cli("validate", str(p))
    assert code == 2
    code, _ = run_cli("validate", str(tmp_path / "missing.bol"))
    assert code == 2
    # a skewness violation in the file is a load-time schema error
    doc = json.loads((corpus_dir() / "s2.bol").read_text())
    doc["bilinear"][0][0][0] = "1"
    p2 = tmp_path / "skew.bol"
    p2.write_text(json.dumps(doc))
    code, _ = run_cli("validate", str(p2))
    assert code == 2


def test_validate_rep():
    code, out = run_cli("validate-rep", "--algebra", C("s2.bol"),
                        "--rep", C("r_s2.rep"))
    assert code == 0 and "valid" in out


def test_cohomology_output():
    code, out = run_cli("cohomology", "--algebra", C("z2.bol"), "--rep", C("t1.rep"))
    assert code == 0
    assert out.splitlines() == ["variant: corrected", "z=3 b=0 h=3"]
    code, out = run_cli("cohomology", "--algebra", C("s2.bol"), "--rep", C("t1.rep"))
    assert out.splitlines()[1] == "z=3 b=1 h=2"


def test_semidirect_emits_algebra(tmp_path):
    code, out = run_cli("semidirect", "--algebra", C("z2.bol"), "--rep", C("t1.rep"))
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3


def test_extract_build_nab_pipeline(tmp_path):
    code, out = run_cli("extract-cocycle", "--extension", C("e_h3.ext"))
    assert code == 0
    nab = tmp_path / "c.nab"
    nab.write_text(out)
    code, out2 = run_cli("nab-validate", "--cocycle", str(nab))
    assert code == 0
    code, out3 = run_cli("build-extension", "--cocycle", str(nab))
    assert code == 0
    ext = tmp_path / "e.ext"
    ext.write_text(out3)
    code, out4 = run_cli("equiv-extensions", "--e1", C("e_h3.ext"),
                         "--e2", str(ext))
    assert code == 0 and out4.startswith("equivalent")


def test_nab_validate_checks_base_and_fiber_axioms(tmp_path, capsys, F5):
    # the zero cocycle over z1 with fiber z3, [e1,e2,e3] = e3: every cocycle
    # identity holds, but neither the fiber nor the glued algebra is Bol
    from bolext.bol import BolAlgebra, z1, z3
    from bolext.documents import algebra_to_doc, canonical_json, nab_to_doc
    from bolext.nonabelian import NonAbelianCocycle

    zero = z3(F5)
    e3 = (F5.zero, F5.zero, F5.one)
    special = {(0, 1, 2): e3, (1, 0, 2): tuple(-x for x in e3)}
    tri = tuple(tuple(tuple(special.get((i, j, k), zero.tri[i][j][k])
                            for k in range(3)) for j in range(3)) for i in range(3))
    c = NonAbelianCocycle.zero(z1(F5), BolAlgebra(F5, 3, zero.bil, tri))
    nab = tmp_path / "c.nab"
    nab.write_text(canonical_json(nab_to_doc(c)))
    code, out = run_cli("nab-validate", "--cocycle", str(nab))
    lines = out.splitlines()
    assert code == 1 and lines[:2] == ["variant: corrected", "cocycle: invalid"]
    assert len(lines) > 2
    assert all(v.startswith("violation: fiber:bracket-cyclic at ") for v in lines[2:])
    code, out = run_cli("build-extension", "--cocycle", str(nab))
    assert code == 0
    ext = tmp_path / "e.ext"
    ext.write_text(out)
    total = tmp_path / "total.bol"
    total.write_text(json.dumps(json.loads(out)["total"]))
    code, out = run_cli("validate", str(total))
    assert code == 1 and "bracket-cyclic" in out
    capsys.readouterr()
    code, out = run_cli("exactness", "--extension", str(ext))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: exactness verification over an invalid cocycle: fiber:bracket-cyclic\n")
    fiber = tmp_path / "fiber.bol"
    fiber.write_text(canonical_json(algebra_to_doc(c.fiber)))
    code, out = run_cli("classify", "--base", C("z1_gf5.bol"), "--fiber", str(fiber),
                        "--count-only")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: classification over a non-Bol base or fiber: fiber:bracket-cyclic\n")


def test_equiv_cocycles(tmp_path):
    code, out = run_cli("extract-cocycle", "--extension", C("e_h3.ext"))
    nab = tmp_path / "c.nab"
    nab.write_text(out)
    code, out = run_cli("equiv-cocycles", "--c1", str(nab), "--c2", str(nab))
    assert code == 0
    code, out = run_cli("equiv-cocycles", "--c1", str(nab), "--c2", str(nab),
                        "--phi", "[[0, 0]]")
    assert code == 0


def test_inducible(capsys):
    code, out = run_cli("inducible", "--extension", C("e_h3.ext"),
                        "--alpha", "id", "--beta", "2")
    assert code == 1 and out.splitlines()[0] == "not inducible: ind-nu"
    code, out = run_cli("inducible", "--extension", C("e_h3.ext"),
                        "--alpha", "diag(2,1)", "--beta", "2")
    assert code == 0 and out.splitlines()[0] == "inducible: yes"
    code, out = run_cli("inducible", "--extension", C("e_h3.ext"),
                        "--alpha", "id", "--beta", "id", "--phi", "[[0, 0]]")
    assert code == 0


def test_exponent_beta_over_q_exits_2_at_once(capsys):
    # Fraction would build 10**100000000 before it could answer
    start = time.perf_counter()
    code, out = run_cli("inducible", "--extension", C("e_h3_q.ext"),
                        "--alpha", "id", "--beta", "1e100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_a_json_integer_too_long_to_convert_exits_2(tmp_path, capsys):
    # json.load refuses integers of more than 4,300 digits with a ValueError
    digits = "1" + "0" * 5000
    p = tmp_path / "long.bol"
    p.write_text('{"field": {"p": 5}, "dim": 1, "bilinear": [[[%s]]], '
                 '"trilinear": [[[[0]]]]}' % digits)
    code, out = run_cli("validate", str(p))
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith(f"error: {p}: $: Exceeds the limit") and "Traceback" not in err
    # the same integer in an inline matrix spec
    code, out = run_cli("lift", "--extension", C("e_h3.ext"), "--alpha", "id",
                        "--beta", f"[[{digits}]]")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON: Exceeds the limit")


def test_a_spec_that_is_neither_a_scalar_nor_a_file_reports_the_scalar(capsys):
    # the scalar parser's reason, not the missing file 1e5
    code, out = run_cli("inducible", "--extension", C("e_h3_q.ext"),
                        "--alpha", "id", "--beta", "1e5")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == ("error: bad scalar '1e5' over Q: "
                   "exponent forms are not rational scalars, got '1e5'\n")
    # an existing file is still read as a matrix document
    code, out = run_cli("inducible", "--extension", C("e_h3_q.ext"),
                        "--alpha", "id", "--beta", C("z1.bol"))
    assert code == 2 and "Errno" not in capsys.readouterr().err


def test_lift_and_wells():
    code, out = run_cli("lift", "--extension", C("e_h3.ext"),
                        "--alpha", "diag(2,1)", "--beta", "2")
    assert code == 0
    assert json.loads(out) == [[2, 0, 0], [0, 1, 0], [0, 0, 2]]
    code, out = run_cli("wells", "--extension", C("e_h3.ext"),
                        "--alpha", "diag(2,1)", "--beta", "2")
    assert code == 0 and out.splitlines()[0] == "wells-class: zero"
    code, out = run_cli("wells", "--extension", C("e_h3.ext"),
                        "--alpha", "id", "--beta", "2")
    assert code == 1 and out.splitlines()[0] == "wells-class: nonzero"


def test_lift_with_a_map_that_does_not_induce_the_pair(capsys):
    # the line and exit code of `inducible --phi` and of `lift` without --phi
    code, out = run_cli("lift", "--extension", C("e_h3.ext"),
                        "--alpha", "id", "--beta", "2", "--phi", "[[1, 2]]")
    assert (code, out) == (1, "not inducible: ind-nu\n")
    assert capsys.readouterr().err == ""


def test_classify_bound_counts_candidate_cocycles(capsys):
    # z1 x z3 has one candidate cocycle and no equivalence search, so the
    # 125 maps z1 -> z3 do not count against the bound
    code, out = run_cli("--bound", "100", "classify", "--base", C("z1_gf5.bol"),
                        "--fiber", C("z3_gf5.bol"), "--count-only")
    assert (code, out) == (0, "valid-cocycles: 1\nclasses: 1\n")
    code, out = run_cli("--bound", "100", "classify", "--base", C("z2_gf5.bol"),
                        "--fiber", C("s2_gf5.bol"), "--count-only")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        "error: 15625 candidate cocycles exceed the bound 100\n"


@pytest.mark.parametrize("variant, count", [("corrected", 5), ("strict-paper", 25)])
@pytest.mark.parametrize("base", ["z2_gf5.bol", "s2_gf5.bol"])
def test_classify_nonabelian_fiber_at_batch_cost(base, variant, count):
    # 5^6 candidate cocycles over the non-abelian fiber s2, each valid one
    # its own class; the counts agree with the scalar stream (about 53 s a
    # run)
    t0 = time.monotonic()
    code, out = run_cli("--variant", variant, "classify", "--base", C(base),
                        "--fiber", C("s2_gf5.bol"), "--count-only")
    elapsed = time.monotonic() - t0
    assert (code, out) == (0, f"valid-cocycles: {count}\nclasses: {count}\n")
    assert elapsed < 5, f"{elapsed:.1f} s"


# (argv, exit code, sha256 of stdout): the counts and printed representatives
# of classify over abelian and non-abelian fibers
GOLDEN_CLASSIFY = [
    # 125 valid cocycles, 25 representatives printed
    (["classify", "--base", "s2_gf5.bol", "--fiber", "z1_gf5.bol"], 0,
     "e7011af5f7e633bdd94cba982bf92f6440f8da2ac7e504e457cee3e886fea27f"),
    (["classify", "--base", "s2_gf5.bol", "--fiber", "z1_gf5.bol",
      "--actions", "r_s2_gf5.rep"], 0,
     "68a5bdfac19d852caa08b25ef07891ea960b83eac236c249ec2c7f35378794f2"),
    (["--variant", "strict-paper", "classify", "--base", "s2_gf5.bol",
      "--fiber", "z1_gf5.bol", "--actions", "r_s2_gf5.rep"], 0,
     "68a5bdfac19d852caa08b25ef07891ea960b83eac236c249ec2c7f35378794f2"),
    # a non-abelian fiber
    (["classify", "--base", "z1_gf5.bol", "--fiber", "s2_gf5.bol"], 0,
     "f8f64d6bd368c0d2161adefed2f90838a736254f75e668e81d6a31a6557afd26"),
    (["classify", "--base", "z2_gf5.bol", "--fiber", "s2_gf5.bol", "--count-only"], 0,
     "2744429b8a368097eed79de4115acb5e888d6b90f9cb7851c24f10ab45e682b3"),
    (["--variant", "strict-paper", "classify", "--base", "z2_gf5.bol",
      "--fiber", "s2_gf5.bol", "--count-only"], 0,
     "a24c1c87d32ffe3a4853ca611324e0fd6d1c8970f62353820034b58409280eb7"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN_CLASSIFY)
def test_classify_golden_output(argv, code, digest):
    argv = [C(a) if a.endswith((".bol", ".rep")) else a for a in argv]
    got, out = run_cli(*argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_classify_maps_nothing_without_a_cochain_to_class(capsys):
    # z1 x h3 has one candidate cocycle, and 5^3 maps B -> V lie above the
    # bound 124: with no cochain to class no map is enumerated, so the run
    # is not refused
    code, out = run_cli("--bound", "124", "classify", "--base", C("z1_gf5.bol"),
                        "--fiber", C("h3_gf5.bol"))
    assert (code, out) == (0, 'valid-cocycles: 1\nclasses: 1\nrepresentative 0: '
                              '{"nu": [[[0, 0, 0]]], "omega": [[[[0, 0, 0]]]]}\n')
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("base, classes", [("z2", 3125), ("s2", 625)])
def test_classify_over_the_heisenberg_fiber(base, classes):
    # 3,125 valid cocycles of a base of dimension 2 by the non-abelian h3,
    # classed by cosets of the image of the maps that keep the actions:
    # each its own class over z2, classes of 5 over s2 (the manifest rows).
    # The --count-only run goes out of process, under 20 s; the printed
    # z2 x h3 run is pinned by its digest, taken where the representatives
    # matched orbit marking over every map
    import os
    import subprocess
    import sys

    row = json.loads((corpus_dir() / "manifest.json").read_text())[
        "reference"]["classification"][f"{base}_gf5_by_h3_gf5"]
    assert (row["valid_cocycles"], row["classes"]) == (3125, classes)
    argv = ["classify", "--base", C(f"{base}_gf5.bol"), "--fiber", C("h3_gf5.bol")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(corpus_dir().parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    start = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "bolext.cli", *argv, "--count-only"],
                         capture_output=True, text=True, env=env)
    assert time.monotonic() - start < 20.0
    assert (run.returncode, run.stdout, run.stderr) == (
        0, f"valid-cocycles: 3125\nclasses: {classes}\n", "")
    if base == "z2":
        code, out = run_cli(*argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
            0, "64797057663433fc9c275b7e15103afd464dc66be83ed9f8284c4eec7ec063b9")


@pytest.mark.parametrize("base, fiber, variant, actions", [
    (f"{b}_gf5.bol", f"{f}_gf5.bol", v, None)
    for b in ("z1", "z2", "s2") for f in ("z1", "s2", "z2")
    for v in ("corrected", "strict-paper")
] + [("s2_gf5.bol", "z1_gf5.bol", "corrected", "r_s2_gf5.rep")])
def test_classify_prints_the_document_of_each_representative(base, fiber, variant, actions):
    # the CLI prints residue rows; the document route decodes each
    # representative of classify_corpus and encodes it by cochain_pair_to_doc.
    # Over z2 x z2 that is 15,625 classes, each its own representative
    from bolext import documents as docs
    from bolext.extensions import classify_corpus

    argv = ["--variant", variant, "classify", "--base", C(base), "--fiber", C(fiber)]
    acts = None
    if actions is not None:
        argv += ["--actions", C(actions)]
        r = docs.parse_document(C(actions), "representation")
        acts = (r.mu, r.theta, r.dd)
    result = classify_corpus(docs.parse_document(C(base), "algebra"),
                             docs.parse_document(C(fiber), "algebra"), acts,
                             variant=Variant(variant))
    for count_only in (False, True):
        code, out = run_cli(*argv, *["--count-only"] * count_only)
        # compared line by line: a diff of the whole text is slow to report
        want = classify_text(*result, count_only)
        assert code == 0 and out.splitlines() == want.splitlines() and out.endswith("\n")


def test_classify_prints_an_abelian_fiber_without_decoding(F5, monkeypatch):
    # z2 x z1: 125 classes printed from residue rows.  Nothing is decoded
    # into field scalars, and the one cocycle whose constructor runs its
    # checks is the zero cocycle that carries the actions
    import bolext.extensions as extensions
    import bolext.identities as identities
    from bolext.bol import z1, z2
    from bolext.nonabelian import NonAbelianCocycle

    def no_scalars(*args):
        raise AssertionError("a residue row was decoded")

    built, post_init = [], NonAbelianCocycle.__post_init__
    zero = NonAbelianCocycle.zero(z2(F5), z1(F5))

    def spy(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(identities, "scalars", no_scalars)
    monkeypatch.setattr(extensions, "scalars", no_scalars)
    monkeypatch.setattr(NonAbelianCocycle, "__post_init__", spy)
    code, out = run_cli("classify", "--base", C("z2_gf5.bol"), "--fiber", C("z1_gf5.bol"))
    assert code == 0 and out.splitlines()[:2] == ["valid-cocycles: 125", "classes: 125"]
    assert len(out.splitlines()) == 127 and built == [zero]


def test_classify_with_no_valid_cocycle(F5, tmp_path):
    # actions under which no (nu, omega) passes the suite: no class, not a
    # refused shape
    from bolext import documents as docs
    from bolext.bol import s2, zero_algebra
    from bolext.extensions import classify_corpus

    from oracles import valid_cocycles_oracle

    doc = json.loads((corpus_dir() / "r_s2_gf5.rep").read_text())
    doc["theta"][0][1] = doc["D"][0][1] = [[1]]
    doc["D"][1][0] = [[4]]
    rep = tmp_path / "actions.rep"
    rep.write_text(json.dumps(doc))
    r = docs.parse_document(str(rep), "representation")
    actions = (r.mu, r.theta, r.dd)
    assert not list(valid_cocycles_oracle(s2(F5), zero_algebra(F5, 1), actions,
                                          Variant.CORRECTED))
    assert classify_corpus(s2(F5), zero_algebra(F5, 1), actions) == (0, [], 0)
    code, out = run_cli("classify", "--base", C("s2_gf5.bol"), "--fiber", C("z1_gf5.bol"),
                        "--actions", str(rep))
    assert (code, out) == (0, "valid-cocycles: 0\nclasses: 0\n")


def test_classify_count_only():
    code, out = run_cli("classify", "--base", C("z1_gf5.bol"),
                        "--fiber", C("z1_gf5.bol"), "--count-only")
    assert code == 0
    assert "classes: 1" in out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_representative_template_prints_the_json_text(data):
    # every shape with n, m in 1..3, stacks of 0 to 3 rows, entries up to
    # 1,000,002 (the residues of the largest prime the tests use): the
    # template writes exactly the lines json.dumps writes
    import numpy as np

    from bolext.cli import _representative_lines

    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rows, start = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 10 ** 7))
    entries = st.integers(0, 1_000_002)
    nu = np.array(data.draw(st.lists(entries, min_size=rows * n * n * m,
                                     max_size=rows * n * n * m)), dtype=np.int64)
    om = np.array(data.draw(st.lists(entries, min_size=rows * n ** 3 * m,
                                     max_size=rows * n ** 3 * m)), dtype=np.int64)
    nu, om = nu.reshape(rows, n, n, m), om.reshape(rows, n, n, n, m)
    want = "".join(f"representative {start + k}: "
                   + json.dumps({"nu": nu[k].tolist(), "omega": om[k].tolist()}) + "\n"
                   for k in range(rows))
    assert _representative_lines(start, nu, om) == want


@pytest.mark.parametrize("base, joined", [("z2_gf5.bol", 0), ("s2_gf5.bol", 100)])
def test_classify_count_only_builds_no_representative_row(monkeypatch, base, joined):
    # the CLI rebuilds representative rows only to print them; the class
    # store rebuilds those of the classes that members join, to check each
    # witness: 125 valid cocycles in 125 classes over z2, in 25 over s2
    import bolext.cli as cli
    import bolext.extensions as extensions

    printed, checked = [], []
    rows = extensions.candidate_rows

    def spy(seen):
        def rebuilt(zero, index):
            seen.append(len(index))
            return rows(zero, index)
        return rebuilt

    monkeypatch.setattr(cli, "candidate_rows", spy(printed))
    monkeypatch.setattr(extensions, "candidate_rows", spy(checked))
    argv = ["classify", "--base", C(base), "--fiber", C("z1_gf5.bol")]
    code, out = run_cli(*argv, "--count-only")
    assert code == 0 and out.splitlines()[0] == "valid-cocycles: 125"
    assert (printed, sum(checked)) == ([], joined)
    code, out = run_cli(*argv)
    assert code == 0 and sum(printed) == len(out.splitlines()) - 2 == 125 - joined


def test_enumerate():
    code, out = run_cli("enumerate", "--kind", "vectors", "--field", "5",
                        "--dim", "1", "--count-only")
    assert code == 0 and "count: 5" in out
    code, out = run_cli("enumerate", "--kind", "automorphisms",
                        "--algebra", C("z1_gf5.bol"), "--count-only")
    assert code == 0 and "count: 4" in out
    code, out = run_cli("enumerate", "--kind", "algebras", "--field", "5",
                        "--dim", "2", "--tri-zero", "--count-only")
    assert code == 0 and "count: 25" in out
    code, out = run_cli("enumerate", "--kind", "algebras", "--field", "Q",
                        "--dim", "1")
    assert code == 2
    # the only candidate is all zero, so no identity term overflows, though
    # (p - 1)^3 exceeds int64 for a product of three residues
    code, out = run_cli("enumerate", "--kind", "algebras", "--field", "2100001",
                        "--dim", "1", "--count-only")
    assert code == 0 and out == "count: 1\n"


def test_variant_flag_threads():
    code, out = run_cli("--variant", "strict-paper", "cohomology",
                        "--algebra", C("z2.bol"), "--rep", C("t1.rep"))
    assert code == 0 and out.splitlines()[0] == "variant: strict-paper"


def test_calls_in_a_row_answer_as_with_a_fresh_parser(monkeypatch):
    # main reuses one parser per process: no option of a call may leak into
    # the next, so each call answers as it does with a freshly built parser
    from bolext import cli

    cohomology = ["cohomology", "--algebra", C("z2.bol"), "--rep", C("t1.rep")]
    vectors = ["enumerate", "--kind", "vectors", "--field", "5", "--dim", "3",
               "--count-only"]
    calls = [["validate"], ["--variant", "strict-paper", *cohomology], cohomology,
             ["--bound", "10", *vectors], vectors]

    def answers():
        got = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            got.append((code, out.getvalue(), err.getvalue()))
        return got

    cached = answers()
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert answers() == cached
    assert [code for code, _, _ in cached] == [2, 0, 0, 2, 0]
    assert [out.splitlines()[0] for _, out, _ in cached[1:3]] == [
        "variant: strict-paper", "variant: corrected"]
    assert cached[3][2] == "error: 125 vectors exceed the bound 10\n"
    assert cached[4][1] == "count: 125\n"


def test_determinism_double_run():
    cmds = [
        ("validate", C("h3.bol")),
        ("cohomology", "--algebra", C("s2.bol"), "--rep", C("t1.rep"),
         "--representatives"),
        ("extract-cocycle", "--extension", C("e_h3.ext")),
        ("inducible", "--extension", C("e_h3.ext"), "--alpha", "diag(2,1)",
         "--beta", "2"),
        ("enumerate", "--kind", "automorphisms", "--algebra", C("s2_gf5.bol")),
    ]
    for cmd in cmds:
        c1, o1 = run_cli(*cmd)
        c2, o2 = run_cli(*cmd)
        assert (c1, o1) == (c2, o2), cmd


@pytest.mark.parametrize("argv", [
    ["inducible", "--extension", "{c}/e_h3.ext", "--alpha", "diag(7,1)",
     "--beta", "1"],
    ["inducible", "--extension", "{c}/e_h3.ext", "--alpha", "diag(x,1)",
     "--beta", "1"],
    ["wells", "--extension", "{c}/e_h3_q.ext", "--alpha", "diag(1/0,1)",
     "--beta", "1"],
    ["enumerate", "--kind", "automorphisms"],
    ["enumerate", "--kind", "algebras", "--dim", "2"],
    ["enumerate", "--kind", "vectors", "--field", "5"],
    # residues of a prime from 2^63 up do not fit int64
    ["enumerate", "--kind", "algebras", "--field", "318665857834031151167441",
     "--dim", "1"],
    ["enumerate", "--kind", "vectors", "--field", "5", "--dim", "-1"],
    ["enumerate", "--kind", "algebras", "--field", "5", "--dim", "-1"],
    # the document of a zero-dimensional algebra does not parse
    ["enumerate", "--kind", "algebras", "--field", "5", "--dim", "0"],
])
def test_bad_map_spec_or_missing_option_exit_2(capsys, argv):
    code, out = run_cli(*[a.format(c=corpus_dir()) for a in argv])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_internal_consistency_error_exit_2(capsys, monkeypatch):
    import bolext.cli as cli
    from bolext.errors import InternalConsistencyError

    def broken(*args, **kwargs):
        raise InternalConsistencyError("class witness failed verification")

    monkeypatch.setattr(cli, "classify_rows", broken)
    code, out = run_cli("classify", "--base", C("z1_gf5.bol"),
                        "--fiber", C("z1_gf5.bol"))
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == ("error: internal consistency check failed: "
                   "class witness failed verification\n")


def test_unprovable_modulus_exit_2(capsys):
    code, out = run_cli("enumerate", "--kind", "algebras",
                        "--field", "318665857834031151167461", "--dim", "1")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error:") and "too large" in err


def test_enumerate_vectors_respects_bound(capsys):
    code, out = run_cli("--bound", "10", "enumerate", "--kind", "vectors",
                        "--field", "5", "--dim", "3", "--count-only")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == "error: 125 vectors exceed the bound 10\n"
    # the same line form as the algebra enumeration
    code, out = run_cli("--bound", "10", "enumerate", "--kind", "algebras",
                        "--field", "5", "--dim", "2", "--count-only")
    err = capsys.readouterr().err
    assert code == 2 and err == "error: 15625 candidate tensors exceed the bound 10\n"
    code, out = run_cli("--bound", "125", "enumerate", "--kind", "vectors",
                        "--field", "5", "--dim", "3", "--count-only")
    assert code == 0 and out == "count: 125\n"


def test_exactness_bound_counts_fiber_preserving_candidates(capsys):
    # the candidates are the |Aut B| |Aut V| p^(nm) = 480 * 4 * 5^2
    # block-triangular matrices of the adapted basis, not all 5^9 matrices
    # of the total
    code, out = run_cli("--bound", "10000", "exactness", "--extension", C("e_h3.ext"))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == \
        "error: 48000 candidate matrices exceed the bound 10000\n"


def test_exactness_bound_counts_every_candidate_not_the_tested_ones(capsys):
    # the scan tests only the 12,000 members of its solution cosets, but the
    # bound is checked on all 48,000 candidates before anything is built
    code, out = run_cli("--bound", "47999", "exactness", "--extension", C("e_h3.ext"))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        "error: 48000 candidate matrices exceed the bound 47999\n"
    code, out = run_cli("--bound", "48000", "exactness", "--extension", C("e_h3.ext"))
    assert code == 0
    assert out == run_cli("exactness", "--extension", C("e_h3.ext"))[1]


def test_exactness_of_the_z2_z2_class_is_refused_at_the_default_bound(capsys):
    # e_z2_z2.ext, a nonzero class of z2 x z2 over GF(5): its factored scan
    # has 480 * 480 * 5^4 candidates, above the default bound; CI runs it
    # with --bound 150000000 and checks the manifest row
    from bolext.documents import parse_document
    from bolext.extensions import canonical_section, extract_cocycle

    e = parse_document(C("e_z2_z2.ext"), "extension")
    c = extract_cocycle(e, canonical_section(e))
    assert (e.n, e.m) == (2, 2) and c.fiber.is_abelian()
    assert any(v.value for row in c.omega.grid for r2 in row for r3 in r2 for v in r3)
    code, out = run_cli("exactness", "--extension", C("e_z2_z2.ext"))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        "error: 144000000 candidate matrices exceed the bound 10000000\n"
    ref = json.loads((corpus_dir() / "manifest.json").read_text())
    row = ref["reference"]["exactness"]["e_z2_z2.ext"]
    assert row["aut_v_total"] == row["aut_fixing_both"] * row["image_kappa"] == 1000000
    assert row["pairs_total"] == row["aut_base"] * row["aut_fiber"] == 230400


def test_exactness_on_a_nonabelian_extension_of_dimension_four():
    # e_s2_s2.ext: a nonzero class of s2 x s2 over GF(5), so a total of
    # dimension 4 over a non-abelian fiber; its kappa image is checked
    # against one solve_inducibility call per pair
    import numpy as np

    from bolext.bol import automorphism_int_arrays, int_matrix
    from bolext.documents import parse_document
    from bolext.extensions import _adapted_total, canonical_section
    from bolext.wells import AutPair, _fiber_preserving_automorphisms, solve_inducibility

    t0 = time.monotonic()
    code, out = run_cli("exactness", "--extension", C("e_s2_s2.ext"))
    assert time.monotonic() - t0 < 20.0
    assert code == 0
    report = json.loads(out)
    card = report["cardinalities"]
    ref = json.loads((corpus_dir() / "manifest.json").read_text())
    assert {k: card[k] for k in ref["reference"]["exactness"]["e_s2_s2.ext"]} == \
        ref["reference"]["exactness"]["e_s2_s2.ext"]
    assert card["aut_v_total"] == card["image_kappa"] == card["kernel_wells"] == 100
    assert card["pairs_total"] == 400 and all(report["verdicts"].values())

    e = parse_document(C("e_s2_s2.ext"), "extension")
    alphas, betas = automorphism_int_arrays(e.base), automorphism_int_arrays(e.fiber)
    scanned = _fiber_preserving_automorphisms(
        e, *_adapted_total(e, canonical_section(e)), alphas, betas, 10 ** 6)
    inducible = [k for k in range(len(alphas) * len(betas)) if solve_inducibility(
        e, AutPair(int_matrix(e.field, alphas[k // len(betas)]),
                   int_matrix(e.field, betas[k % len(betas)]))).found]
    assert np.flatnonzero(scanned.hits).tolist() == inducible
    assert len(inducible) == 100


_ALGEBRAS = sorted(p.name for p in corpus_dir().iterdir() if p.suffix == ".bol")
_REPS = sorted(p.name for p in corpus_dir().iterdir() if p.suffix == ".rep")
_WRONG = ["e_h3.ext", "r_s2.rep", "manifest.json", "missing.bol"]
# map specs for the e_h3 extensions: base maps, fiber maps, maps base -> fiber
_ALPHAS = ["id", "2", "-1", "diag(2,1)", "diag(1,3)", "[[1,0],[0,1]]",
           "[[1,1],[0,1]]", "[[0,1],[1,0]]"]
_BETAS = ["id", "1", "2", "3", "-1", "[[4]]"]
_PHIS = ["[[0, 0]]", "[[1, 2]]", "[[0, 1]]"]
_BAD_SPECS = ["0", "1/2", "x", "diag(7,1)", "diag(1/0,1)", "diag()", "[[1,",
              "[]", '[["a"]]', "[[1]]", "e_h3.ext"]


@st.composite
def _argv(draw):
    """CLI argv over the corpus: mostly well-typed files, some wrong ones.
    "{nab}" stands for a cocycle document written by the test."""
    def pick(good, bad):
        return draw(st.sampled_from(good if draw(st.integers(0, 3)) else bad))

    def file(*names):
        name = pick(names, _WRONG)
        return name if name == "{nab}" else str(corpus_dir() / name)

    def spec(good=_ALPHAS + _BETAS + _PHIS):
        s = pick(good, _BAD_SPECS)
        return str(corpus_dir() / s) if s.endswith(".ext") else s

    def opt(flag, value):
        return [flag, value()] if draw(st.integers(0, 3)) else []

    def flag(name):
        return [name] if draw(st.booleans()) else []

    exts = ("e_h3.ext", "e_h3_q.ext")
    command = draw(st.sampled_from([
        "validate", "validate-rep", "semidirect", "cohomology", "nab-validate",
        "build-extension", "extract-cocycle", "equiv-cocycles",
        "equiv-extensions", "classify", "inducible", "lift", "wells",
        "exactness", "enumerate"]))
    top = ["--bound", str(draw(st.integers(-1, 5 ** 6)))]
    top += opt("--variant", lambda: draw(st.sampled_from(["corrected",
                                                          "strict-paper"])))
    if command == "validate":
        rest = [file(*_ALGEBRAS)]
    elif command in ("validate-rep", "semidirect", "cohomology"):
        rest = ["--algebra", file(*_ALGEBRAS), "--rep", file(*_REPS)]
        rest += flag("--representatives") if command == "cohomology" else []
    elif command in ("nab-validate", "build-extension"):
        rest = ["--cocycle", file("{nab}")]
    elif command == "extract-cocycle":
        rest = ["--extension", file(*exts)]
        rest += opt("--section", lambda: spec(["[[1,0],[0,1],[0,0]]", "[[1,0],[0,1],[1,1]]"]))
    elif command == "equiv-cocycles":
        rest = ["--c1", file("{nab}"), "--c2", file("{nab}")] + opt("--phi", lambda: spec(_PHIS))
    elif command == "equiv-extensions":
        rest = ["--e1", file(*exts), "--e2", file(*exts)]
    elif command == "classify":
        # one-dimensional fibers keep every run within the bound small
        rest = ["--base", file(*_ALGEBRAS), "--fiber", file("z1.bol", "z1_gf5.bol")]
        rest += opt("--actions", lambda: file(*_REPS)) + flag("--count-only")
    elif command in ("inducible", "lift", "wells"):
        rest = ["--extension", file(*exts), "--alpha", spec(_ALPHAS),
                "--beta", spec(_BETAS)]
        if command != "wells":
            rest += opt("--phi", lambda: spec(_PHIS))
    elif command == "exactness":
        rest = ["--extension", file(*exts)]
    else:
        rest = ["--kind", draw(st.sampled_from(["algebras", "automorphisms",
                                                "vectors"]))]
        rest += opt("--field", lambda: draw(st.sampled_from(
            ["5", "7", "Q", "4", "x", "318665857834031151167441"])))
        rest += opt("--dim", lambda: str(draw(st.integers(-1, 3))))
        rest += opt("--algebra", lambda: file(*_ALGEBRAS))
        rest += flag("--tri-zero") + ["--count-only"]
    return top + [command] + rest


@pytest.fixture(scope="module")
def nab_file(tmp_path_factory):
    code, out = run_cli("extract-cocycle", "--extension", C("e_h3.ext"))
    path = tmp_path_factory.mktemp("fuzz") / "e_h3.nab"
    path.write_text(out)
    return str(path)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_argv_fuzz_keeps_exit_code_contract(nab_file, argv):
    # 0 holds, 1 fails, 2 usage/parse/bound error; never a traceback
    argv = [a.replace("{nab}", nab_file) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
