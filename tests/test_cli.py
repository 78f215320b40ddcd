import io
import json
from contextlib import redirect_stdout

import pytest

from bolext.cli import main

from conftest import corpus_dir


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


def test_classify_count_only():
    code, out = run_cli("classify", "--base", C("z1_gf5.bol"),
                        "--fiber", C("z1_gf5.bol"), "--count-only")
    assert code == 0
    assert "classes: 1" in out


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


def test_variant_flag_threads():
    code, out = run_cli("--variant", "strict-paper", "cohomology",
                        "--algebra", C("z2.bol"), "--rep", C("t1.rep"))
    assert code == 0 and out.splitlines()[0] == "variant: strict-paper"


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

    monkeypatch.setattr(cli, "classify_corpus", broken)
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
