import json

import pytest

from bolext import documents as docs
from bolext.bol import validate_bol
from bolext.errors import ParseError
from bolext.extensions import validate_extension
from bolext.representation import validate_representation

from conftest import corpus_dir


def _roundtrip(path, kind, serialize):
    obj = docs.parse_document(str(path), kind)
    text = path.read_text()
    assert docs.canonical_json(serialize(obj)) == text
    return obj


def test_corpus_roundtrip_algebras():
    for p in sorted(corpus_dir().glob("*.bol")):
        a = _roundtrip(p, "algebra", docs.algebra_to_doc)
        assert validate_bol(a).valid, p.name


def test_corpus_roundtrip_reps():
    manifest = json.loads((corpus_dir() / "manifest.json").read_text())
    for name, meta in manifest["representations"].items():
        r = _roundtrip(corpus_dir() / name, "representation",
                       docs.representation_to_doc)
        a = docs.parse_document(str(corpus_dir() / meta["algebra"]), "algebra")
        assert validate_representation(a, r).valid, name


def test_corpus_roundtrip_extensions():
    for name in ("e_h3.ext", "e_h3_q.ext", "e_s2_s2.ext", "e_z2_z2.ext"):
        e = _roundtrip(corpus_dir() / name, "extension", docs.extension_to_doc)
        assert validate_extension(e).valid, name


def test_parse_rejects_char_2_3(tmp_path):
    doc = {"field": {"p": 3}, "dim": 1, "bilinear": [[[0]]],
           "trilinear": [[[[0]]]]}
    p = tmp_path / "bad.bol"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="characteristic"):
        docs.parse_document(str(p), "algebra")


def test_parse_rejects_skew_violation(tmp_path):
    doc = {"field": {"p": 5}, "dim": 2,
           "bilinear": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
           "trilinear": [[[[0, 0]] * 2] * 2] * 2}
    p = tmp_path / "bad.bol"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="skew"):
        docs.parse_document(str(p), "algebra")


def test_parse_rejects_out_of_range_residue(tmp_path):
    doc = {"field": {"p": 5}, "dim": 1, "bilinear": [[[7]]],
           "trilinear": [[[[0]]]]}
    p = tmp_path / "bad.bol"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="residue"):
        docs.parse_document(str(p), "algebra")


def test_parse_rejects_bad_shape(tmp_path):
    doc = {"field": "Q", "dim": 2, "bilinear": [[[0, 0]]],
           "trilinear": [[[[0, 0]] * 2] * 2] * 2}
    p = tmp_path / "bad.bol"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        docs.parse_document(str(p), "algebra")


def test_parse_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.bol"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        docs.parse_document(str(p), "algebra")


def test_missing_file():
    with pytest.raises(ParseError):
        docs.parse_document("no/such/file.bol", "algebra")


def test_rational_scalars_roundtrip(tmp_path, Q):
    doc = {"field": "Q", "dim": 2,
           "bilinear": [[["0", "0"], ["1/2", "-2/3"]],
                        [["-1/2", "2/3"], ["0", "0"]]],
           "trilinear": [[[["0", "0"]] * 2] * 2] * 2}
    p = tmp_path / "frac.bol"
    p.write_text(json.dumps(doc))
    a = docs.parse_document(str(p), "algebra")
    assert a.bil[0][1][0] == Q.scalar(1) / Q.scalar(2)
    again = docs.algebra_to_doc(a)
    assert again["bilinear"][0][1] == ["1/2", "-2/3"]


def test_nab_doc_with_file_references(tmp_path, F5):
    from bolext.extensions import theta_map, e_h3
    c = theta_map(e_h3(F5))
    doc = docs.nab_to_doc(c)
    (tmp_path / "base.bol").write_text(
        docs.canonical_json(docs.algebra_to_doc(c.base)))
    (tmp_path / "fiber.bol").write_text(
        docs.canonical_json(docs.algebra_to_doc(c.fiber)))
    doc["base"] = "base.bol"
    doc["fiber"] = "fiber.bol"
    p = tmp_path / "c.nab"
    p.write_text(json.dumps(doc))
    c2 = docs.parse_document(str(p), "nab-cocycle")
    assert c2 == c


def test_aut_pair_doc(F5):
    from bolext.exactlin import Matrix
    from bolext.wells import AutPair
    pair = AutPair(Matrix.identity(F5, 2), Matrix.from_int_rows(F5, [[2]]))
    doc = docs.aut_pair_to_doc(pair)
    back = docs.aut_pair_from_doc(doc, F5, 2, 1, "<mem>")
    assert back.alpha == pair.alpha and back.beta == pair.beta


@pytest.mark.parametrize("kind", ["representation", "nab-cocycle"])
def test_parse_rejects_non_alternating_d(tmp_path, kind):
    if kind == "representation":
        doc = json.loads((corpus_dir() / "t1.rep").read_text())
        one = [["1"]]
    else:
        from bolext.exactlin import PrimeField
        from bolext.extensions import e_h3, theta_map
        doc = docs.nab_to_doc(theta_map(e_h3(PrimeField(5))))
        one = [[1]]
    doc["D"][0][1] = doc["D"][1][0] = one
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="D must be alternating"):
        docs.parse_document(str(p), kind)


def _over_q(doc):
    """A GF(5) document over Q: residues as their representatives in
    [-2, 2], so skew entries stay skew."""
    if doc == {"p": 5}:
        return "Q"
    if isinstance(doc, dict):
        return {k: v if k == "dim" else _over_q(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_over_q(v) for v in doc]
    return str(doc if doc <= 2 else doc - 5)


def _bad_scalar_case(name):
    """(kind, CLI argv before the path, GF(5) document, the path to one of
    its scalars that is not the first of its row, the location ParseError
    names)."""
    from bolext.extensions import theta_map
    if name == "algebra":
        doc = json.loads((corpus_dir() / "h3_gf5.bol").read_text())
        return "algebra", ["validate"], doc, ("bilinear", 1, 0, 1), "bilinear[1][0][1]"
    ext = json.loads((corpus_dir() / "e_s2_s2.ext").read_text())
    if name == "extension":
        return ("extension", ["extract-cocycle", "--extension"], ext, ("i", 2, 1),
                "i[2][1]")
    e = docs.parse_document(str(corpus_dir() / "e_s2_s2.ext"), "extension")
    return ("nab-cocycle", ["nab-validate", "--cocycle"], docs.nab_to_doc(theta_map(e)),
            ("omega", 1, 0, 1, 1), "omega[1][0][1][1]")


@pytest.mark.parametrize("name", ["algebra", "extension", "cochain"])
@pytest.mark.parametrize("field, token, message", [
    ("GF(5)", 7, "residue 7 outside [0, 5)"),
    ("Q", "1/0", "Fraction(1, 0)")])
def test_bad_scalar_location_and_exit_code(tmp_path, name, field, token, message):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from bolext.cli import main
    kind, argv, doc, where, loc = _bad_scalar_case(name)
    if field == "Q":
        doc = _over_q(doc)
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = token
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        docs.parse_document(str(p), kind)
    assert str(info.value) == f"{p}: {loc}: {message}"
    assert (info.value.location, info.value.message) == (loc, message)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv + [str(p)]) == 2
    assert err.getvalue() == f"error: {p}: {loc}: {message}\n"


def test_exponent_scalar_in_a_document_exits_2_at_once(tmp_path):
    import io
    import time
    from contextlib import redirect_stderr, redirect_stdout

    from bolext.cli import main
    doc = {"field": "Q", "dim": 1, "bilinear": [[["1e100000000"]]],
           "trilinear": [[[["0"]]]]}
    p = tmp_path / "big.bol"
    p.write_text(json.dumps(doc))
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["validate", str(p)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "bilinear[0][0][0]: exponent forms are not rational scalars" in err.getvalue()
