import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bolext import documents as docs
from bolext.bol import validate_bol
from bolext.errors import ParseError, UsageError
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
    for name in ("e_h3.ext", "e_h3_q.ext", "e_s2_s2.ext", "e_z2_z2.ext", "e_z2_s2.ext"):
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


def test_pair_document_kinds_are_unknown(tmp_path):
    # no command reads an automorphism pair or a bare cochain pair
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"alpha": [["1"]], "beta": [["1"]],
                                "nu": [[["0"]]], "omega": [[[["0"]]]]}))
    for kind in ("aut-pair", "cochain-pair"):
        with pytest.raises(UsageError, match=f"unknown document kind '{kind}'"):
            docs.parse_document(str(path), kind)


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


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from bolext.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nested_round_trip_over_random_shapes(data):
    from bolext.exactlin import PrimeField, RATIONALS
    field = data.draw(st.sampled_from([PrimeField(5), PrimeField(7), RATIONALS]))
    shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    size = 1
    for s in shape:
        size *= s
    if field.is_prime_field:
        scalars = st.integers(0, field.p - 1)
    else:
        scalars = st.fractions(max_denominator=12)
    tokens = [field.format_scalar(field.scalar(v))
              for v in data.draw(st.lists(scalars, min_size=size, max_size=size))]

    def nest(flat, dims):
        if len(dims) == 1:
            return flat
        step = len(flat) // dims[0]
        return [nest(flat[k * step:(k + 1) * step], dims[1:]) for k in range(dims[0])]

    doc = nest(tokens, shape)
    t = docs._nested(field, doc, shape, "<mem>", "x")
    assert docs._to_doc(field, t, len(shape)) == doc
    level = t
    for s in shape:
        assert isinstance(level, tuple) and len(level) == s
        level = level[0]


def _s2_s2_cocycle_doc():
    """The cocycle document of the corpus extension e_s2_s2 over GF(5)."""
    from bolext.extensions import theta_map
    e = docs.parse_document(str(corpus_dir() / "e_s2_s2.ext"), "extension")
    return docs.nab_to_doc(theta_map(e))


def _malformed_case(key):
    """(kind, CLI argv before the path, a GF(5) document, the rank of the
    nested array at `key`)."""
    if key in ("bilinear", "trilinear"):
        doc = json.loads((corpus_dir() / "h3_gf5.bol").read_text())
        return "algebra", ["validate"], doc, 3 if key == "bilinear" else 4
    if key in ("i", "p"):
        doc = json.loads((corpus_dir() / "e_s2_s2.ext").read_text())
        return "extension", ["extract-cocycle", "--extension"], doc, 2
    rank = {"nu": 3, "mu": 3, "omega": 4, "theta": 4, "D": 4}[key]
    return "nab-cocycle", ["nab-validate", "--cocycle"], _s2_s2_cocycle_doc(), rank


@pytest.mark.parametrize("how", ["one too many", "not an array"])
@pytest.mark.parametrize("key, depth", [
    (key, depth) for key, rank in [("bilinear", 3), ("trilinear", 4), ("nu", 3),
                                   ("omega", 4), ("mu", 3), ("theta", 4), ("D", 4),
                                   ("i", 2), ("p", 2)]
    for depth in range(rank)])
def test_malformed_array_names_its_depth_and_exits_2(tmp_path, key, depth, how):
    kind, argv, doc, rank = _malformed_case(key)
    parent, slot = doc, key
    for _ in range(depth):
        parent, slot = parent[slot], 0
    target = parent[slot]
    parent[slot] = target + [target[0]] if how == "one too many" else 0
    loc = key + "[0]" * depth
    message = (f"expected an array of {len(target)} "
               f"{'scalars' if depth == rank - 1 else 'arrays'}")
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        docs.parse_document(str(p), kind)
    assert (info.value.location, info.value.message) == (loc, message)
    assert _cli(argv + [str(p)]) == (2, "", f"error: {p}: {loc}: {message}\n")


@pytest.mark.parametrize("name", ["e_h3.ext", "e_s2_s2.ext"])
def test_corpus_roundtrip_extracted_cocycles(tmp_path, name):
    code, text, _ = _cli(["extract-cocycle", "--extension", str(corpus_dir() / name)])
    assert code == 0
    p = tmp_path / "c.nab"
    p.write_text(text)
    c = docs.parse_document(str(p), "nab-cocycle")
    assert docs.canonical_json(docs.nab_to_doc(c)) == text


def _skew_case(key):
    """(kind, GF(5) document with the pair (0, 1) of `key` no longer skew,
    the message ParseError gives)."""
    if key in ("bilinear", "trilinear"):
        doc = json.loads((corpus_dir() / "h3_gf5.bol").read_text())
        kind = "algebra"
    else:
        doc = _s2_s2_cocycle_doc()
        kind = "nab-cocycle"
    entry = doc[key][0][1]
    while isinstance(entry[0], list):
        entry = entry[0]
    entry[0] = (entry[0] + 1) % 5
    return kind, doc, {
        "bilinear": "bilinear entries must be skew: b[i][j] = -b[j][i]",
        "trilinear": "trilinear entries must be skew in the first two slots",
        "nu": "nu must be skew: nu[i][j] = -nu[j][i]",
        "omega": "omega must be skew in the first two slots",
        "D": "D must be alternating"}[key]


@pytest.mark.parametrize("key", ["bilinear", "trilinear", "nu", "omega", "D"])
def test_skew_violation_names_its_pair(tmp_path, key):
    kind, doc, message = _skew_case(key)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        docs.parse_document(str(p), kind)
    assert (info.value.location, info.value.message) == (f"{key}[0][1]", message)


_ZERO_ALGEBRA = {"field": {"p": 5}, "dim": 1, "bilinear": [[[0]]], "trilinear": [[[[0]]]]}


@pytest.mark.parametrize("change, loc, message", [
    ({"dim": True}, "dim", "dimension must be a positive integer"),
    ({"dim": False}, "dim", "dimension must be a positive integer"),
    ({"dim": 1.0}, "dim", "dimension must be a positive integer"),
    ({"field": {"p": True}}, "field", 'field must be "Q" or {"p": <prime>}')])
def test_boolean_dimension_or_modulus_exits_2(tmp_path, change, loc, message):
    p = tmp_path / "bad.bol"
    p.write_text(json.dumps({**_ZERO_ALGEBRA, **change}))
    with pytest.raises(ParseError) as info:
        docs.parse_document(str(p), "algebra")
    assert (info.value.location, info.value.message) == (loc, message)
    assert _cli(["validate", str(p)]) == (2, "", f"error: {p}: {loc}: {message}\n")


@pytest.mark.parametrize("key", ["algebra_dim", "module_dim"])
@pytest.mark.parametrize("value", [True, 0, "1"])
def test_bad_representation_dimension_names_its_key(tmp_path, key, value):
    doc = json.loads((corpus_dir() / "t1_dim1_gf5.rep").read_text())
    doc[key] = value
    p = tmp_path / "bad.rep"
    p.write_text(json.dumps(doc))
    message = "dimension must be a positive integer"
    with pytest.raises(ParseError) as info:
        docs.parse_document(str(p), "representation")
    assert (info.value.location, info.value.message) == (key, message)
    argv = ["validate-rep", "--algebra", str(corpus_dir() / "z1_gf5.bol"), "--rep", str(p)]
    assert _cli(argv) == (2, "", f"error: {p}: {key}: {message}\n")
