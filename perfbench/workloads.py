"""The benchmark's workloads: inputs, the driver calls, and output checks.

Every operation goes through bolext's public surface: `bolext.cli.main` run
in-process with stdout captured, or a public API function.  Each operation
checks its exit code, the sha256 of its stdout against the digest recorded in
`expected.json`, and, where the corpus manifest gives them, reference values
parsed from the output.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))

HEAVY = ("exactness-h3", "classify-z2", "census-21")
NAMES = HEAVY + ("corpus-mix",)

# corpus-mix: (label, argv); "{c}" is the corpus directory, "{nab}" the cocycle
# document extracted from e_h3.ext during set-up
MIX = [
    ("validate s2", ["validate", "{c}/s2.bol"]),
    ("validate h3_gf5", ["validate", "{c}/h3_gf5.bol"]),
    ("validate h3", ["validate", "{c}/h3.bol"]),
    ("validate-rep s2 r_s2", ["validate-rep", "--algebra", "{c}/s2.bol",
                              "--rep", "{c}/r_s2.rep"]),
    ("semidirect s2 r_s2", ["semidirect", "--algebra", "{c}/s2.bol",
                            "--rep", "{c}/r_s2.rep"]),
    ("cohomology z2 t1", ["cohomology", "--algebra", "{c}/z2.bol",
                          "--rep", "{c}/t1.rep"]),
    ("cohomology s2 t1 reps", ["cohomology", "--algebra", "{c}/s2.bol",
                               "--rep", "{c}/t1.rep", "--representatives"]),
    ("nab-validate", ["nab-validate", "--cocycle", "{nab}"]),
    ("build-extension", ["build-extension", "--cocycle", "{nab}"]),
    ("extract-cocycle e_h3", ["extract-cocycle", "--extension", "{c}/e_h3.ext"]),
    ("equiv-cocycles", ["equiv-cocycles", "--c1", "{nab}", "--c2", "{nab}"]),
    ("inducible e_h3 diag(2,1) 2", ["inducible", "--extension", "{c}/e_h3.ext",
                                    "--alpha", "diag(2,1)", "--beta", "2"]),
    ("inducible e_h3 id 2", ["inducible", "--extension", "{c}/e_h3.ext",
                             "--alpha", "id", "--beta", "2"]),
    ("wells e_h3 diag(2,1) 2", ["wells", "--extension", "{c}/e_h3.ext",
                                "--alpha", "diag(2,1)", "--beta", "2"]),
    ("lift e_h3 diag(2,1) 2", ["lift", "--extension", "{c}/e_h3.ext",
                               "--alpha", "diag(2,1)", "--beta", "2"]),
    ("enumerate automorphisms s2_gf5", ["enumerate", "--kind", "automorphisms",
                                        "--algebra", "{c}/s2_gf5.bol"]),
    ("enumerate algebras gf5 dim2", ["enumerate", "--kind", "algebras",
                                     "--field", "5", "--dim", "2", "--tri-zero"]),
    ("extract-cocycle e_h3_q", ["extract-cocycle", "--extension",
                                "{c}/e_h3_q.ext"]),
    ("inducible e_h3_q diag(2,1) 2", ["inducible", "--extension",
                                      "{c}/e_h3_q.ext", "--alpha", "diag(2,1)",
                                      "--beta", "2"]),
    ("wells e_h3_q diag(2,1) 2", ["wells", "--extension", "{c}/e_h3_q.ext",
                                  "--alpha", "diag(2,1)", "--beta", "2"]),
    ("equiv-extensions e_h3_q", ["equiv-extensions", "--e1", "{c}/e_h3_q.ext",
                                 "--e2", "{c}/e_h3_q.ext"]),
]

DOC_KINDS = {".bol": "algebra", ".ext": "extension"}

HEAVY_ARGV = {
    "exactness-h3": ["exactness", "--extension", "{c}/e_h3.ext"],
    "classify-z2": ["classify", "--base", "{c}/z2_gf5.bol",
                    "--fiber", "{c}/z1_gf5.bol"],
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _line_value(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


class Op:
    """One driver call with its expected exit code, digest and values."""

    def __init__(self, label, call, expected, checks=()):
        self.label = label
        self.call = call              # () -> (exit code, stdout text)
        self.rc = expected["rc"]
        self.digest = expected["sha256"]
        self.checks = checks          # (stdout text) -> list of problems

    def problems(self, rc, text):
        found = []
        if rc != self.rc:
            found.append(f"exit code {rc}, expected {self.rc}")
        if sha256(text) != self.digest:
            found.append(f"stdout sha256 {sha256(text)[:16]}..., "
                         f"expected {self.digest[:16]}...")
        for check in self.checks:
            found += check(text)
        return found


def _cli_call(cli, argv):
    # look `main` up on each call, so that a traced run sees its wrapper
    def call():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.getvalue()
    return call


def _expect_equal(what, got, want):
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _check_exactness(ref, pairs_total):
    def check(text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return ["exactness report is not JSON"]
        card = doc.get("cardinalities", {})
        found = []
        for key, want in ref.items():
            found += _expect_equal(key, card.get(key), want)
        found += _expect_equal("pairs_total", card.get("pairs_total"), pairs_total)
        verdicts = doc.get("verdicts", {})
        found += _expect_equal("verdicts", sorted(verdicts.values()), [True] * 5)
        return found
    return check


def _check_lines(*expected):
    def check(text):
        found = []
        for prefix, want in expected:
            found += _expect_equal(prefix.rstrip(": "), _line_value(text, prefix),
                                   want)
        return found
    return check


def _check_cohomology(ref):
    want = f"z={ref['z']} b={ref['b']} h={ref['h']}"
    def check(text):
        got = [line for line in text.splitlines() if line.startswith("z=")]
        return _expect_equal("cohomology", got, [want])
    return check


class Workload:
    """The operations of one workload and the order the seed gives them.

    A block is one unit of work: the single driver call of a heavy workload,
    or one seeded permutation of every corpus-mix command.
    """

    def __init__(self, name, seed, ops, min_ops):
        self.name = name
        self.seed = seed
        self.ops = ops
        self.min_ops = min_ops
        self._rng = random.Random(seed)

    @property
    def is_mix(self):
        return len(self.ops) > 1

    def next_block(self):
        return self._rng.sample(self.ops, len(self.ops))

    def fingerprint(self):
        """Identifies the inputs: the operations, and the seed where it orders
        them (corpus-mix); the heavy workloads' inputs do not depend on it."""
        seed = self.seed if self.is_mix else None
        return sha256(json.dumps([seed] + [[o.label, o.digest] for o in self.ops]))


def setup(name, seed, corpus, workdir):
    """Import bolext, read the references and build the workload's inputs."""
    from bolext import cli
    from bolext import documents as docs

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    ref = manifest["reference"]

    def argv_of(template, nab=None):
        return [a.format(c=corpus, nab=nab) for a in template]

    if name == "census-21":
        from bolext import representation
        from bolext.exactlin import PrimeField
        field = PrimeField(5)

        def call():
            res = representation.semidirect_iff_census(field, 2, 1)
            return 0, json.dumps({"algebras": res.algebras,
                                  "candidates_per_algebra": res.candidates_per_algebra,
                                  "valid_pairs": res.valid_pairs,
                                  "discrepancies": res.discrepancies},
                                 sort_keys=True) + "\n"

        def check(text):
            got = json.loads(text)
            return [problem for key, want in expected["values"].items()
                    for problem in _expect_equal(key, got[key], want)]

        return Workload(name, seed, [Op(name, call, expected, (check,))], 1)

    if name in HEAVY_ARGV:
        argv = argv_of(HEAVY_ARGV[name])
        for path in argv:
            kind = DOC_KINDS.get(os.path.splitext(path)[1])
            if kind:
                docs.parse_document(path, kind)
        if name == "exactness-h3":
            card = ref["exactness"]["e_h3.ext"]
            checks = (_check_exactness(card, ref["inducibility"]["e_h3.ext"]
                                       ["pairs_total"]),)
        else:
            cls = ref["classification"]["z2_gf5_by_zero_dim1"]
            checks = (_check_lines(("valid-cocycles:", str(cls["valid_cocycles"])),
                                   ("classes:", str(cls["classes"]))),)
        return Workload(name, seed, [Op(name, _cli_call(cli, argv),
                                        expected, checks)], 1)

    if name != "corpus-mix":
        raise ValueError(f"unknown workload {name!r}")
    rc, nab_text = _cli_call(cli, argv_of(["extract-cocycle", "--extension",
                                           "{c}/e_h3.ext"]))()
    if rc != 0:
        raise RuntimeError("extract-cocycle failed during set-up")
    nab = os.path.join(workdir, "e_h3.nab")
    with open(nab, "w", encoding="utf-8") as fh:
        fh.write(nab_text)
    docs.parse_document(nab, "nab-cocycle")

    def verdict(kind, doc):
        section = "algebras" if kind == "algebra" else "representations"
        return (_check_lines((f"{kind}:", manifest[section][doc]["validate"])),)

    special = {
        "validate s2": verdict("algebra", "s2.bol"),
        "validate h3_gf5": verdict("algebra", "h3_gf5.bol"),
        "validate h3": verdict("algebra", "h3.bol"),
        "validate-rep s2 r_s2": verdict("representation", "r_s2.rep"),
        "cohomology z2 t1": (_check_cohomology(ref["cohomology"]["z2.bol+t1.rep"]),),
        "cohomology s2 t1 reps": (_check_cohomology(ref["cohomology"]["s2.bol+t1.rep"]),),
        "enumerate automorphisms s2_gf5": (_check_lines(
            ("count:", str(ref["automorphism_counts"]["s2_gf5.bol"]))),),
        "enumerate algebras gf5 dim2": (_check_lines(
            ("count:", str(ref["algebra_counts"]["gf5_dim2_tri_zero"]))),),
    }
    ops = [Op(label, _cli_call(cli, argv_of(template, nab)), expected[label],
              special.get(label, ()))
           for label, template in MIX]
    return Workload(name, seed, ops, 1000)

