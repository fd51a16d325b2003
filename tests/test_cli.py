import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planarloops.cli as cli_module
import planarloops.loops as loops_module
from planarloops.cli import main
from planarloops import PointedRing, ZA
from planarloops.diagram import catalan
from planarloops.loops import Chain
from planarloops.render import (ascii_chain, ascii_graffito, layout_graffito,
                                svg_graffito)

from conftest import DEG3_EXAMPLE, PHI_X, PHI_XH

PHI_X_TEXT = "G(cc)[TL(0,4){R1-R2,R3-R4} | TL(4,0){L1-L4,L2-L3}]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enum_counts(capsys):
    code, out, _ = run(capsys, "enum", "diagrams", "--n", "4", "--m", "4", "--count")
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, "enum", "letters", "--kl", "2", "--kr", "2", "--count")
    assert code == 0 and out.strip() == "9"
    code, out, _ = run(capsys, "enum", "graffiti", "--degree", "1",
                       "--weight", "1", "--dividers", "0", "--count")
    assert code == 0 and out.strip() == "2"


def test_enum_listing_json(capsys):
    code, out, _ = run(capsys, "--json", "enum", "graffiti", "--degree", "1")
    assert code == 0
    items = json.loads(out)
    assert len(items) == 4 and items == sorted(items)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enum", "nonsense"])
    assert exc.value.code == 2


def test_closed_pipe_ends_quietly():
    # the reader stops after one line, as `| head -1` does; the listing
    # (about 200 kB) outgrows the pipe's buffer, so the writer meets the
    # closed pipe while it still has lines to print
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "planarloops.cli", "enum", "graffiti",
                             "--degree", "3", "--ends", "oo"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"G(oo)[")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli_module.CLOSED_PIPE
    assert not err, err.decode()  # no traceback, nor anything else


def test_lone_letter_end_flag_is_a_usage_error(capsys):
    # --kl and --kr name one letter kind together; one alone is refused
    for flag in ("--kl", "--kr"):
        code, out, err = run(capsys, "enum", "letters", flag, "2", "--count")
        assert code == 2 and not out and err.startswith("error: "), flag


def test_diagram_count_lists_nothing(capsys, monkeypatch):
    def refuse(n, m):
        raise AssertionError("--count listed the diagrams")

    monkeypatch.setattr(cli_module, "enumerate_diagrams", refuse)
    code, out, _ = run(capsys, "enum", "diagrams", "--n", "40", "--m", "0", "--count")
    assert code == 0 and out.strip() == str(catalan(20)) == "6564120420"
    for n, m in (("3", "0"), ("-2", "0"), ("0", "-1")):
        code, out, err = run(capsys, "enum", "diagrams", "--n", n, "--m", m, "--count")
        assert code == 2 and not out and err.startswith("error: "), (n, m)


def test_filters_on_an_unfiltered_complex_are_a_usage_error(capsys):
    # only the subquotient and open complexes take a weight or divider filter
    for name in ("reduced-loops", "augmented-loops", "model", "word"):
        for flag, value in (("--w", "2"), ("--j", "0")):
            code, out, err = run(capsys, "homology", "--complex", name, "--two-n", "6",
                                 flag, value, "--max-degree", "3")
            assert (code, out) == (2, "") and "takes no --w or --j" in err, (name, flag)



def test_a_table_past_the_block_bound_is_refused_before_any_build(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a block was built")
    monkeypatch.setattr(loops_module, "build_complex", refuse)
    code, out, err = run(capsys, "homology", "--complex", "reduced-loops",
                         "--two-n", "6", "--max-degree", "6")
    assert (code, out) == (2, "") and "block of 2n = 6 through degree 6" in err, err
    # at a = 1 there are no weight blocks: the whole build is refused before any walk
    monkeypatch.setattr(loops_module._ClassTree, "words", refuse)
    code, out, err = run(capsys, "homology", "--complex", "reduced-loops",
                         "--two-n", "6", "--a", "1", "--max-degree", "6")
    assert (code, out) == (2, "") and "whole complex of 2n = 6 through degree 6" in err, err


def test_verify_refuses_fewer_than_one_sample(capsys):
    for samples in ("0", "-3"):
        code, out, err = run(capsys, "verify", "leibniz", "--samples", samples)
        assert code == 2 and not out and "samples must be at least 1" in err


def test_verify_max_degree_below_a_suites_minimum_is_a_usage_error(capsys):
    for suite, low in (("main-technical", "3"), ("main-technical", "1"),
                       ("pivot-properties", "2"), ("d-squared", "1"),
                       ("letters", "0"), ("filtration-properties", "-1")):
        code, out, err = run(capsys, "verify", suite, "--max-degree", low)
        assert code == 2 and not out and "needs max_degree at least" in err, suite
    code, out, err = run(capsys, "verify", "leibniz", "--max-degree", "3")
    assert code == 2 and not out and "takes no max_degree" in err


def test_verify_rings_are_usage_errors_for_every_suite(capsys):
    """An unknown ring, rings for a suite that takes none, and Z[a] for a
    suite that computes homology all exit 2 before any check runs."""
    for argv, message in (
            (("psi-chain-map", "--rings", "bogus"), "unknown ring 'bogus'"),
            (("main-technical", "--rings", "bogus"), "unknown ring 'bogus'"),
            (("slicing", "--rings", "z"), "suite slicing takes no rings"),
            (("main-technical", "--rings", "za"), "not over za"),
            (("model-vs-complex", "--rings", "za"), "not over za")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and not out and message in err, argv


def test_homology_below_degree_2_is_a_usage_error(capsys):
    """H_p needs d_{p+1}, and the table starts at H_1, so --max-degree 0 or
    1 would print the header alone."""
    for top in ("0", "1"):
        code, out, err = run(capsys, "homology", "--complex", "reduced-loops",
                             "--max-degree", top)
        assert code == 2 and not out and "H_p needs d_{p+1}" in err, top


def test_zero_denominator_is_a_usage_error(capsys):
    code, out, err = run(capsys, "export", "--target", "chain", "--ring", "q",
                         "1/0*" + PHI_X_TEXT)
    assert code == 2 and not out and "zero denominator" in err


def test_homology_subquotient(capsys):
    code, out, _ = run(capsys, "--json", "homology", "--complex", "subquotient",
                       "--w", "2", "--j", "0", "--ring", "z", "--max-degree", "5")
    assert code == 0
    table = json.loads(out)["groups"]
    ranks = {row["degree"]: (row["rank"], row["torsion"]) for row in table}
    assert ranks == {1: (0, []), 2: (0, []), 3: (1, []), 4: (0, [])}


def test_homology_reduced_loops_tables(capsys):
    # one integer reduction per weight block, read over each ring
    want = {"z": ("(Z, a=0)", [(1, []), (0, [2]), (0, [2])]),
            "q": ("(Q, a=0)", [(1, []), (0, []), (0, [])]),
            "f2": ("(F2, a=0 mod 2)", [(1, []), (1, []), (2, [])])}
    for code, (ring, rows) in want.items():
        code_, out, err = run(capsys, "--json", "homology", "--complex",
                              "reduced-loops", "--ring", code, "--max-degree", "4")
        assert code_ == 0 and not err
        assert json.loads(out) == {
            "complex": "loops(2n=4, ends=cc)", "ring": ring,
            "groups": [{"degree": p, "rank": rk, "torsion": tors, "basis_size": n}
                       for p, (rk, tors), n in zip((1, 2, 3), rows, (4, 52, 676))]}
    code_, out, err = run(capsys, "homology", "--complex", "reduced-loops",
                          "--ring", "z", "--max-degree", "4")
    assert code_ == 0 and not err and "  H_1 = R   (basis 4)" in out
    # a group of rank 0 prints its torsion alone
    assert "  H_2 = Z/2   (basis 52)" in out


def test_homology_model(capsys):
    code, out, _ = run(capsys, "--json", "homology", "--complex", "model",
                       "--two-n", "4", "--ring", "q", "--max-degree", "5")
    assert code == 0
    ranks = [row["rank"] for row in json.loads(out)["groups"]]
    assert ranks == [1, 0, 0, 1]


_WORD_PLAIN = ("  H_1 = R   (basis 4)\n  H_2 = 0   (basis 16)\n"
               "  H_3 = 0   (basis 64)\n  H_4 = 0   (basis 256)\n")
_WORD_JSON = (
    '{"complex": "words on 4 letters", "ring": "%s", "groups": ['
    '{"degree": 1, "rank": 1, "torsion": [], "basis_size": 4}, '
    '{"degree": 2, "rank": 0, "torsion": [], "basis_size": 16}, '
    '{"degree": 3, "rank": 0, "torsion": [], "basis_size": 64}, '
    '{"degree": 4, "rank": 0, "torsion": [], "basis_size": 256}]}\n')


@pytest.mark.parametrize("ring,a,label", [
    ("z", "0", "(Z, a=0)"), ("q", "0", "(Q, a=0)"),
    ("f2", "0", "(F2, a=0 mod 2)"), ("z", "2", "(Z, a=2)")])
def test_homology_word_complex_bytes_are_pinned(capsys, ring, a, label):
    argv = ("homology", "--complex", "word", "--ring", ring, "--a", a)
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert out == f"homology of words on 4 letters over {label}\n" + _WORD_PLAIN
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0 and not err and out == _WORD_JSON % label


def test_homology_word_complex_refuses_an_empty_alphabet(capsys):
    code, out, err = run(capsys, "homology", "--complex", "word",
                         "--alphabet", "0")
    assert code == 2 and not out
    assert err == "error: alphabet_size must be >= 1\n"


def test_homology_rejects_polynomial_ring(capsys):
    code, _, err = run(capsys, "homology", "--complex", "model", "--ring", "za")
    assert code == 2 and "specialization" in err


def test_homology_missing_filters(capsys):
    code, _, err = run(capsys, "homology", "--complex", "subquotient",
                       "--ring", "z")
    assert code == 2


def test_shapes_and_degrees_no_complex_has_are_usage_errors(capsys):
    for argv in (("enum", "graffiti", "--two-n", "6", "--ends", "oo", "--count"),
                 ("enum", "graffiti", "--two-n", "6", "--ends", "oo"),
                 ("enum", "graffiti", "--degree", "-2", "--count"),
                 ("homology", "--complex", "model", "--max-degree", "-1"),
                 ("homology", "--complex", "word", "--max-degree", "-1"),
                 ("homology", "--complex", "reduced-loops", "--max-degree", "-2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.startswith("error: "), argv


def test_verify_pass_and_unknown(capsys):
    code, out, _ = run(capsys, "verify", "alpha-boundary")
    assert code == 0 and "[PASS] suite alpha-boundary" in out
    code, _, err = run(capsys, "verify", "definitely-not-a-suite")
    assert code == 2 and "unknown suite" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "--json", "verify", "letters", "--max-degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "letters" and payload["ok"]
    assert all({"name", "ok", "detail", "seconds"} <= set(c) for c in payload["checks"])
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)


def test_export_determinism(capsys, tmp_path):
    code, out1, _ = run(capsys, "export", "--target", "graffito",
                        "--format", "ascii", PHI_X_TEXT)
    assert code == 0
    code, out2, _ = run(capsys, "export", "--target", "graffito",
                        "--format", "ascii", PHI_X_TEXT)
    assert out1 == out2
    path = tmp_path / "out.svg"
    code, _, _ = run(capsys, "export", "--target", "graffito", "--format", "svg",
                     "--out", str(path), PHI_X_TEXT)
    assert code == 0 and path.read_text().startswith("<svg")


def test_export_parse_error(capsys):
    code, _, err = run(capsys, "export", "--target", "diagram",
                       "--format", "ascii", "TL(2,2){L1-R1}")
    assert code == 2 and "error" in err


def test_export_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    # exit 1 is a failed verification; a file that cannot be opened is exit 2
    for path in (tmp_path / "missing" / "x.txt", tmp_path):
        code, out, err = run(capsys, "export", "--target", "diagram",
                             "--out", str(path), "TL(2,2){L1-R1,L2-R2}")
        assert (code, out) == (2, "") and err.startswith("error: "), err
        assert str(path) in err
    assert list(tmp_path.iterdir()) == []


def test_export_of_an_open_empty_system_is_a_usage_error(capsys):
    for code in ("oo", "oc", "co"):
        out_code, out, err = run(capsys, "export", "--target", "graffito",
                                 f"G({code})[TL(0,0){{}}]")
        assert out_code == 2 and not out and "the empty system has closed ends" in err
    out_code, out, _ = run(capsys, "export", "--target", "graffito", "G(cc)[TL(0,0){}]")
    assert out_code == 0 and out.strip() == "(empty)"


def test_render_structure():
    lay = layout_graffito(PHI_X)
    assert lay.bars == 1 and lay.nodes_per_bar == 4
    assert len(lay.left_arcs) == 2 and len(lay.right_arcs) == 2
    assert not lay.through and not lay.stubs
    svg = svg_graffito(PHI_X)
    assert svg.count("<path") == lay.arc_count()
    assert svg.count("<circle") == 4
    lay3 = layout_graffito(DEG3_EXAMPLE)
    assert lay3.bars == 3
    assert svg_graffito(DEG3_EXAMPLE).count("<line") == 3
    art = ascii_graffito(DEG3_EXAMPLE)
    assert art.count("o") == 12


def test_render_chain_shares_structure():
    ring = PointedRing.make(ZA)
    chain = Chain.of(ring, PHI_X) - Chain.of(ring, PHI_XH)
    art = ascii_chain(chain)
    assert art.count("o") == 8
    from planarloops.render import svg_chain
    assert svg_chain(chain).count("<svg") == 2


def test_export_open_graffito(capsys):
    from planarloops import enumerate_graffiti
    g = enumerate_graffiti(1, ends="oo")[0]
    code, out, _ = run(capsys, "export", "--target", "graffito",
                       "--format", "svg", g.encode())
    assert code == 0 and out.count("stroke-dasharray") == 4


_B0, _B3 = "TL(0,4){R1-R2,R3-R4}", "TL(4,0){L1-L2,L3-L4}"
_R_TEXT = f"G(cc)[{_B0} | TL(4,4){{L1-R1,L2-L3,L4-R4,R2-R3}} | {_B3}]"
_CUP_TEXT = f"G(cc)[{_B0} | TL(4,4){{L1-L4,L2-L3,R1-R4,R2-R3}} | {_B3}]"
_Y_TEXT = " + ".join(f"{c}*G(cc)[{_B0} | {f} | {g} | {_B3}]" for c, f, g in [
    ("-1", "TL(4,4){L1-R1,L2-L3,L4-R2,R3-R4}", "TL(4,4){L1-L2,L3-R1,L4-R4,R2-R3}"),
    ("1", "TL(4,4){L1-R1,L2-L3,L4-R2,R3-R4}", "TL(4,4){L1-R1,L2-R4,L3-L4,R2-R3}"),
    ("1", "TL(4,4){L1-R3,L2-L3,L4-R4,R1-R2}", "TL(4,4){L1-L2,L3-R1,L4-R4,R2-R3}"),
    ("-1", "TL(4,4){L1-R3,L2-L3,L4-R4,R1-R2}", "TL(4,4){L1-R1,L2-R4,L3-L4,R2-R3}")])

# sha256 of the exported bytes: the four-term cycle over Z, a chain with a
# bracketed Z[a] coefficient, and a repeated term summed over F3
_CHAIN_EXPORTS = {
    ("z", _Y_TEXT): (
        "116a5f55142c85cdb257e4126d344fefc359545bec48cf45bb18389126583d5a",
        "82b7ccbf91ed0f6efa65066f6c7e22c2c82c0b7c5942633db955f3c94f500a3f"),
    ("za", f"(1+a)*{_R_TEXT} + -2a*{_CUP_TEXT}"): (
        "50dbe8111c55f03d3d611d54a3c9198d3a8028eaeec08b76d04857c6a0e699ba",
        "f082e8b2245d7c3e9b10abb86395d95bb4327f310c9b3b592ddbb1e37ecb0ffb"),
    ("f3", f"2*{PHI_X_TEXT} + 2*{PHI_X_TEXT}"): (
        "58769e44ac1fd8d8eaa6bd025deecc462c95b891cff2092bf2ebd1d661ec0d43",
        "1966f77477ec7cb407de5eb1c7124bec784b3b842ecea5a5293e0fa7e60b09fe"),
}


@pytest.mark.parametrize("ring,text", list(_CHAIN_EXPORTS),
                         ids=[ring for ring, _ in _CHAIN_EXPORTS])
def test_export_chain_bytes_are_pinned(capsys, ring, text):
    for fmt, want in zip(("ascii", "svg"), _CHAIN_EXPORTS[ring, text]):
        code, out, err = run(capsys, "export", "--target", "chain",
                             "--format", fmt, "--ring", ring, text)
        assert code == 0 and not err
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt
