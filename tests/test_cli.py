import hashlib
import json

import pytest

from planarloops.cli import main
from planarloops import PointedRing, ZA
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
