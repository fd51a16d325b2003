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
