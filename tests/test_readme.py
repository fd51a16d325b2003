"""The README's library example runs as written and prints what it says."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The code of the first python block under '## Library example'."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the two one-loop one-bar systems, one per pairing of the four nodes
    assert lines[0] == ("-1*G(cc)[TL(0,4){R1-R2,R3-R4} | TL(4,0){L1-L4,L2-L3}] + "
                        "1*G(cc)[TL(0,4){R1-R4,R2-R3} | TL(4,0){L1-L2,L3-L4}]")
    # the nonzero groups of the weight blocks through H_4, then the F2 ranks
    assert lines[1:] == [
        "loops(2n=4, ends=cc, w=1) H_1 = Z",
        "loops(2n=4, ends=cc, w=2) H_2 = Z/2",
        "loops(2n=4, ends=cc, w=3) H_3 = Z/2",
        "loops(2n=4, ends=cc, w=3) H_4 = Z",
        "loops(2n=4, ends=cc, w=4) H_4 = Z/2",
        "[1, 1, 2, 3]",
    ]
