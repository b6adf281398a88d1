"""Table 3: implementation code size by component.

The paper reports semicolon-line counts for Determinator (14,492 total);
this regenerates the analogous per-component source-line table for the
reproduction.
"""

from repro.bench.codesize import table3


def test_table3_code_size():
    text, sizes = table3()
    print()
    print("Table 3 (reproduction analogue):")
    print(text)
    assert sizes["Total"] > 3000
    assert sizes["Kernel core"] > 0
    assert sizes["User-level runtime"] > 0
