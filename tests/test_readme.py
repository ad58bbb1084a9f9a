"""The README's code examples run and print what their comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)


def test_readme_has_the_two_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block, check", [
    (0, lambda out: float(out) == pytest.approx(0.11237243572838501, abs=1e-6)),
    (1, lambda out: out == "3"),
], ids=["library quick start", "exact-rational route"])
def test_python_block_prints_its_commented_value(capsys, block, check):
    exec(compile(BLOCKS[block], f"README.md python block {block + 1}", "exec"), {})
    out = capsys.readouterr().out.strip()
    assert check(out), out
