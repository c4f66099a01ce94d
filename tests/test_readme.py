"""README's code runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_commented_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = [round(float(v), 4) for v in out.getvalue().split()]
    # Each print line's comment gives its value to four decimals.
    assert printed == [float(v) for v in re.findall(r"# (\d\.\d{4})$", block, re.M)]
    assert printed == [0.2999, 0.2003]
