"""README's code runs as written and prints what its comments say, and its
config key table is the CLI's."""

import contextlib
import io
import re
from pathlib import Path

from monoscheme import cli

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


def readme_keys():
    """kind -> section -> key -> the default README's key table gives it:
    "required", a number, or the text of a default the library works out."""
    text = README.read_text(encoding="utf-8")
    rows = re.search(r"^\| kind \| section \| keys \(default\) \|\n\|[- |]+\n((?:\|.*\n)+)",
                     text, re.M).group(1)
    table, kind = {}, None
    for row in rows.splitlines():
        kind_cell, section_cell, keys_cell = (cell.strip() for cell in row.strip("|").split("|"))
        kind = kind_cell.strip("`") or kind
        section = re.fullmatch(r"`\[(\w+)\]`", section_cell).group(1)
        entries = table.setdefault(kind, {}).setdefault(section, {})
        groups = re.findall(r"((?:`\w+` )+)\(([^)]*)\)", keys_cell)
        for names, default in groups:
            entries.update((name, default.split(",")[0]) for name in re.findall(r"`(\w+)`", names))
        # Every key the cell names stands in a group before a default.
        assert set(re.findall(r"`(\w+)`", keys_cell)) == set(entries), row
    return table


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def test_key_table_matches_cli_keys():
    """README's table names each kind, section and key of cli.KEYS, and no
    other, with its required flag and numeric default; a default that KEYS
    leaves to the library (None) is given as text, not as a number."""
    readme = readme_keys()
    assert readme.keys() == cli.KEYS.keys()
    for kind, sections in cli.KEYS.items():
        assert readme[kind].keys() == sections.keys(), kind
        for section, keys in sections.items():
            assert readme[kind][section].keys() == keys.keys(), (kind, section)
            for key, (_, default) in keys.items():
                given = readme[kind][section][key]
                where = f"{kind} [{section}] {key}: README gives {given!r}"
                if default is cli._REQUIRED:
                    assert given == "required", where
                elif default is None:
                    assert given != "required" and _number(given) is None, where
                else:
                    assert _number(given) == default, where
