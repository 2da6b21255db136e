"""The README's library example runs as written, so a renamed or deleted
public name cannot silently break the documented API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_has_a_python_example():
    assert len(python_blocks()) == 1


def test_readme_python_example_runs():
    for block in python_blocks():
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
