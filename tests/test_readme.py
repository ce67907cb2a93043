"""The README's Library example runs, and its asserts hold: a change of
the public API must not silently leave the documentation behind."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _library_block() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match is not None, "README's Library section has no python block"
    return match.group(1)


def test_library_example_runs():
    code = _library_block()
    assert code.count("assert ") >= 7
    exec(compile(code, "README.md", "exec"), {})
