"""The README's Library example runs, its asserts hold, its module map
names only what exists, and its command-line examples print what it
shows: a change of the public API must not silently leave the
documentation behind."""

import contextlib
import importlib
import io
import json
import os
import re
import shlex

import pytest

from igusa.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _library_block() -> str:
    section = _readme().split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match is not None, "README's Library section has no python block"
    return match.group(1)


def test_library_example_runs():
    code = _library_block()
    assert code.count("assert ") >= 7
    exec(compile(code, "README.md", "exec"), {})


# backticked words in the module map that name CLI commands, not attributes
CLI_COMMANDS = {"igusa", "igusa count", "verify"}


def test_module_map_names_exist():
    rows = re.findall(r"^\| `(\w+)` *\| (.*) \|$", _readme(), re.M)
    assert len(rows) >= 10, "README's module map not found"
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(f"igusa.{module_name}")
        classes = [v for v in vars(module).values() if isinstance(v, type)]
        for token in re.findall(r"`([^`]+)`", contents):
            # a name, or a call such as `denominator(f, g)`; `(A, B)` is neither
            match = re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", token)
            if token in CLI_COMMANDS or match is None:
                continue
            name = match.group(1)
            if not hasattr(module, name) and not any(hasattr(c, name) for c in classes):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def _cli_blocks():
    """(argv, shown output) of each ```-fenced `$ igusa ...` example."""
    section = _readme().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = []
    for body in re.findall(r"^```\n(.*?)^```$", section, re.S | re.M):
        command, _, shown = body.partition("\n")
        if command.startswith("$ igusa "):
            argv = shlex.split(command)[2:]
            blocks.append(pytest.param(argv, shown, id=" ".join(argv)))
    return blocks


CLI_BLOCKS = _cli_blocks()


def test_cli_examples_found():
    assert len(CLI_BLOCKS) >= 5


@pytest.mark.parametrize("argv,shown", CLI_BLOCKS)
def test_cli_example_output(argv, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    if "--tsv" in argv:
        assert out.getvalue() == shown
        return
    # the JSON is compared as values (the README compacts some lists); a
    # block with an elided "..." line shows some of the keys
    lines = shown.splitlines()
    payload = json.loads("\n".join(line for line in lines if line.strip() != "..."))
    actual = json.loads(out.getvalue())
    if any(line.strip() == "..." for line in lines):
        actual = {key: actual[key] for key in payload}
    assert actual == payload
