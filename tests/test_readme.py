"""Run the README's examples: the ``skacap`` commands and the library block."""

import importlib
import json
import pathlib
import shlex
import subprocess
import sys

import jsonschema
import pytest
from conftest import child_env, run_skacap

import skacap
from skacap.prob import binary_entropy

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src" / "skacap" / "report.schema.json").read_text())


def readme_commands() -> list[list[str]]:
    """argv of every ``skacap`` command in the bash block that holds them."""
    text = (ROOT / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in text.split("```bash\n")[1:]]
    (block,) = [b for b in blocks if "\nskacap " in "\n" + b]
    commands, pending = [], ""
    for line in block.splitlines():
        if pending:
            line = pending + " " + line.strip()
            pending = ""
        if line.endswith("\\"):
            pending = line[:-1].strip()
            continue
        if line.startswith("skacap "):
            commands.append(shlex.split(line)[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_lists_every_verb():
    assert {argv[0] for argv in COMMANDS} == {
        "capacity", "bounds", "polytree", "simulate", "validate"
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:2]) for a in COMMANDS])
def test_readme_command(argv, tmp_path):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg.startswith("sample_models/"):
            argv[i] = str(ROOT / arg)
        elif i and argv[i - 1] == "--csv":
            argv[i] = str(tmp_path / arg)
    proc = run_skacap(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["command"] == argv[0]
    if "--wiretap" in argv:
        assert doc["result"]["lower"]["value"] == 0.455823111384
        assert doc["result"]["upper"]["value"] == 0.455823111384
    if "--csv" in argv:
        assert pathlib.Path(argv[argv.index("--csv") + 1]).is_file()


def test_readme_library_example():
    text = (ROOT / "README.md").read_text()
    (block,) = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    printed = [float(line) for line in proc.stdout.split()]
    assert printed == pytest.approx([1 - binary_entropy(0.2)] * 2, abs=1e-9)


def test_readme_library_section_lists_the_public_names():
    # each bullet is "- `module`: `name`, ..."; the names, in order, are
    # skacap.__all__, and each is the package's re-export of the module's
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in section.splitlines():
        if line.startswith("- `"):
            module, names = line[2:].split(":", 1)
            module = importlib.import_module("skacap." + module.strip("`"))
            for name in names.split(","):
                name = name.strip().strip("`")
                assert getattr(skacap, name) is getattr(module, name)
                listed.append(name)
    assert skacap.__all__ == listed
