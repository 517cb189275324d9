"""README states what a user relies on: its flags are the parser's, its
Configuration block is the default config, its Artifacts block names
every file a run writes, and every dyadreg name it cites exists. The Python
floor it and pyproject.toml state is the grammar of every source file."""

import argparse
import ast
import importlib
import json
import re
from pathlib import Path

import dyadreg
from dyadreg.cli import build_parser
from dyadreg.config import ExperimentConfig
from dyadreg.harness import run_experiment

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = sorted({p.stem for p in Path(dyadreg.__file__).parent.glob("*.py")} - {"__init__"})
# A backticked `config.json` or `agents.py` names a file, not a module's name.
FILE_SUFFIXES = {"py", "json", "csv", "gp", "md", "toml"}
# Flags README names that belong to other programs: pip's, and the test
# tools' (tests/test_fingerprint.py, tests/interleave.py).
OTHER_FLAGS = {"--no-build-isolation", "--write", "--pairs"}


def _parser_flags(parser) -> set:
    flags = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--") and s != "--help")
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def _first_block(text: str, heading: str) -> str:
    """The first fenced block of the README section `heading`."""
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S)[1]


def test_readme_states_the_flags_the_config_and_the_artifacts(tmp_path):
    text = README.read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert named - OTHER_FLAGS == _parser_flags(build_parser())

    defaults = json.loads(_first_block(text, "Configuration"))
    assert defaults == json.loads(ExperimentConfig().to_json())

    # A line's first word is a file name; <cond> stands for a condition,
    # NN for a two-digit trial index and * for any name.
    patterns = [
        re.escape(line.split()[0]).replace("<cond>", "[a-z-]+").replace("NN", r"\d\d")
        .replace(r"\*", "[^/]+")
        for line in _first_block(text, "Artifacts").splitlines()
    ]
    config = ExperimentConfig(trials=1, iterations=50, dump_beliefs=True, out_dir=str(tmp_path))
    unmatched = [
        name for name in run_experiment(config).artifacts
        if not any(re.fullmatch(p, name) for p in patterns)
    ]
    assert not unmatched


def _resolves(module: str, names: list) -> bool:
    try:
        target = importlib.import_module(f"dyadreg.{module}")
        for name in names:
            target = getattr(target, name)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_dyadreg_name_readme_cites_resolves():
    text = README.read_text()
    blocks = re.findall(r"```[a-z]*\n(.*?)```", text, re.S)
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    cited = [
        (module, dotted.split("."))
        for span in re.findall(r"`([^`]+)`", prose)
        for module, dotted in re.findall(
            rf"(?<![\w./])({'|'.join(MODULES)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", span
        )
        if dotted.rsplit(".", 1)[-1] not in FILE_SUFFIXES
    ]
    for block in blocks:
        imports = re.findall(r"^\s*from dyadreg\.(\w+) import (\([^)]*\)|.*)", block, re.M)
        for module, names in imports:
            names = names.strip("()").split(",")
            cited += [(module, [name.split()[0]]) for name in names if name.strip()]
    assert len(cited) > 10
    unresolved = [".".join([m, *n]) for m, n in cited if not _resolves(m, n)]
    assert unresolved == []


def test_every_source_file_parses_at_the_stated_python_floor():
    # The interpreter that runs the tests may be newer than the floor, so
    # only this parse checks that the code keeps to the floor's grammar.
    pyproject = (ROOT / "pyproject.toml").read_text()
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject)[1])
    assert f"Requires Python >= 3.{minor} " in README.read_text()
    sources = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, minor))
