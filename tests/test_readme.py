"""README states what a user relies on: its flags are the parser's, its
Configuration block is the default config, and its Artifacts block names
every file a run writes."""

import argparse
import json
import re
from pathlib import Path

from dyadreg.cli import build_parser
from dyadreg.config import ExperimentConfig
from dyadreg.harness import run_experiment

README = Path(__file__).resolve().parents[1] / "README.md"
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
