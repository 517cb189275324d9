"""The package holds only what a run executes.

Every top-level function, every class and every method that is not a
dunder, defined under src/dyadreg, must be referenced by name somewhere
under src/dyadreg. A definition only the tests call belongs in
tests/oracles.py. The CLI reaches a finished run only through
harness.open_run, which holds every check on what it reads. The functions
every round calls raise nothing: their inputs were checked where they
entered the program.
"""

import ast
from pathlib import Path

from dyadreg import harness

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dyadreg"


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    """(name, node) of every top-level function and class, and of every
    method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                is_method = isinstance(item, ast.FunctionDef)
                if is_method and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _references(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_is_referenced_in_the_package():
    trees = _trees()
    referenced = _references(trees)
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, _ in _definitions(tree)
        if name.rsplit(".", 1)[-1] not in referenced
    ]
    assert unused == []


def test_cli_reads_a_run_only_through_open_run():
    # The read checks live behind harness.open_run; a command that loaded a
    # run's files or its config itself would need its own copy of them.
    cli = {"cli.py": _trees()["cli.py"]}
    referenced = _references(cli)
    loaders = {name for name in vars(harness) if name.startswith("load_")}
    assert "open_run" in referenced
    assert sorted(referenced & loaders) == []
    assert "from_dict" not in referenced


# The functions a round calls, by module. ExperimentConfig.validate and the
# public constructors bound every value they are given.
ROUND_PATH = {
    "probability.py": ("softmax_neg", "sample", "digamma"),
    "dialogue.py": ("mh_accept", "run_round", "run_iteration"),
    "metrics.py": ("kld_A_error", "kld_B_error"),
    "agents.py": (
        "predict_belief",
        "_risk_terms",
        "Agent.efe_per_action",
        "Agent.symbol_posterior",
        "Agent.assimilate",
    ),
}


def test_the_round_path_raises_nothing():
    trees = _trees()
    raising = []
    for module, names in ROUND_PATH.items():
        definitions = dict(_definitions(trees[module]))
        for name in names:
            if any(isinstance(node, ast.Raise) for node in ast.walk(definitions[name])):
                raising.append(f"{module}:{name}")
    assert raising == []
