"""The package holds only what a run executes.

Every top-level function, every class and every method that is not a
dunder, defined under src/dyadreg, must be referenced by name somewhere
under src/dyadreg. A definition only the tests call belongs in
tests/oracles.py. The CLI reaches a finished run only through
harness.open_run, which holds every check on what it reads. Every CSV is
written through one line writer, and a trial's rounds go straight into its
preallocated record. The functions
every round calls raise nothing: their inputs were checked where they
entered the program. Nor do they call a numpy reduction or function through
its Python-level wrapper. Each call of the round path serves a whole batch
of trials, so a batch costs the calls of one trial. Each kind of agent is
its own class, so no function in agents.py asks an agent for its kind.
"""

import ast
from pathlib import Path

from dyadreg import harness
from dyadreg.config import ExperimentConfig

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


# The functions a round calls, by module, each on a batch of trials but
# step, which a round calls once per trial. ExperimentConfig.validate and
# the public constructors bound every value they are given.
ROUND_PATH = {
    "probability.py": ("softmax_neg", "sample", "digamma"),
    "environment.py": ("step",),
    "dialogue.py": ("mh_accept", "run_round", "run_iteration"),
    "metrics.py": ("kld_A_error", "kld_B_error"),
    "harness.py": ("run_trial",),
    "agents.py": (
        "predict_belief",
        "_risk_terms",
        "_column_risk",
        "Agent.efe_per_action",
        "Agent.symbol_posterior",
        "Agent.assimilate",
        "Agent.learn_A",
        "Agent._refresh_sensory",
        "Infant.efe_per_action",
        "Infant.symbol_posterior",
        "Infant.assimilate",
        "Infant.learn_B",
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


# numpy reductions and functions that pass through a Python-level wrapper
# before their C code: ndarray.sum and its kin, and np.where, np.zeros_like,
# np.diagonal and np.dot. A round calls its functions dozens of times, so
# they call the ufunc (np.add.reduce, np.minimum.reduce) or the C method.
WRAPPED_METHODS = {"sum", "min", "max", "mean"}
WRAPPED_NP_FUNCTIONS = {"where", "zeros_like", "diagonal", "dot"}


def test_the_round_path_calls_no_python_level_numpy_wrapper():
    trees = _trees()
    # update_belief raises for an all-zero likelihood row, so only this
    # guard covers it.
    round_calls = {**ROUND_PATH, "agents.py": ROUND_PATH["agents.py"] + ("update_belief",)}
    wrapped = []
    for module, names in round_calls.items():
        definitions = dict(_definitions(trees[module]))
        for name in names:
            for node in ast.walk(definitions[name]):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                owner, attr = node.func.value, node.func.attr
                on_np = isinstance(owner, ast.Name) and owner.id == "np"
                if attr in WRAPPED_METHODS or (on_np and attr in WRAPPED_NP_FUNCTIONS):
                    wrapped.append(f"{module}:{name}: {ast.unparse(node.func)}")
    assert wrapped == []


def test_no_agent_method_branches_on_kind():
    # One class per kind: each knows its kind, and no function asks for one.
    reading = [
        f"agents.py:{node.name}"
        for node in ast.walk(_trees()["agents.py"])
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "kind" for n in ast.walk(node))
    ]
    assert reading == []


def test_no_module_imports_csv():
    # harness._write_csv writes every CSV; the csv module is the tests' oracle.
    importing = [
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "csv"
    ]
    assert importing == []


def test_run_trial_writes_each_round_in_place():
    # Each round's cells go into the preallocated record as the round ends,
    # not into a list that is taken apart after the last round.
    run_trial = dict(_definitions(_trees()["harness.py"]))["run_trial"]
    calls = [
        ast.unparse(node.func)
        for node in ast.walk(run_trial)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "zip"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "append"
        )
    ]
    assert calls == []


def test_a_batch_calls_run_iteration_once_per_iteration(monkeypatch):
    # Three trials advance together: one call per iteration, not per trial.
    calls = []
    run_iteration = harness.run_iteration
    def counted(*args, **kwargs):
        calls.append(1)
        return run_iteration(*args, **kwargs)

    monkeypatch.setattr(harness, "run_iteration", counted)
    config = ExperimentConfig(conditions=("mhng",), trials=3, iterations=7, seed=5)
    logs = harness.run_trial(config, "mhng", range(3))
    assert len(calls) == 7
    assert [log.trial_index for log in logs] == [0, 1, 2]
