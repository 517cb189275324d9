"""The package holds only what a run executes.

Every top-level function, every class and every method that is not a
dunder, defined under src/dyadreg, must be referenced by name somewhere
under src/dyadreg. A definition only the tests call belongs in
tests/oracles.py. The CLI reaches a finished run only through
harness.open_run, which holds every check on what it reads. Every CSV is
written through one line writer, as one text in one write call, never
through writelines, and a trial's rounds go straight into its
preallocated record. Every table is one structured array whose cells
harness._write_csv formats by one rule, its fields' kinds, so a table's
layout is its dtype; only the belief dump, which formats just its cells
that are not +0.0, keeps a template of its own and calls _fmt. The functions
every round calls raise nothing: their inputs were checked where they
entered the program. Nor do they call a numpy reduction or function through
its Python-level wrapper. Each call of the round path serves a whole batch
of trials, so a batch costs the calls of one trial, and a serial run is one
batch. Each kind of agent is
its own class, so no function in agents.py asks an agent for its kind.
Every function in metrics.py is pure: it writes into none of its
arguments, so a caller's cache lives with the caller. Each model error has
one owner, the agent that learns the matrix it measures, so harness.py
names no error function. A cell of the grid is its flat index, and
environment.py alone turns it into coordinates and back, so no other
module multiplies, floor-divides or takes a remainder by N_LEVELS. The
modules form layers under harness, which only cli imports.
"""

import ast
import re
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
    "probability.py": ("softmax_neg", "sample", "digamma", "kl_terms", "column_kl"),
    "environment.py": ("step",),
    "dialogue.py": ("mh_accept", "run_round", "run_iteration"),
    "metrics.py": ("kld_A_error", "kld_B_error"),
    "harness.py": ("run_trial",),
    "agents.py": (
        "predict_belief",
        "Agent.efe_per_action",
        "Agent.symbol_posterior",
        "Agent.assimilate",
        "Agent.learn_A",
        "Agent._refresh_sensory",
        "Infant.efe_per_action",
        "Infant.symbol_posterior",
        "Infant.assimilate",
        "Infant.learn_B",
        "Infant._count",
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
# np.diagonal, np.dot, np.split, np.take_along_axis, np.put_along_axis,
# np.nonzero, np.flatnonzero and np.full. A round calls its functions dozens
# of times, so they call the ufunc (np.add.reduce, np.minimum.reduce) or the
# C method (ndarray.take, ndarray.put, ndarray.nonzero, ndarray.fill).
WRAPPED_METHODS = {"sum", "min", "max", "mean"}
WRAPPED_NP_FUNCTIONS = {
    "where", "zeros_like", "diagonal", "dot",
    "split", "take_along_axis", "put_along_axis", "nonzero", "flatnonzero", "full",
}


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


def _root_name(node):
    """The name a chain of subscripts and attributes starts from, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _argument_writes(tree):
    """Every place a function of `tree` stores into a subscript of one of its
    own parameters, augments a parameter, or passes one as out=."""
    writes = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        args = function.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                written = [
                    t for t in targets
                    if _root_name(t) in params
                    and (isinstance(t, ast.Subscript) or isinstance(node, ast.AugAssign))
                ]
            elif isinstance(node, ast.Call):
                outs = [k.value for k in node.keywords if k.arg == "out"]
                written = [v for v in outs if _root_name(v) in params]
            else:
                written = []
            writes.extend(f"{function.name}: {ast.unparse(t)}" for t in written)
    return writes


def test_no_metric_writes_into_its_arguments():
    # A metric is a function of what it is given; a cache it renews belongs
    # to its caller, which names what it renews at the call.
    assert _argument_writes(_trees()["metrics.py"]) == []


def test_each_model_error_has_one_owner():
    # The parent renews its map errors where it renews its map, and the
    # infant its Sleep errors where it counts its dynamics; the round hook
    # only reads them, so it keeps no second rule for what learning renewed.
    tree = _trees()["harness.py"]
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    names = _references({"harness.py": tree}) | {a.name for node in imports for a in node.names}
    assert sorted(names & {"kld_A_error", "kld_B_error"}) == []


def test_only_environment_applies_the_grid_layout():
    # environment.to_flat and to_xy are the one place that knows a cell's
    # flat index is y * N_LEVELS + x.
    layout_ops = (ast.Mult, ast.FloorDiv, ast.Mod)
    found = []
    for module, tree in _trees().items():
        if module == "environment.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign):
                operands = (node.target, node.value)
            else:
                continue
            on_levels = any(isinstance(o, ast.Name) and o.id == "N_LEVELS" for o in operands)
            if isinstance(node.op, layout_ops) and on_levels:
                found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_only_cli_imports_harness():
    # harness runs and reads whole experiments on top of every other
    # module; a module below it that imported it back would close a cycle.
    importing = []
    for module, tree in _trees().items():
        if module == "cli.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            if any("harness" in name.split(".") for name in names):
                importing.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert importing == []


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


def test_no_module_calls_writelines():
    # harness._write_csv joins a file's lines and writes the text in one
    # call; writelines would write one string per row.
    calling = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "writelines"
    ]
    assert calling == []


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


def test_a_run_at_one_worker_is_one_batch(monkeypatch, tmp_path):
    # Every (condition, trial) pair of the run advances together: one
    # run_trial call, and one run_iteration call per iteration.
    calls = {"run_trial": 0, "run_iteration": 0}

    def counted(name):
        original = getattr(harness, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    config = ExperimentConfig(trials=3, iterations=7, seed=5, out_dir=str(tmp_path))
    manifest = harness.run_experiment(config)
    assert calls == {"run_trial": 1, "run_iteration": 7}
    assert len(manifest.trial_seeds) == 3


# A printf-style conversion such as "%d", "%s" or "%.9g".
PERCENT_CONVERSION = re.compile(r"%[-#0 +]*\d*(?:\.\d+)?[diouxXeEfFgGcrsa]")


def _docstrings(tree):
    """The ids of the docstring constants of a module, its classes and functions."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def test_every_table_cell_comes_from_one_rule():
    # harness._write_csv turns a field's kind into its cell's template, so
    # a table needs none of its own; the belief dump alone keeps its joined
    # rows and formats its nonzero cells with _fmt.
    fmt_users, templates = [], []
    for module, tree in _trees().items():
        docstrings = _docstrings(tree)
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            nodes = list(ast.walk(top))
            if module == "harness.py" and any(
                isinstance(n, ast.Name) and n.id == "_fmt" for n in nodes
            ):
                fmt_users.append(owner)
            templates.extend(
                (f"{module}:{owner}", node.value)
                for node in nodes
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and PERCENT_CONVERSION.search(node.value)
            )
    assert fmt_users == ["write_beliefs_csv"]
    assert sorted(templates) == [
        ("harness.py:_write_csv", "%.9g"),
        ("harness.py:_write_csv", "%d"),
        ("harness.py:_write_csv", "%s"),
        ("harness.py:write_beliefs_csv", "%d,%d,%s"),
    ]
