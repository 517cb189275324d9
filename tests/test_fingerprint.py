"""Behaviour fingerprint: SHA-256 digests of everything a set of seeded
runs reproduce, compared against the committed golden file.

The runs are two small configs ("a" and "b": 3 conditions x 2 trials x 200
iterations with belief dumps), the benchmark's two workload shapes at seeds
0, 1 and 2 ("grid": 3 x 4 x 250; "dump-readback": 3 x 10 x 60 with dumps and
the non-default branches), a default 3 x 10 x 1000 run with dumps at
seed 0, and the summary's short and partial shapes: 15 iterations (no
iteration-20 snapshot, no alignment window, no spike range, no AUC rows or
plot), 30 iterations (snapshots but no AUC), one condition, and two
conditions out of the default order. The digests of a run cover every file in `manifest.artifacts`,
manifest.json without its wall-clock `timings`, the stdout of `report`, and
for a run with dumps the stdout of one `shuffle-control`. Each digest the
manifest records must equal a fresh one of its file. Any change to an
artifact byte fails here. A numpy or BLAS upgrade can legitimately move the
floats; after checking that the change is expected, regenerate the golden
file with

    python tests/test_fingerprint.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("fingerprint.json")

SMALL = dict(trials=2, iterations=200, dump_beliefs=True)
GRID = dict(trials=4, iterations=250)
DUMP_READBACK = dict(
    trials=10,
    iterations=60,
    dump_beliefs=True,
    mh_current_w="persistent",
    round_order="parent-first",
    preference_mode="softmax",
)

RUNS = {
    "a": SMALL,
    "b": dict(
        SMALL,
        mh_current_w="persistent",
        round_order="parent-first",
        preference_mode="softmax",
        shuffle_permutations=2,
    ),
    **{f"grid-seed{seed}": dict(GRID, seed=seed) for seed in (0, 1, 2)},
    **{f"dump-readback-seed{seed}": dict(DUMP_READBACK, seed=seed) for seed in (0, 1, 2)},
    "default-dump-seed0": dict(dump_beliefs=True, seed=0),
    "iterations15": dict(trials=2, iterations=15),
    "iterations30": dict(trials=2, iterations=30),
    "one-condition": dict(SMALL, conditions=("b-led",), dump_beliefs=False),
    "two-conditions": dict(SMALL, conditions=("b-led", "mhng")),
}


def _cli_stdout(*argv) -> str:
    from dyadreg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"{argv[0]} exited {code}"
    return out.getvalue()


def fingerprint(name: str, run_dir: Path) -> dict:
    """Digests of one golden run into the empty directory run_dir."""
    from dyadreg.config import ExperimentConfig
    from dyadreg.harness import digest, run_experiment

    config = ExperimentConfig(out_dir=str(run_dir), **RUNS[name])
    manifest = run_experiment(config)
    digests = {f: digest((run_dir / f).read_bytes()) for f in manifest.artifacts}
    assert digests == manifest.artifacts, f"{name}: the manifest's seal differs from its files"
    body = json.loads((run_dir / "manifest.json").read_text())
    body.pop("timings")
    digests["manifest.json"] = digest(json.dumps(body, sort_keys=True).encode())
    digests["stdout:report"] = digest(_cli_stdout("report", "--run", str(run_dir)).encode())
    if config.dump_beliefs:
        shuffled = _cli_stdout("shuffle-control", "--run", str(run_dir))
        digests["stdout:shuffle-control"] = digest(shuffled.encode())
    return digests


def test_fingerprint_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(RUNS)
    changed = {}
    for name in RUNS:
        got, want = fingerprint(name, tmp_path / name), golden[name]
        keys = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        if keys:
            changed[name] = keys
    assert not changed, f"digests differ: {changed}"


def test_report_prints_the_golden_bytes_without_parsing_a_csv(tmp_path, monkeypatch):
    # report prints summary.json, so a CSV loader that fails cannot stop it.
    from dyadreg import harness
    from dyadreg.config import ExperimentConfig

    name = "grid-seed0"
    harness.run_experiment(ExperimentConfig(out_dir=str(tmp_path), **RUNS[name]))

    def no_csv(path, *args):
        raise ValueError(f"{path}: report parsed a CSV")

    monkeypatch.setattr(harness, "_load_csv", no_csv)
    printed = _cli_stdout("report", "--run", str(tmp_path))  # asserts exit 0
    want = json.loads(GOLDEN.read_text())[name]["stdout:report"]
    assert harness.digest(printed.encode()) == want


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Regenerate the fingerprint golden file.")
    parser.add_argument("--write", action="store_true", required=True)
    parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: fingerprint(name, Path(tmp) / name) for name in RUNS}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
