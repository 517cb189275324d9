"""Behaviour fingerprint: SHA-256 digests of everything two small seeded
runs reproduce, compared against the committed golden file.

Each config runs 3 conditions x 2 trials x 200 iterations with belief
dumps. The digests cover every file in `manifest.artifacts`, manifest.json
without its wall-clock `timings`, the stdout of `report`, and for config
"a" the stdout of one `shuffle-control`. Any change to an artifact byte
fails here. A numpy or BLAS upgrade can legitimately move the floats; after
checking that the change is expected, regenerate the golden file with

    python tests/test_fingerprint.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("fingerprint.json")

CONFIGS = {
    "a": {},
    "b": {
        "mh_current_w": "persistent",
        "round_order": "parent-first",
        "preference_mode": "softmax",
        "shuffle_permutations": 2,
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_stdout(*argv) -> str:
    from dyadreg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"{argv[0]} exited {code}"
    return out.getvalue()


def fingerprint(name: str, run_dir: Path) -> dict:
    """Digests of one config's run into the empty directory run_dir."""
    from dyadreg.config import ExperimentConfig
    from dyadreg.harness import run_experiment

    config = ExperimentConfig(
        trials=2, iterations=200, dump_beliefs=True, out_dir=str(run_dir), **CONFIGS[name]
    )
    manifest = run_experiment(config)
    digests = {f: _sha256((run_dir / f).read_bytes()) for f in manifest.artifacts}
    body = json.loads((run_dir / "manifest.json").read_text())
    body.pop("timings")
    digests["manifest.json"] = _sha256(json.dumps(body, sort_keys=True).encode())
    digests["stdout:report"] = _sha256(_cli_stdout("report", "--run", str(run_dir)).encode())
    if name == "a":
        shuffled = _cli_stdout("shuffle-control", "--run", str(run_dir))
        digests["stdout:shuffle-control"] = _sha256(shuffled.encode())
    return digests


def test_fingerprint_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    for name in CONFIGS:
        got = fingerprint(name, tmp_path / name)
        want = golden[name]
        changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        assert not changed, f"config {name}: digests differ for {changed}"


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Regenerate the fingerprint golden file.")
    parser.add_argument("--write", action="store_true", required=True)
    parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: fingerprint(name, Path(tmp) / name) for name in CONFIGS}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
