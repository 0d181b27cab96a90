"""SHA-256 of every artifact a fixed-seed CLI suite writes.

Runs `socrec train` (four variant/layer/aggregation settings; `full`'s
flags with `--epochs 0`, and with `--lr 1e300`, which diverges and aborts,
so that training's zero-epoch and abort branches are covered; then the
`full` run again from its config echo, `--config <out>/train/full/config`,
and again from the fixture as `save_dataset` wrote it to `<out>/dataset`,
`--dataset-dir`; both must write what `train/full` wrote, timing aside),
`ablate`, `robust`, `sweep`, `eval` (on the `full`, `direct_social` and
`no_align` checkpoints, each with the common flags only, as eval replays a
checkpoint's trained config, and on `full` again with 280
negatives, which takes the small-pool candidate branch for every user
where the suite's 49 take the rejection branch) and `case-study` on the
pinned fixture in `tests/fixtures/pinned`, with the socrec package of a
source tree, and prints one `<sha256>  <path>` line per file written,
sorted by path. `timing.txt` files hold wall-clock times and are left out.
The standard output of each command is digested too, as
`stdout/<command>-<run name>`, with the output root replaced by `<out>` so
the temporary directory does not show.

    python tools/artifact_digest.py [ROOT]

ROOT is the source tree whose `src/` is run (default: the tree holding
this script). Two trees write the same artifacts when their digests are
equal, for example:

    diff <(python tools/artifact_digest.py ../parent) <(python tools/artifact_digest.py)
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = REPO / "tests" / "fixtures" / "pinned"

SETTINGS = ["--seed", "3", "--epochs", "2", "--dim", "16", "--batch", "256",
            "--negatives", "49"]
COMMON = ["--interactions", str(FIXTURE / "interactions.txt"),
          "--social", str(FIXTURE / "social.txt"), *SETTINGS]

TRAIN = [
    ("full", ["--variant", "full", "--layers", "2", "--set", "agg=sum"]),
    ("direct_social", ["--variant", "direct_social", "--layers", "3", "--set", "agg=mean"]),
    ("contrastive", ["--variant", "contrastive", "--layers", "1", "--set", "agg=sum"]),
    ("no_align", ["--variant", "no_align", "--layers", "0", "--set", "agg=mean"]),
]


def suite(out):
    """The CLI argument lists of the suite, writing under `out`."""
    common = COMMON + ["--out", out]
    runs = [["train", *common, *flags, "--run-name", name] for name, flags in TRAIN]
    # `full` with no epochs, and diverging into an abort
    runs += [["train", *common, *TRAIN[0][1], *flags, "--run-name", name]
             for name, flags in (("full_epochs0", ["--epochs", "0"]),
                                 ("full_diverge", ["--lr", "1e300"]))]
    # the `full` run again from its config echo alone: the same artifacts
    runs.append(["train", *common, "--config", os.path.join(out, "train", "full", "config"),
                 "--run-name", "full_replay"])
    # and from the saved dataset directory (RUNNER writes it first)
    runs.append(["train", "--dataset-dir", os.path.join(out, "dataset"), *SETTINGS,
                 "--out", out, *TRAIN[0][1], "--run-name", "full_dataset_dir"])
    checkpoint = os.path.join(out, "train", "full", "checkpoint")
    runs += [["eval", *common, "--checkpoint",
              os.path.join(out, "train", name, "checkpoint"), "--run-name", f"eval_{name}"]
             for name in ("direct_social", "no_align")]
    runs += [
        ["ablate", *common, "--run-name", "ablate"],
        ["robust", *common, "--ratios", "0,0.2", "--run-name", "robust"],
        ["sweep", *common, "--grid", "lambda2=0,0.01", "--grid", "layers=1,2",
         "--run-name", "sweep"],
        ["eval", *common, "--checkpoint", checkpoint, "--run-name", "eval"],
        # 280 of 300 items: every user's pool is under 4*280, so candidates
        # come from the shuffle branch, and users with < 280 left are skipped
        ["eval", *common, "--negatives", "280", "--checkpoint", checkpoint,
         "--run-name", "eval_shuffle"],
        ["case-study", *common, "--checkpoint", checkpoint, "--run-name", "case_ckpt"],
        ["case-study", *common, "--sample", "50", "--run-name", "case_train"],
    ]
    return runs


RUNNER = """\
import contextlib, io, json, sys
from socrec.cli import main
from socrec.data import build_dataset, load_edges, save_dataset
fixture, out, runs = json.loads(sys.argv[1])
save_dataset(build_dataset(load_edges(fixture + "/interactions.txt", "interaction"),
                           load_edges(fixture + "/social.txt", "social")), out + "/dataset")
stdouts = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        if main(argv) != 0:
            sys.exit(f"socrec {argv[0]} failed")
    stdouts.append(buf.getvalue())
json.dump(stdouts, sys.stdout)
"""


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest(root):
    """Sorted (relative path, sha256) of every artifact the suite writes
    and of each command's stdout, when run with `root/src`."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(root, "src")))
        runs = suite(out)
        proc = subprocess.run([sys.executable, "-c", RUNNER,
                               json.dumps([str(FIXTURE), out, runs])],
                              cwd=out, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"suite failed:\n{proc.stderr[-4000:]}")
        rows = [(f"stdout/{argv[0]}-{argv[argv.index('--run-name') + 1]}",
                 sha256(text.replace(out, "<out>").encode()))
                for argv, text in zip(runs, json.loads(proc.stdout))]
        for path in pathlib.Path(out).rglob("*"):
            if path.is_file() and path.name != "timing.txt":
                rows.append((path.relative_to(out).as_posix(), sha256(path.read_bytes())))
        return sorted(rows)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    for path, sha in digest(sys.argv[1] if len(sys.argv) > 1 else REPO):
        print(f"{sha}  {path}")
