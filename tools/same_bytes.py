"""Check that the working tree writes the same run outputs as a base revision, byte for byte.

    python3 tools/same_bytes.py --base REV

REV is extracted with `git archive`. The working tree is copied as git sees
it: tracked and untracked files, with ignored files left out. The two copies
sit at paths of equal length. Each copy runs the same commands, with its own
`src` on PYTHONPATH:

- `generate-data` of the large-pool benchmark's CSV pair;
- `train` of the default config over seeds 0-4;
- `train` of the large-pool config at seed 0, both sides reading the pair
  that REV generated;
- `ablate --sweep label-ratio` in baseline mode over seeds 0-2;
- `evaluate` of the seed-0 checkpoint of the default `train`.

Then every output file is compared. So is each command's stdout, minus the
lines that name the copy's own directory. The exit status is 0 when all
outputs are identical, 1 when some differ (they are listed), and 2 when a
command fails. Only the standard library and git are used; the copies and
outputs live in a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "tree")  # equal lengths, so both copies sit at paths of one length

CONFIGS = {
    "default.cfg": "seeds = 0,1,2,3,4\n",
    "large.spec": "class_counts = 2000,800,240,80\nseed = 0\n",
    # The large-pool benchmark config; `compare` appends the data lines naming REV's pair.
    "large.cfg": "labeled_ratio = 0.05\ngamma1 = 0.9\nstages = 1\nepochs_stage = 5\nseeds = 0\n",
    "sweep.cfg": "mode = baseline\nepochs_warmup = 20\nseeds = 0,1,2\n",
}


def commands(cfg: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of each command one side runs, in order, writing under `out`."""
    return [
        ("generate-data", ["generate-data", "--spec", str(cfg / "large.spec"), "--out", str(out / "data/train.csv"),
                           "--test-out", str(out / "data/test.csv"), "--test-per-class", "50"]),
        ("train-default", ["train", "--config", str(cfg / "default.cfg"), "--out-dir", str(out / "default")]),
        ("train-large", ["train", "--config", str(cfg / "large.cfg"), "--out-dir", str(out / "large")]),
        ("ablate", ["ablate", "--config", str(cfg / "sweep.cfg"), "--sweep", "label-ratio",
                    "--out-dir", str(out / "sweep")]),
        ("evaluate", ["evaluate", "--checkpoint", str(out / "default/seed_0/checkpoint.npz"),
                      "--data", str(out / "default/seed_0/test.csv"), "--out-dir", str(out / "evaluate")]),
    ]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def extract_revision(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        # The "data" filter exists from Python 3.12 (and in late 3.10/3.11 patch releases).
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def copy_working_tree(dest: Path) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_side(side: Path, cfg: Path) -> bool:
    """Run every command in one copy; stdout goes to out/<name>.stdout. False when one fails."""
    out = side / "out"
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(side / "src")}
    env.setdefault("OPENBLAS_NUM_THREADS", "1")  # forked workers share the cores; outputs do not depend on it
    for name, args in commands(cfg, out):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "splal.cli", *args], cwd=side, env=env,
                              capture_output=True, text=True)
        print(f"{side.name}: {name} exited {proc.returncode} in {perf_counter() - start:.1f} s", flush=True)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return False
        kept = [line for line in proc.stdout.splitlines(keepends=True) if str(side) not in line]
        (out / f"{name}.stdout").write_text("".join(kept))
    return True


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths present on one side only, or present on both with different bytes."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return sorted(
        name for name in files[0] | files[1]
        if name not in files[0] & files[1] or not filecmp.cmp(a / name, b / name, shallow=False)
    )


def compare(base: str, work: Path) -> int:
    cfg, shared = work / "cfg", work / "base/out/data"
    cfg.mkdir()
    for name, text in CONFIGS.items():
        (cfg / name).write_text(text)
    with (cfg / "large.cfg").open("a") as fh:
        fh.write(f"data_csv = {shared / 'train.csv'}\ntest_csv = {shared / 'test.csv'}\n")
    extract_revision(base, work / "base")
    copy_working_tree(work / "tree")
    for side in SIDES:
        if not run_side(work / side, cfg):
            return 2
    differ = differing_files(work / "base/out", work / "tree/out")
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} differing files against {base}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        return compare(args.base, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
