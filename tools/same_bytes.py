"""Check that run outputs keep their bytes across revisions, process pools and BLAS threads.

    python3 tools/same_bytes.py --base REV

REV is extracted with `git archive`. The working tree is copied as git sees
it: tracked and untracked files, with ignored files left out. Each copy runs
one command list with its own `src` on PYTHONPATH, and with
PYTHONWARNINGS=error::RuntimeWarning, so a numpy overflow fails the command:

- `generate-data` of the large-pool benchmark's CSV pair;
- `train` of the default config over seeds 0-4;
- `train` of the large-pool config at seeds 0 and 1, every run reading the
  pair that REV generated (each worker writes its own `test.csv`);
- `train` without the alignment term (lam2 = 0), two stages at seeds 0 and 1;
- `ablate --sweep label-ratio` in baseline mode over seeds 0-2;
- `evaluate` of the seed-0 checkpoint of the default `train`.

REV's copy runs the list once, pooled at one BLAS thread. The tree's copy
runs it four times: pooled (`pool`: train and ablate fork one worker per
usable core) and pinned to one core (`core`: every seed runs in-process),
each at OPENBLAS_NUM_THREADS 1 and 2. The runs write under `out/` into
directories of one name length. The tree's pooled one-thread run is the
reference: REV's run is compared with it, and it with each other tree run.
Each pseudo-label audit of a staged `train` in the reference must hold a row.
Each command's stdout is compared too, minus the lines naming its run's
directory.

Each copy gets its own fresh XDG_CACHE_HOME (`cache-base`, `cache-tree`),
beside `out/` and so outside every compared directory. REV's run parses each
dataset CSV with REV's reader. The reference parses it cold with the tree's
reader and fills the tree's cache, and the three later tree runs read those
rows back. So REV against the reference compares two parsers, and the
reference against each other run compares a parse with a cache hit.

Exit status: 0 when all outputs are identical; 1 when some differ (each file
is listed with its pair of runs); 2 when a command fails, a reference audit
is empty, git cannot read REV or the tree, or no process can be pinned to one
core. Only the standard library and git are used; the copies and outputs
live in a temporary directory that is removed afterwards.
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
# <copy>-<pool|core>-<OPENBLAS_NUM_THREADS>, in run order; equal lengths, so every run's paths have one length.
RUNS = ("base-pool-1", "tree-pool-1", "tree-core-1", "tree-pool-2", "tree-core-2")
REFERENCE = RUNS[1]

CONFIGS = {
    "default.cfg": "seeds = 0,1,2,3,4\n",
    "large.spec": "class_counts = 2000,800,240,80\nseed = 0\n",
    # The large-pool benchmark config; `compare` appends the data lines naming REV's pair.
    "large.cfg": "labeled_ratio = 0.05\ngamma1 = 0.9\nstages = 1\nepochs_stage = 5\nseeds = 0,1\n",
    # lam2 = 0: each step trains on the clean rows alone. Both stages pseudo-label at both seeds.
    "noalign.cfg": ("seeds = 0,1\ngamma1 = 0.7\nepochs_warmup = 5\nstages = 2\nepochs_stage = 1\n"
                    "lam1 = 1.0\nlam2 = 0.0\n"),
    "sweep.cfg": "mode = baseline\nepochs_warmup = 20\nseeds = 0,1,2\n",
}
# Every staged `train` seed's pseudo-label audit, each of which must hold a data row.
AUDITS = [f"{name}/seed_{s}/pseudo_audit.csv" for name, n in (("default", 5), ("large", 2), ("noalign", 2))
          for s in range(n)]


def commands(cfg: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of each command a run makes, in order, writing under `out`."""
    train = [(name, ["train", "--config", str(cfg / f"{name}.cfg"), "--out-dir", str(out / name)])
             for name in ("default", "large", "noalign")]
    return [
        ("generate-data", ["generate-data", "--spec", str(cfg / "large.spec"), "--out", str(out / "data/train.csv"),
                           "--test-out", str(out / "data/test.csv"), "--test-per-class", "50"]),
        *train,
        ("ablate", ["ablate", "--config", str(cfg / "sweep.cfg"), "--sweep", "label-ratio",
                    "--out-dir", str(out / "sweep")]),
        ("evaluate", ["evaluate", "--checkpoint", str(out / "default/seed_0/checkpoint.npz"),
                      "--data", str(out / "default/seed_0/test.csv"), "--out-dir", str(out / "evaluate")]),
    ]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


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


def run_commands(src: Path, out: Path, cfg: Path, cache: Path, threads: int, one_core: bool) -> bool:
    """Run every command with `src` on PYTHONPATH and `cache` as XDG_CACHE_HOME; stdout goes to
    `out`/<name>.stdout. False when one fails."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONWARNINGS": "error::RuntimeWarning", "XDG_CACHE_HOME": str(cache)}
    core = min(os.sched_getaffinity(0))
    pin = (lambda: os.sched_setaffinity(0, {core})) if one_core else None
    for name, args in commands(cfg, out):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "splal.cli", *args], cwd=src.parent, env=env,
                              capture_output=True, text=True, preexec_fn=pin)
        print(f"{out.name}: {name} exited {proc.returncode} in {perf_counter() - start:.1f} s", flush=True)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return False
        kept = [line for line in proc.stdout.splitlines(keepends=True) if str(out) not in line]
        (out / f"{name}.stdout").write_text("".join(kept))
    return True


def empty_audits(out: Path) -> list[str]:
    """The AUDITS under `out` that are missing or hold no data row."""
    return [name for name in AUDITS
            if not (out / name).is_file() or len((out / name).read_bytes().splitlines()) < 2]


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths present on one side only, or present on both with different bytes."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return sorted(
        name for name in files[0] | files[1]
        if name not in files[0] & files[1] or not filecmp.cmp(a / name, b / name, shallow=False)
    )


def mismatches(outs: dict[str, Path]) -> list[str]:
    """One line per differing file of each compared pair of runs (name -> output directory), naming the pair."""
    pairs = [(RUNS[0], REFERENCE)] + [(REFERENCE, run) for run in RUNS[2:]]
    return [f"differs: {name} ({a} against {b})" for a, b in pairs for name in differing_files(outs[a], outs[b])]


def compare(base: str, work: Path) -> int:
    cfg, out = work / "cfg", work / "out"
    shared = out / RUNS[0] / "data"
    cfg.mkdir()
    for name, text in CONFIGS.items():
        (cfg / name).write_text(text)
    with (cfg / "large.cfg").open("a") as fh:
        fh.write(f"data_csv = {shared / 'train.csv'}\ntest_csv = {shared / 'test.csv'}\n")
    extract_revision(base, work / "base")
    copy_working_tree(work / "tree")
    for run in RUNS:
        copy, how, threads = run.split("-")
        cache = work / f"cache-{copy}"  # one per copy, so the tree's first run parses with the tree's reader
        if not run_commands(work / copy / "src", out / run, cfg, cache, int(threads), how == "core"):
            return 2
        if run == REFERENCE and (empty := empty_audits(out / run)):
            print(*(f"no pseudo-label audited: {name}" for name in empty), sep="\n", file=sys.stderr)
            return 2
    lines = mismatches({run: out / run for run in RUNS})
    for line in lines:
        print(line)
    print(f"{len(lines)} differences among {len(RUNS)} runs ({RUNS[0]} is {base})")
    return 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    if not hasattr(os, "sched_setaffinity"):
        print(f"same_bytes: cannot compare with {args.base}: no process can be pinned to one core here",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        try:
            return compare(args.base, Path(tmp))
        except subprocess.CalledProcessError as err:  # from `git`: REV or the tree cannot be read
            why = err.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"same_bytes: cannot compare with {args.base}: git {err.cmd[1]} failed: {''.join(why)}",
                  file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
