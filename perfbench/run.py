"""splal benchmark: three CLI workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; nothing needs installing, `src` is put on the
children's path. One client drives `python3 -m splal.cli` in a closed loop:
the next command starts when the previous one has exited, and rounds repeat
until S seconds have passed (at least two, so determinism can be checked).
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 one more round runs under perfbench/traced.py and the
line holds the per-layer metrics. Independent correctness checks
(perfbench/checks.py) run on every round's output after the timed rounds.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One BLAS/OpenMP thread per process: the matrices are small, and nproc is 2
# on the reference machine, so more threads only add scheduling noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402  (after the thread settings, since it imports numpy)
import traced  # noqa: E402

MIN_ROUNDS = 2
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
DEFAULT_COUNTS = (500, 200, 60, 20)
TEST_PER_CLASS = 50
LABEL_RATIOS = (0.05, 0.10, 0.20, 0.30)


class Workload:
    """Inputs for one CLI command, derived only from the benchmark seed."""

    name = ""
    class_counts = DEFAULT_COUNTS
    labeled_ratio = 0.10

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config = work / "experiment.cfg"

    def prepare(self) -> None:
        self.config.write_text(self.config_text())

    def config_text(self) -> str:
        raise NotImplementedError

    def command(self, out_dir: Path) -> list[str]:
        return ["train", "--config", str(self.config), "--out-dir", str(out_dir)]

    def probe_seed(self) -> int:
        return self.seed

    def expected_pools(self) -> tuple[int, int, int]:
        labeled = checks.labeled_count(self.class_counts, self.labeled_ratio)
        return labeled, sum(self.class_counts) - labeled, TEST_PER_CLASS * len(self.class_counts)

    def check(self, out_dir: Path) -> tuple[list[float], int, dict[str, str]]:
        """Check one command's output; (macro-F1 per run, sample-epochs, digests)."""
        f1s, work, digests = [], 0, {}
        seed_dirs = sorted(out_dir.glob("seed_*"))
        if not seed_dirs:
            raise checks.CheckError(f"{out_dir}: no seed directories")
        for seed_dir in seed_dirs:
            f1s.append(checks.check_train_seed_dir(seed_dir))
            cfg = checks.read_config_echo(seed_dir / "config.txt")
            labeled = checks.labeled_count(self.class_counts, float(cfg["labeled_ratio"]))
            work += int(cfg["epochs_warmup"]) * labeled
            for rep in json.loads((seed_dir / "stage_reports.json").read_text()):
                labeled += rep["num_selected"]
                work += len(rep["epoch_losses"]) * labeled
            digests[seed_dir.name] = checks.digest(seed_dir / "metrics.json")
        return f1s, work, digests


class TrainDefault(Workload):
    """An empty config: the built-in 500/200/60/20 benchmark, 10 % labeled, 5 stages.

    The inputs do not depend on the benchmark seed. At this config the
    selection path, and with it the work, is chaotic in the training seed:
    over seeds 0-9 stage 1 took 0 to 630 samples and later stages 0 to 170
    more, so one run's wall time ranged 2.5-12.5 s (gamma1 = 0.9 still left
    a quartile spread of 11 %). The empty config's own seed 0 is used.
    """

    name = "train-default"

    def config_text(self) -> str:
        return ""

    def probe_seed(self) -> int:
        return 0


class LargePool(Workload):
    """4x the default pool from CSV, 5 % labeled, one stage of 5 retraining epochs.

    gamma1 = 0.9 and a single stage keep the work the same on every seed:
    stage 1 then takes 2660 +- 2 of the 2964 candidates, where at the default
    0.99 it took 600 to 2600, and later stages took 0 to 600 more and ran KNN
    against the grown pool, so one command's wall time varied fourfold. With
    one retraining epoch the EMA test macro-F1 ranged 0.68-0.94 over seeds;
    five bring the weak seeds to 0.92-0.95.
    """

    name = "large-pool"
    class_counts = (2000, 800, 240, 80)
    labeled_ratio = 0.05

    def prepare(self) -> None:
        data = self.work / "data"
        spec = self.work / "large.spec"
        spec.write_text(
            f"class_counts = {','.join(map(str, self.class_counts))}\nseed = {self.seed}\n"
        )
        _, code = run_cli(
            ["generate-data", "--spec", str(spec), "--out", str(data / "train.csv"),
             "--test-out", str(data / "test.csv"), "--test-per-class", str(TEST_PER_CLASS)],
            self.work / "prepare.log",
        )
        if code != 0:
            raise SystemExit(f"large-pool: generate-data exited with {code}")
        super().prepare()

    def config_text(self) -> str:
        data = self.work / "data"
        return (
            f"data_csv = {data / 'train.csv'}\ntest_csv = {data / 'test.csv'}\n"
            f"labeled_ratio = {self.labeled_ratio}\ngamma1 = 0.9\nstages = 1\nepochs_stage = 5\n"
            f"seeds = {self.seed}\n"
        )


class BaselineSweep(Workload):
    """Supervised-only label-ratio sweep: 4 ratios x 3 seeds, 12 short runs."""

    name = "baseline-sweep"
    epochs_warmup = 20

    def seeds(self) -> list[int]:
        return [3 * self.seed + i for i in range(3)]

    def config_text(self) -> str:
        return (f"mode = baseline\nepochs_warmup = {self.epochs_warmup}\n"
                f"seeds = {','.join(map(str, self.seeds()))}\n")

    def command(self, out_dir: Path) -> list[str]:
        return ["ablate", "--config", str(self.config), "--sweep", "label-ratio",
                "--out-dir", str(out_dir)]

    def probe_seed(self) -> int:
        return self.seeds()[0]

    def check(self, out_dir: Path) -> tuple[list[float], int, dict[str, str]]:
        path = out_dir / "label-ratio.csv"
        rows = checks.check_sweep_csv(path, LABEL_RATIOS, self.seeds())
        work = sum(self.epochs_warmup * checks.labeled_count(self.class_counts, float(r["value"]))
                   for r in rows)
        return [float(r["macro_f1"]) for r in rows], work, {"label-ratio.csv": checks.digest(path)}


WORKLOADS = {w.name: w for w in (TrainDefault, LargePool, BaselineSweep)}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_child(argv: list[str], log: Path) -> tuple[float, int, str]:
    """Run one child to completion; (wall seconds, exit code, stdout)."""
    with log.open("a") as err:
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=err, text=True, timeout=CHILD_TIMEOUT_S)
        wall = perf_counter() - t0
    with log.open("a") as fh:
        fh.write(proc.stdout)
    return wall, proc.returncode, proc.stdout


def run_cli(args: list[str], log: Path) -> tuple[float, int]:
    wall, code, _ = timed_child([sys.executable, "-m", "splal.cli", *args], log)
    return wall, code


def setup_time(wl: Workload, probes: int) -> tuple[float | None, set[tuple[int, ...]]]:
    """Median wall time of fresh processes that import, parse and build pools.

    One untimed probe first, so bytecode caches are written before timing.
    Also returns the distinct (labeled, unlabeled, test) sizes the probes built.
    """
    argv = [sys.executable, str(HERE / "probe_setup.py"), str(wl.config), str(wl.probe_seed())]
    times, pools = [], set()
    for i in range(probes + 1):
        wall, code, out = timed_child(argv, wl.work / "setup.log")
        if code != 0:
            raise SystemExit(f"{wl.name}: set-up probe exited with {code}")
        pools.add(tuple(int(x) for x in out.split()))
        if i:
            times.append(wall)
    return (statistics.median(times) if times else None), pools


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "splal" / "cli.py").is_file():
        print(f"error: {SRC / 'splal'} not found; run from a splal checkout", file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    wl.prepare()

    problems: list[str] = []
    setup_s, pools = setup_time(wl, 0 if args.trace else SETUP_PROBES)
    if pools != {wl.expected_pools()}:
        problems.append(f"set-up probes built pools {sorted(pools)}, expected {wl.expected_pools()}")

    walls: list[float] = []
    ok_dirs: list[Path] = []
    attempted = failed = 0
    start = perf_counter()
    while attempted < MIN_ROUNDS or perf_counter() - start < args.seconds:
        out_dir = work / f"round_{attempted}"
        wall, code = run_cli(wl.command(out_dir), work / "rounds.log")
        attempted += 1
        if code == 0:
            walls.append(wall)
            ok_dirs.append(out_dir)
        else:
            failed += 1
    if not walls:
        print(f"error: every {args.workload} command failed; see {work / 'rounds.log'}",
              file=sys.stderr)
        return 1

    if args.trace:
        out_dir = work / "traced"
        traced_wall, code, _ = timed_child(
            [sys.executable, str(HERE / "traced.py"), str(work / "spans.npz"), "--",
             *wl.command(out_dir)],
            work / "traced.log",
        )
        if code != 0:
            print(f"error: the traced command exited with {code}; see {work / 'traced.log'}",
                  file=sys.stderr)
            return 1
        attempted += 1
        ok_dirs.append(out_dir)

    f1s: list[float] = []
    sample_epochs = 0
    try:
        results = [wl.check(d) for d in ok_dirs]
        checks.check_same_digests([digests for _, _, digests in results])
        f1s, sample_epochs, _ = results[0]
    except (checks.CheckError, OSError, KeyError, ValueError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    wall_s = statistics.median(walls)
    if args.trace:
        values = traced.layer_metrics(work / "spans.npz")
        values["trace.overhead_s"] = traced_wall - wall_s
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "sample_epochs_per_s": sample_epochs / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "macro_f1": statistics.fmean(f1s) if f1s else 0.0,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
