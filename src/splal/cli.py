"""Command-line front door: data generation, training, evaluation, ablations.

Exit codes: 0 success, 1 usage/config error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

# One BLAS thread per process, set before numpy loads, unless one variable is set: then all
# stay as given, as OpenBLAS would read a default OPENBLAS_NUM_THREADS before OMP_NUM_THREADS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if not any(var in os.environ for var in THREAD_VARS):
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np

from .config import ExperimentConfig, config_to_text, load_config, parse_config
from .data import SyntheticSpec, checked_test_spec, generate, load_eval_csv, save_csv, write_manifest
from .errors import ConfigurationError, SplalError, TrainingError
from .model import load_checkpoint
from .orchestrator import Pools, evaluate_params, load_pools, run, write_csv, write_metrics, write_run_dir

USAGE_EXIT = 1
RUNTIME_EXIT = 2

LAMBDA2_GRID = (0.0, 0.10, 0.25, 0.40, 0.50, 0.60)
GAMMA1_GRID = (0.90, 0.95, 0.99, 0.995)
ALPHA_GRID = (
    (0.35, 0.35, 0.30),
    (0.35, 0.15, 0.50),
    (0.25, 0.25, 0.50),
    (0.15, 0.35, 0.50),
    (0.20, 0.10, 0.70),
    (0.15, 0.15, 0.70),
    (0.10, 0.20, 0.70),
)
COMBO_GRID = ("similarity+knn+linear", "similarity+linear", "similarity+knn")
LABEL_RATIO_GRID = (0.05, 0.10, 0.20, 0.30)
SWEEPS = ("lambda2", "gamma1", "alpha", "classifier-combo", "label-ratio")

METRIC_KEYS = (
    "accuracy", "macro_f1", "macro_auc", "macro_precision",
    "macro_recall", "macro_specificity",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def cmd_generate_data(args) -> int:
    spec = SyntheticSpec()
    if args.spec:
        spec = parse_config(Path(args.spec).read_text(), SyntheticSpec, "spec")
    spec.validate()  # every spec is checked before anything is written
    out = Path(args.out)
    outputs = [(spec, out)]
    if args.test_out:
        outputs.append((checked_test_spec("--test-per-class", args.test_per_class, spec), Path(args.test_out)))
    for data_spec, path in outputs:
        samples = generate(data_spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_csv(samples, path, data_spec.num_classes)
        write_manifest(path.with_suffix(path.suffix + ".manifest.json"), data_spec, path)
    print(f"wrote {sum(spec.class_counts)} samples to {out}")
    return 0


def _aggregate_rows(per_seed: dict[int, dict]):
    """One (metric, mean, sd) CSV row per metric over the seeds, as Python floats."""
    for key in METRIC_KEYS:
        values = np.array([m[key] for m in per_seed.values()])
        yield key, float(values.mean()), float(values.std(ddof=0))


def _map_runs(job, jobs: list[tuple], names: list[str]) -> list:
    """`job(*args)` for each args tuple, results in submission order.

    Independent runs go to min(usable CPUs, len(jobs)) workers forked from this
    process; with one worker they run here. Fork, not spawn: a spawned worker
    imports numpy and splal again (~0.25 s each), and this process starts no
    threads of its own. Workers inherit the job and its arguments, so no
    argument is pickled. They take job indices one at a time from a pipe and
    pickle each outcome into a temporary file of their own, so none blocks on
    its output. A failing job re-raises here, the first in submission order,
    and, as in-process, no job starts after it; a job whose worker died raises
    TrainingError with its name from `names`, after the other workers finished.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: stay in-process
        cpus = 1
    workers = min(cpus, len(jobs))
    if workers <= 1:
        return [job(*args) for args in jobs]

    def work(feed, out) -> None:
        while len(raw := feed.read(4)) == 4:
            i = int.from_bytes(raw, "little")
            try:
                outcome = (i, True, job(*jobs[i]))
            except Exception as exc:
                outcome = (i, False, exc)
            try:
                record = pickle.dumps(outcome)
            except Exception as exc:
                outcome = (i, False, TrainingError(f"the outcome of {names[i]} cannot be sent from its worker: {exc}"))
                record = pickle.dumps(outcome)
            out.write(record)
            out.flush()
            if not outcome[1]:  # empty the feed, so that no job starts after a failure
                while feed.read(4):
                    pass

    pids, outcomes = [], {}
    read_fd, write_fd = os.pipe()
    outs = [tempfile.TemporaryFile() for _ in range(workers)]
    with open(read_fd, "rb", buffering=0) as feed, open(write_fd, "wb", buffering=0) as fill:
        try:
            for out in outs:
                if (pid := os.fork()) == 0:  # a worker leaves only here, never into the caller's stack
                    try:
                        fill.close()  # else no worker would see the end of the feed
                        work(feed, out)
                    finally:
                        os._exit(0)  # the outcomes it wrote, not its exit code, tell how it went
                pids.append(pid)
            feed.close()
            try:
                for i in range(len(jobs)):
                    fill.write(i.to_bytes(4, "little"))  # a pipe write of 4 bytes is whole or blocks
            except BrokenPipeError:  # every worker has died; their jobs have no outcome
                pass
            fill.close()
            for pid, out in zip(list(pids), outs):
                os.waitpid(pid, 0)
                pids.remove(pid)
                outcomes.update(_read_outcomes(out))
        finally:
            for pid in pids:  # only on an error: end and reap the workers still running
                os.kill(pid, 9)  # SIGKILL; importing `signal` for its name adds ~0.25 MB to every CLI process
                os.waitpid(pid, 0)
            for out in outs:
                out.close()
    for i, name in enumerate(names):
        if i not in outcomes:
            raise TrainingError(f"a worker process ended abruptly (killed, out of memory, or exited) while running {name}")
        if not outcomes[i][0]:
            raise outcomes[i][1]
    return [outcomes[i][1] for i in range(len(jobs))]


def _read_outcomes(out) -> dict:
    """{index: (ok, value)} of the records a worker wrote to `out`, up to the first incomplete one."""
    out.seek(0)
    found = {}
    while True:
        try:
            i, ok, value = pickle.load(out)
        except (EOFError, pickle.UnpicklingError):
            return found
        found[i] = ok, value


def _train_job(cfg: ExperimentConfig, seed: int, seed_dir: Path, pools: Pools) -> dict:
    """One seed's run and run directory; returns its metrics."""
    result = run(cfg, seed, collect_audits=True, pools=pools)
    write_run_dir(seed_dir, cfg, seed, result)
    save_csv(pools[1], seed_dir / "test.csv", cfg.num_classes)
    return result.metrics


def run_training(cfg: ExperimentConfig, out_dir) -> dict[int, dict]:
    """One run per seed, each in its own subdirectory, plus an aggregate CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_to_text(cfg))
    pools = load_pools(cfg)
    metrics = _map_runs(_train_job, [(cfg, seed, out / f"seed_{seed}", pools) for seed in cfg.seeds],
                        [f"seed {seed}" for seed in cfg.seeds])
    per_seed = dict(zip(cfg.seeds, metrics))
    write_csv(out / "aggregate.csv", _aggregate_rows(per_seed), ["metric", "mean", "sd"])
    return per_seed


def cmd_train(args) -> int:
    cfg = load_config(args.config).normalized()
    cfg.validate()
    per_seed = run_training(cfg, args.out_dir)
    for seed, m in per_seed.items():
        print(f"seed {seed}: accuracy={m['accuracy']:.4f} macro_f1={m['macro_f1']:.4f} "
              f"macro_auc={m['macro_auc']:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    live, ema, meta = load_checkpoint(args.checkpoint)
    samples = load_eval_csv(args.data, "data", meta["height"], meta["width"], ema.num_classes)
    metrics = evaluate_params(ema, samples)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(out, metrics)
    print(f"accuracy={metrics['accuracy']:.4f} macro_f1={metrics['macro_f1']:.4f} "
          f"macro_auc={metrics['macro_auc']:.4f}")
    return 0


def sweep_configs(cfg: ExperimentConfig, sweep: str) -> list[tuple[str, ExperimentConfig]]:
    """Named grid of config variants for one ablation axis."""
    if sweep == "lambda2":
        return [(str(v), replace(cfg, lam1=1.0 - v, lam2=v)) for v in LAMBDA2_GRID]
    if sweep == "gamma1":
        return [(str(v), replace(cfg, gamma1=v, gamma2=None)) for v in GAMMA1_GRID]
    if sweep == "alpha":
        return [
            (f"{a1}/{a2}/{a3}", replace(cfg, alpha1=a1, alpha2=a2, alpha3=a3))
            for a1, a2, a3 in ALPHA_GRID
        ]
    if sweep == "classifier-combo":
        alphas = (cfg.alpha1, cfg.alpha2, cfg.alpha3)
        out = [(COMBO_GRID[0], cfg)]
        # The other combos drop the KNN (alpha2) or the linear (alpha1) weight
        # and renormalize the remaining two.
        for combo, dropped in zip(COMBO_GRID[1:], (1, 0)):
            kept = [0.0 if i == dropped else a for i, a in enumerate(alphas)]
            total = sum(kept)
            if total == 0.0:
                raise ConfigurationError(
                    f"classifier-combo: alphas {alphas} leave no weight for {combo!r}"
                )
            a1, a2, a3 = (a / total for a in kept)
            out.append((combo, replace(cfg, alpha1=a1, alpha2=a2, alpha3=a3)))
        return out
    if sweep == "label-ratio":
        return [(str(v), replace(cfg, labeled_ratio=v)) for v in LABEL_RATIO_GRID]
    raise ConfigurationError(f"unknown sweep {sweep!r}; expected one of {SWEEPS}")


def _sweep_job(sweep: str, value: str, cfg: ExperimentConfig, seed: int, pools: Pools) -> dict:
    """One sweep CSV row: the run's metrics and the recall of its rarest training class."""
    result = run(cfg, seed, pools=pools)
    m = result.metrics
    minority = int(np.argmin(np.bincount(result.state.pool.truth, minlength=cfg.num_classes)))
    row = {"sweep": sweep, "value": value, "seed": seed}
    row.update({key: m[key] for key in METRIC_KEYS})
    row["minority_recall"] = m["per_class"][minority]["recall"]
    return row


def run_sweep(cfg: ExperimentConfig, sweep: str, out_csv) -> list[dict]:
    """Long-form rows (sweep value, seed, metrics) across the whole grid."""
    jobs = []
    for value, variant in sweep_configs(cfg, sweep):
        variant = variant.normalized()
        variant.validate()
        jobs.extend((sweep, value, variant, seed) for seed in variant.seeds)
    pools = load_pools(cfg)  # no sweep changes a data field
    rows = _map_runs(_sweep_job, [(*args, pools) for args in jobs],
                     [f"{sweep} = {value}, seed {seed}" for sweep, value, _, seed in jobs])
    out_csv = Path(out_csv)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    columns = ["sweep", "value", "seed", *METRIC_KEYS, "minority_recall"]
    write_csv(out_csv, ([row[c] for c in columns] for row in rows), columns)
    return rows


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out_dir)
    rows = run_sweep(cfg, args.sweep, out / f"{args.sweep}.csv")
    print(f"wrote {len(rows)} rows to {out / (args.sweep + '.csv')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-data", help="write a synthetic dataset CSV + manifest")
    gen.set_defaults(handler=cmd_generate_data)
    gen.add_argument("--spec", help="flat key=value synthetic spec file (default: built-in benchmark)")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--test-out", help="also write a balanced held-out test CSV here")
    gen.add_argument("--test-per-class", type=int, default=ExperimentConfig.test_per_class)

    train = sub.add_parser("train", help="run training per the config, one run per seed")
    train.set_defaults(handler=cmd_train)
    train.add_argument("--config", required=True)
    train.add_argument("--out-dir", required=True)

    ev = sub.add_parser("evaluate", help="metrics from an EMA checkpoint on a labeled CSV")
    ev.set_defaults(handler=cmd_evaluate)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out-dir", required=True)

    ab = sub.add_parser("ablate", help="run one ablation sweep, emit a long-form CSV")
    ab.set_defaults(handler=cmd_ablate)
    ab.add_argument("--config", required=True)
    ab.add_argument("--sweep", required=True, choices=SWEEPS)
    ab.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (SplalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
