"""The run directory's audit CSVs against the record writer they replaced.

The reference builds one dict per audited row, holding numpy rows, and writes
each CSV whole with `repr(float(x))` cells. `write_run_dir` streams the same
files from the per-stage arrays; both must give the same bytes.
"""

import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from splal.config import ExperimentConfig
from splal.orchestrator import StageAudit, run, write_audits, write_run_dir
from splal.pseudo import Ensemble
from splal.selector import GateResult

from test_golden import csv_config
from test_orchestrator import tiny_config

AUDITS = ("selector_audit.csv", "pseudo_audit.csv")


def reference_records(stage_audits) -> dict:
    """The per-row audit records, as the stage loop used to collect them."""
    selector, pseudo = [], []
    for a in stage_audits:
        g, pred = a.gate, a.pred
        selector.extend(
            {"stage": a.stage, "sample_id": sid, "similarities": w, "posterior": v,
             "reliable": ok, "winning_class": winner if ok else None}
            for sid, w, v, ok, winner in zip(
                a.ids.tolist(), g.similarities, g.posterior, g.reliable.tolist(), g.winners.tolist()
            )
        )
        winners = pred.combined.argmax(axis=1)
        pseudo.extend(
            {"stage": a.stage, "sample_id": int(a.ids[i]),
             "linear": pred.linear[j], "knn": pred.knn[j], "sim": pred.similarity[j],
             "combined": pred.combined[j], "predicted": int(winners[j]), "true_label": int(a.truth[j])}
            for j, i in enumerate(a.chosen)
        )
    return {"selector": selector, "pseudo": pseudo}


def _reprs(values) -> list[str]:
    return [repr(float(x)) for x in values]


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def reference_write(out: Path, num_classes: int, audits: dict) -> None:
    """Both audit CSVs, each built whole as a list of rows before writing."""
    k = range(num_classes)
    _write_csv(out / "selector_audit.csv", [
        ["stage", "sample_id", *(f"w{i}" for i in k), *(f"v{i}" for i in k),
         "reliable", "winning_class"],
        *([rec["stage"], rec["sample_id"], *_reprs(rec["similarities"]), *_reprs(rec["posterior"]),
           int(rec["reliable"]), "" if rec["winning_class"] is None else rec["winning_class"]]
          for rec in audits["selector"]),
    ])
    parts = ("linear", "knn", "sim", "combined")

    def pseudo_row(rec: dict) -> list:
        truth = rec["true_label"]
        return [rec["stage"], rec["sample_id"], *(x for p in parts for x in _reprs(rec[p])),
                truth, int(rec["predicted"] == truth)]

    _write_csv(out / "pseudo_audit.csv", [
        ["stage", "sample_id", *(f"{p}{i}" for p in parts for i in k), "true_label", "correct"],
        *map(pseudo_row, audits["pseudo"]),
    ])


def _check_against_reference(tmp_path, cfg, seed, min_pseudo_rows):
    result = run(cfg, seed, collect_audits=True)
    new, ref = tmp_path / "new", tmp_path / "ref"
    write_run_dir(new, cfg, seed, result)
    ref.mkdir()
    records = reference_records(result.stage_audits)
    reference_write(ref, cfg.num_classes, records)
    for name in AUDITS:
        assert (new / name).read_bytes() == (ref / name).read_bytes(), name
    pseudo_lines = (new / "pseudo_audit.csv").read_text().count("\n")
    assert pseudo_lines >= 1 + min_pseudo_rows
    # The records view the acceptance and golden tests read agrees with the reference.
    keys = ("stage", "sample_id", "predicted")
    assert result.audits["pseudo"] == [{key: rec[key] for key in keys} for rec in records["pseudo"]]


@pytest.mark.parametrize("cfg, seed, min_pseudo_rows", [
    (tiny_config(gamma1=0.8, stages=3), 0, 1),
    (ExperimentConfig(mode="baseline"), 0, 0),
], ids=["small-default", "baseline"])
def test_audits_match_reference_writer(tmp_path, cfg, seed, min_pseudo_rows):
    _check_against_reference(tmp_path, cfg, seed, min_pseudo_rows)


def test_audits_match_reference_writer_on_permuted_csv(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    _check_against_reference(tmp_path, csv_config(data), 0, 1)


def test_no_audits_kept_or_written_without_collection(tmp_path):
    cfg = tiny_config(gamma1=0.8, stages=3)
    result = run(cfg, 0)
    assert result.stage_audits is None and result.audits is None
    assert result.stage_reports and result.stage_reports[0].num_selected
    write_run_dir(tmp_path, cfg, 0, result)
    assert not any((tmp_path / name).exists() for name in AUDITS)
    assert (tmp_path / "metrics.json").exists()


def test_knn_votes_over_every_labeled_row_when_k_exceeds_them(tmp_path):
    # 100 neighbours of a 78-row labeled pool: each stage-0 query votes over all of it, so its
    # knn columns are the labeled pool's mean target row, whatever the distances.
    cfg = ExperimentConfig(knn_k=100, stages=1)
    result = run(cfg, 0, collect_audits=True)
    state = result.state
    assert state.num_truth < cfg.knn_k
    mean = state.targets[: state.num_truth].mean(axis=0).tolist()
    write_run_dir(tmp_path, cfg, 0, result)
    with (tmp_path / "pseudo_audit.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {row["stage"] for row in rows} == {"0"}
    for row in rows:
        assert [float(row[f"knn{i}"]) for i in range(cfg.num_classes)] == mean


def test_audit_writing_memory_is_bounded_by_the_block(tmp_path):
    # With each column converted whole, a 20 000-row stage holds every cell as a Python
    # object at once (8.5 MB traced); a block of rows at a time, the traced peak stays under
    # 2 MB. The bytes equal the reference writer's over fully built rows.
    n, m, k = 20_000, 5_000, 4
    rng = np.random.default_rng(0)
    posterior = rng.dirichlet(np.ones(k), size=n)
    chosen = np.sort(rng.choice(n, size=m, replace=False))
    reliable = np.zeros(n, dtype=bool)
    reliable[chosen] = True
    gate = GateResult(rng.uniform(-1.0, 1.0, size=(n, k)), posterior, reliable,
                      np.where(reliable, posterior.argmax(axis=1), -1))
    linear, knn = rng.dirichlet(np.ones(k), size=m), rng.dirichlet(np.ones(k), size=m)
    similarity = np.eye(k)[posterior[chosen].argmax(axis=1)]
    combined = 0.3 * linear + 0.3 * knn + 0.4 * similarity
    audit = StageAudit(0, np.arange(n) * 3 + 1, gate, chosen, Ensemble(linear, knn, similarity, combined),
                       combined.argmax(axis=1), rng.integers(0, k, size=m))
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()
    tracemalloc.start()
    try:
        write_audits(new, k, [audit])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reference_write(ref, k, reference_records([audit]))
    for name in AUDITS:
        assert (new / name).read_bytes() == (ref / name).read_bytes(), name
    assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MB"
