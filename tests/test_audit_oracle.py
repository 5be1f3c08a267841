"""The run directory's audit CSVs against the record writer they replaced.

The reference builds one dict per audited row, holding numpy rows, and writes
each CSV whole with `repr(float(x))` cells. `write_run_dir` streams the same
files from the per-stage arrays; both must give the same bytes.
"""

import csv
from pathlib import Path

import pytest

from splal.config import ExperimentConfig
from splal.orchestrator import run, write_run_dir

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
