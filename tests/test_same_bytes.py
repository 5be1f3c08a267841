"""tools/same_bytes.py's comparison, audit guard and failure exits, with no CLI run.

The script is imported by path. Only the bogus-revision test starts a
process, `git archive`; the others start none.
"""

import importlib.util
import os
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def write(root: Path, name: str, data: bytes) -> None:
    (root / name).parent.mkdir(parents=True, exist_ok=True)
    (root / name).write_bytes(data)


def test_files_on_one_side_only_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "seed_0/metrics.json", b"{}")
    write(b, "seed_0/metrics.json", b"{}")
    write(a, "seed_1/metrics.json", b"{}")
    write(b, "evaluate/roc.csv", b"")
    assert same_bytes.differing_files(a, b) == ["evaluate/roc.csv", "seed_1/metrics.json"]


def test_same_size_files_with_other_bytes_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for name, left, right in (("same.csv", b"0.5\n", b"0.5\n"), ("moved.csv", b"0.5\n", b"0.6\n")):
        write(a, name, left)
        write(b, name, right)
    assert same_bytes.differing_files(a, b) == ["moved.csv"]


def test_report_names_each_pair(tmp_path):
    outs = {run: tmp_path / run for run in same_bytes.RUNS}
    for root in outs.values():
        write(root, "default/seed_0/metrics.json", b"{}")
        write(root, "ablate.stdout", b"done\n")
    assert same_bytes.mismatches(outs) == []
    write(outs["base-pool-1"], "default/seed_0/metrics.json", b"[]")
    write(outs["tree-core-2"], "ablate.stdout", b"DONE\n")
    assert same_bytes.mismatches(outs) == [
        "differs: default/seed_0/metrics.json (base-pool-1 against tree-pool-1)",
        "differs: ablate.stdout (tree-pool-1 against tree-core-2)",
    ]


def test_runs_cover_pools_and_threads():
    assert same_bytes.REFERENCE == "tree-pool-1"
    assert {run.split("-", 1)[1] for run in same_bytes.RUNS[1:]} == {"pool-1", "core-1", "pool-2", "core-2"}
    assert len({len(run) for run in same_bytes.RUNS}) == 1


def test_audit_guard_names_empty_and_missing_audits(tmp_path):
    assert len(same_bytes.AUDITS) == 9
    for name in same_bytes.AUDITS:
        write(tmp_path, name, b"stage,sample_id\n0,7\n")
    assert same_bytes.empty_audits(tmp_path) == []
    write(tmp_path, "noalign/seed_1/pseudo_audit.csv", b"stage,sample_id\n")
    (tmp_path / "large/seed_0/pseudo_audit.csv").unlink()
    assert same_bytes.empty_audits(tmp_path) == ["large/seed_0/pseudo_audit.csv", "noalign/seed_1/pseudo_audit.csv"]


def no_cli_run(*args, **kwargs):
    raise AssertionError("a CLI run was started")


def test_unknown_revision_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(same_bytes, "run_commands", no_cli_run)
    assert same_bytes.main(["--base", "no-such-rev"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no-such-rev" in err and "Traceback" not in err


def test_no_affinity_call_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(subprocess, "run", no_cli_run)
    assert same_bytes.main(["--base", "HEAD"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "HEAD" in err and "one core" in err


def test_each_copy_gets_its_own_fresh_cache_home(tmp_path, monkeypatch):
    # compare() with the copies, the CLI and the audit guard stubbed out: every
    # command would run with the environment recorded here.
    seen = []

    def record(argv, **kwargs):
        seen.append((Path(kwargs["cwd"]).name, kwargs["env"]))
        return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    monkeypatch.setattr(same_bytes, "extract_revision", lambda rev, dest: None)
    monkeypatch.setattr(same_bytes, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(same_bytes, "empty_audits", lambda out: [])
    monkeypatch.setattr(same_bytes.subprocess, "run", record)
    assert same_bytes.compare("HEAD", tmp_path) == 0
    per_run = len(same_bytes.commands(tmp_path, tmp_path))
    assert len(seen) == len(same_bytes.RUNS) * per_run
    caches = {"base": tmp_path / "cache-base", "tree": tmp_path / "cache-tree"}
    assert not any(cache.exists() for cache in caches.values())  # nothing ran, so nothing was cached
    for i, (copy, env) in enumerate(seen):
        run = same_bytes.RUNS[i // per_run]
        assert copy == run.split("-")[0] and env["PYTHONPATH"] == str(tmp_path / copy / "src")
        assert env["XDG_CACHE_HOME"] == str(caches[copy])
        assert env["OPENBLAS_NUM_THREADS"] == run.split("-")[2]
        assert env["PYTHONWARNINGS"] == "error::RuntimeWarning"
    # REV's run is the base cache's only run; the reference is the tree's first, so it parses and the later three hit.
    assert [run.split("-")[0] for run in same_bytes.RUNS] == ["base"] + ["tree"] * 4
    assert same_bytes.REFERENCE == same_bytes.RUNS[1]
    assert not any(Path(env["XDG_CACHE_HOME"]).is_relative_to(tmp_path / "out") for _, env in seen)
