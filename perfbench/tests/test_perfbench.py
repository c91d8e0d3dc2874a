"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import clidocs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _fields(req):
    return req.kind, req.argv, req.files, req.expect, req.defect


def test_seed_determinism():
    a, pa = clidocs.generate(7, 300)
    b, pb = clidocs.generate(7, 300)
    c, _ = clidocs.generate(8, 300)
    assert [_fields(r) for r in a + pa] == [_fields(r) for r in b + pb]
    assert [_fields(r) for r in a] != [_fields(r) for r in c]


def test_documents_are_distinct():
    requests, _ = clidocs.generate(5, 500)
    texts = [tuple(r.files.values()) for r in requests if r.files]
    assert len(set(texts)) == len(texts)


def test_sweeps_ignore_the_seed():
    digests = set()
    for seed in (1, 2):
        lines = []
        result = run.run_workload("factor-sweep", seed, 0.0, False, tiny=True, emit=lines.append)
        assert result["correct"]
        digests.add(next(l for l in lines if l.startswith("work per pass")).split("digest=")[1].split()[0])
    assert len(digests) == 1


def test_malformed_classes_map_to_exit_classes(tmp_path):
    requests, probes = clidocs.generate(3, 1500)
    malformed = [r for r in requests if r.kind in clidocs.MALFORMED]
    assert {r.kind for r in malformed} == set(clidocs.MALFORMED)
    assert {r.defect for r in probes} == set(clidocs.DEFECTS)
    lofs = run.import_lofs()
    for req in malformed + probes:
        for name, text in req.files.items():
            (tmp_path / name).write_text(text)
    previous = os.getcwd()
    os.chdir(tmp_path)
    try:
        for req in malformed:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = lofs.cli.main(req.argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in req.expect, (req.kind, req.argv, code)
            assert out.getvalue() == ""
        for req in probes:
            raised_as, fixed_codes = clidocs.DEFECTS[req.defect]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = lofs.cli.main(req.argv)
                except Exception as exc:  # the known defect
                    assert type(exc).__name__ == raised_as
                else:
                    assert code in fixed_codes
    finally:
        os.chdir(previous)


def test_traced_self_times_sum_to_traced_total():
    lofs = run.import_lofs()
    tracer = tracing.Tracer({layer: getattr(lofs, layer) for layer in run.LAYERS}, keep_trees=2)
    order = lofs.order
    reps = [p for n in range(4) for p in order.enumerate_preorders(n)]
    total = 0.0
    for X in reps[:6]:
        tracer.begin(record=True)
        for Y in reps[:6]:
            for f in order.hom_maps(X, Y):
                lofs.factorisation.factorise(f)
        total += tracer.end(repr(X))
    assert sum(v[1] for v in tracer.stats.values()) == pytest.approx(total, rel=1e-9)
    fn = tracing.by_function(tracer.stats)
    assert fn["factorisation.factorise"][0] > 0
    assert fn["order.down_set_masks"][0] == fn["factorisation.factorise"][0]
    assert len(tracer.tail_trees()) == 2
    # nested calls were traced through the rebound module globals
    assert ("order.down_set_masks", "factorisation.factorise") in tracer.stats


def test_tail_rank_keeps_ten_beyond():
    for n in (21, 40, 65, 974, 2000, 10930):
        p, idx = run.tail_rank(n)
        assert n - idx - 1 >= 10
    assert run.tail_rank(10930)[0] == 99.9
    assert run.tail_rank(11) == (50, 5)  # too few units: the median


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace):
    lines = []
    result = run.run_workload(name, 1, 0.0, trace, tiny=True, emit=lines.append)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        # the report lines carry the metrics that stay out of the result
        for name in ("unit_p50_ms", "unit_tail_ms", "failed_frac"):
            assert any(line.startswith(name + " ") for line in lines), name


def test_sweeps_report_each_part():
    lines = []
    result = run.run_workload("sweeps", 1, 0.0, False, tiny=True, emit=lines.append)
    assert result["correct"], lines
    parts = [line.split()[1] for line in lines if line.startswith("part ")]
    assert parts == ["factor-sweep", "lift-sweep", "kan-classify"]


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
