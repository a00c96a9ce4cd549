"""Tiny-scale smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for a fraction of a second at scale 1, traced and
untraced, and checks the output format, the fingerprints' repeatability
and that the checks can fail.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_engine()   # puts this checkout's src/ first on sys.path

import workloads  # noqa: E402

SPEC = run.load_spec()


def run_tiny(workload, trace, out_dir, capsys, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace), "--scale", "1", "--out", str(out_dir)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_prints_every_metric(workload, trace, tmp_path, capsys):
    code, result = run_tiny(workload, trace, tmp_path, capsys)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    record = json.loads((tmp_path / ("%s-seed3-trace%d.json" % (workload, trace)))
                        .read_text(encoding="utf-8"))
    assert record["params"]["seed"] == 3 and record["nproc"] >= 1


def test_traced_htap_repeats_its_fingerprints(tmp_path, capsys):
    first = run_tiny("htap", 1, tmp_path / "a", capsys)[1]["metrics"]
    second = run_tiny("htap", 1, tmp_path / "b", capsys)[1]["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")
              and not m["name"].startswith(("storage.", "txn."))]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    prints = [json.loads((tmp_path / d / "htap-seed3-trace1.json").read_text())["fingerprint"]
              for d in ("a", "b")]
    assert prints[0] == prints[1]
    assert set(prints[0]["state_counts"]) == {"S2", "S3-IS"}


def test_traced_admissions_have_every_child_span(tmp_path, capsys):
    run_tiny("htap", 1, tmp_path, capsys)
    for seg in range(workloads.SEGMENTS):
        path = tmp_path / ("htap-seed3-seg%d-spans.jsonl" % seg)
        spans = [json.loads(line) for line in path.open(encoding="utf-8")]
        admissions = {s["id"]: set() for s in spans if s["name"] == "scheduler.run_query"}
        for span in spans:
            if span["parent"] in admissions:
                name = span["name"]
                admissions[span["parent"]].add(
                    "olap.execute" if name.startswith("olap.execute.") else name)
        assert admissions
        for children in admissions.values():
            assert children == {"rde.freshness", "rde.migrate",
                                "olap.choose_access_paths", "olap.execute"}


def test_tracing_overhead_needs_a_matching_untraced_run(tmp_path, capsys):
    run_tiny("htap", 0, tmp_path, capsys)
    run_tiny("htap", 1, tmp_path, capsys)
    record = json.loads((tmp_path / "htap-seed3-trace1.json").read_text())
    assert set(record["tracing_overhead"]) == set(record["end_to_end"])
    run.main(["--workload", "htap", "--seed", "3", "--seconds", "0.3", "--trace", "1",
              "--scale", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    record = json.loads((tmp_path / "htap-seed3-trace1.json").read_text())
    assert "tracing_overhead" not in record


def test_checks_catch_a_wrong_answer_and_a_lost_order():
    import oracle
    from htaplite.config import RunConfig
    from htaplite.experiments import EngineRig

    cfg = RunConfig(scale_factor=1, seed=5, alpha=workloads.ALPHA)
    rig = EngineRig(cfg)
    reader = workloads.Reader(rig, cfg, 1, None)
    for _ in range(3):
        reader.run_one()
    assert oracle.check_answers(reader.admissions, rig.ctl.handles) == []
    plan, tag, fences, result = reader.admissions[1]
    result.rows[0] = (result.rows[0][0] + 1.0,)
    assert len(oracle.check_answers(reader.admissions, rig.ctl.handles)) == 1
    assert oracle.check_new_orders((100, 10), (95, 25), 5, 15) == []
    assert len(oracle.check_new_orders((100, 10), (96, 25), 5, 15)) == 1


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "htap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_clock_divides_by_the_factor_of_the_moment():
    import hostspeed

    clock = hostspeed.HostClock()
    clock.starts = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    clock.ends = [s + 1.0 for s in clock.starts]
    clock.factors = [2.0, 2.0, 2.0, 9.0, 2.0, 2.0, 2.0]
    # the one slow reference timing is outvoted by its neighbours, and the
    # reference timings themselves are left out of a span
    assert clock.span(1.0, 65.0) == pytest.approx((65.0 - 1.0 - 6.0) / 2.0)
    assert clock.adjust([5.0, 35.0, 70.0], [0.4, 1.0, 3.0]) == pytest.approx([0.2, 0.5, 1.5])
    clock.factors = [1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0]
    assert clock.span(41.0, 51.0) == pytest.approx(9.0 / 4.0)
    assert clock.adjust([1.0, 55.0], [1.0, 1.0]) == pytest.approx([1.0, 0.25])
