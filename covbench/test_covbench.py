"""Tests of the benchmark itself, on its smoke item sets.

Run with: python3 -m pytest -q covbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import compare
import host
import run
import workloads as wl

BENCHMARK = os.path.join(wl.ROOT, "BENCHMARK.json")


def _spec():
    with open(BENCHMARK) as f:
        return json.load(f)


def _bench(*args, cwd=wl.ROOT, script=os.path.join(wl.HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_metric(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-2])["covbench"]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert report["failed_frac"] == 0.0
    assert report["environment"]["backend"] in ("pure", "c")
    names = {m["name"] for m in _spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    done = _bench("--workload", "cli-mixed", "--seed", "3", "--seconds", "0",
                  "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] > 0
    assert result["metrics"]["import.covercalc_cli.calls"]["value"] > 1


@pytest.mark.parametrize("workload", ["sigma-sweep", "phi-oracle", "cli-mixed"])
def test_corrupted_golden_makes_failed_frac_nonzero(workload, monkeypatch, capsys):
    items = run.load_golden(workload)
    first = run.smoke_items(workload, items)[0]
    if workload == "sigma-sweep":
        first["digest"] = "0" * 16
    elif workload == "phi-oracle":
        first["digests"] = {p: "0" * 16 for p in first["digests"]}
    else:
        for variant in first:
            variant["stdout_sha256"] = "0" * 64
    monkeypatch.setattr(run, "load_golden", lambda name: items)
    run.measure(run.parse_args(["--workload", workload, "--seed", "3",
                                "--seconds", "0", "--smoke"]))
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[-2])["covbench"]
    result = json.loads(lines[-1])
    assert report["failed_frac"] > 0
    assert result["failed"] >= 1 and not result["correct"]


def test_blowups_are_killed_at_the_budget(monkeypatch):
    monkeypatch.setitem(run.BUDGET_S, "phi-oracle", 0.5)
    monkeypatch.setitem(run.BUDGET_S, "cli-mixed", 0.5)
    cc = wl.load_program()
    phi = run.Workload("phi-oracle", cc, [], True, None)
    entry = run.PHI_BLOWUPS[0]
    assert phi.run("phi-blowup", (entry, entry["puncture"])) == (
        0.5, "killed at the time budget")
    cli = run.Workload("cli-mixed", cc, [], True, None)
    for blowup in run.CLI_BLOWUPS:
        assert cli.run("cli-blowup", blowup) == (0.5, "killed at the time budget")


def test_seed_fixes_the_items():
    cc = wl.load_program()
    items = run.load_golden("phi-oracle")
    work = run.Workload("phi-oracle", cc, items, False, None)
    assert work.pass_items(5, 0) == work.pass_items(5, 0)
    assert work.pass_items(5, 0) != work.pass_items(6, 0)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(wl.HERE, tmp_path / "covbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "sigma-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "covbench" / "run.py"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_refuses_runs_with_different_backends(tmp_path):
    files = []
    for backend in ("pure", "c"):
        path = tmp_path / f"{backend}.txt"
        report = {"covbench": {"workload": "sigma-sweep",
                               "environment": {"backend": backend}}}
        result = {"metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}
        path.write_text(json.dumps(report) + "\n" + json.dumps(result) + "\n")
        files.append(str(path))
    assert compare.main([files[0], "--against", files[1]]) == 1
    assert compare.main([files[0], "--against", files[0]]) == 0


def test_host_clock_samples_during_an_item_and_counts_its_own_time():
    clock = host.HostClock.loop()
    clock.sample(clock.side)
    t0 = time.perf_counter()
    clock.start_timer()
    try:
        while time.perf_counter() - t0 < 0.3:
            pass
    finally:
        clock.stop_timer()
    t1 = time.perf_counter()
    clock.sample(clock.side)
    during = [t for t in clock.times if t0 <= t <= t1]
    assert len(during) >= 3
    assert 0 < clock.timer_s < t1 - t0
    assert clock.times == sorted(clock.times)
    assert clock.factor(t0, t1) > 0


def test_host_factor_is_the_median_of_the_nearest_samples():
    clock = host.HostClock(lambda: 1.0, 1.0, side=8, warm_up=0)
    clock.times = [float(t) for t in range(40)]
    clock.samples = [1.0] * 40
    clock.samples[20] = 100.0  # one spike does not count
    assert clock.factor(19.5, 20.5) == 1.0
    clock.samples[10:30] = [2.0] * 20
    assert clock.factor(19.5, 20.5) == 2.0
