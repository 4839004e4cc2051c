"""Tests of the benchmark itself: output contract, correctness gate, refusal.

Run from the repository root with ``python3 -m pytest bench -q``.  They use
the ``--smoke`` sizes, so all of them take well under a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_the_contract_line(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    detail = json.loads(lines[-2])["detail"]
    if not trace:
        assert detail["end_to_end"]["fail_frac"]["value"] == 0.0
    assert {"python", "numpy", "scipy", "blas", "nproc", "git_commit",
            "loadavg_start", "loadavg_end"} <= set(detail["environment"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "s2-bandlimit", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _smoke_s2(tally):
    wl = workloads.S2Bandlimit(5, True, tally, Tracer(), "")
    wl.setup()
    return wl


def test_gate_counts_a_wrong_output_as_a_failure(monkeypatch):
    tally = workloads.Tally()
    wl = _smoke_s2(tally)
    assert tally.failed == 0
    good = workloads.sp.synthesize_at
    monkeypatch.setattr(workloads.sp, "synthesize_at",
                        lambda c, pts: good(c, pts) + 1e-6)
    attempted = tally.attempted
    tally.run(lambda: wl._op(0, wl.ladder[0], "synthesize_at"))
    assert (tally.attempted - attempted, tally.failed) == (1, 1)
    assert "synthesize_at residual" in tally.errors[0]


def test_gate_counts_an_exception_as_a_failure(monkeypatch):
    tally = workloads.Tally()
    wl = _smoke_s2(tally)

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")
    monkeypatch.setattr(workloads.sp, "funk_direct", broken)
    tally.run(lambda: wl._op(0, wl.ladder[0], "funk_inversion"))
    assert tally.failed == 1 and "injected" in tally.errors[0]


def test_ball_verdict_mismatch_fails(monkeypatch):
    tally = workloads.Tally()
    wl = workloads.ClassifySweep(2, True, tally, Tracer(), "")
    wl.setup()
    assert tally.failed == 0
    real = workloads.sb.classify_K_alpha

    def flipped(body, alpha, **kwargs):
        v = real(body, alpha, **kwargs)
        v.member = "no" if v.member == "yes" else "yes"
        return v
    monkeypatch.setattr(workloads.sb, "classify_K_alpha", flipped)
    ball, known, alphas = wl.work[0]
    assert known == "ball"
    tally.run(lambda: wl._op(ball, known, alphas[0]))
    assert tally.failed == 1


def test_tracer_restores_every_function_and_times_self():
    from coslab import multipliers, sphere

    before = (multipliers.m_mult, sphere.analyze, sphere.S2Grid.legendre_table)
    tracer = Tracer()
    tracer.install()
    grid = sphere.S2Grid(10)
    f = sphere.GridFunction(grid, np.ones((10, 20)))
    sphere.apply_spectral(sphere.analyze(f, 4), "M", alpha=0.5)
    tracer.uninstall()
    assert (multipliers.m_mult, sphere.analyze, sphere.S2Grid.legendre_table) == before
    names = [s[1] for s in tracer.spans]
    assert {"sphere.S2Grid.__init__", "sphere.analyze", "sphere.apply_spectral",
            "sphere.S2Grid.legendre_table", "zonal.gauss_jacobi_rule"} <= set(names)
    assert tracer.scalars["setup"][0] == 5          # m_mult for degrees 0..4
    assert tracer.legendre["setup"] == [1, 1]
    for span in tracer.spans:
        assert 0.0 <= span[7] <= span[3] - span[2] + 1e-12


def test_fast_pass_sums_each_operations_fastest_time():
    assert run.fast_pass("ab", [[3.0, 1.0, 2.0], [0.5, 0.7]]) == 1.5
    # operations of one kind share their fastest time
    assert run.fast_pass("aba", [[3.0, 2.0], [0.5], [1.0, 4.0]]) == 2.5


def test_every_s2_operation_runs_one_check():
    wl = _smoke_s2(workloads.Tally())
    assert len(wl.ops()) == wl.per_L * sum(len(wl.checks(L)) for L in wl.ladder)


def test_tail_latency_uses_ten_samples_beyond():
    samples = [float(k) for k in range(100)]
    value, pct = run.tail_latency(samples)
    assert value == 89.0 and pct == 90.0
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
