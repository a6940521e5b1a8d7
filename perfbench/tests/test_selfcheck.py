"""Fast self-check of the benchmark runner on a 1 s input.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))

# every metric the benchmark must report; failed runs are the result's
# "failed" out of "attempted"
END_TO_END = {"rtf", "peak_rss_mb", "setup_s", "cd_db"}
PER_LAYER = {
    "delta_cd_db", "t60_err_s", "drr_err_db", "fallbacks", "variance_clamps",
    *(f"lognorm.{op}.{m}" for op in ("split_distributed_obs", "logsum_moments")
      for m in ("s", "calls", "us_p50", "us_p99")),
    "lognorm.split_scalar_obs.s", "lognorm.split_scalar_obs.us_p50",
    "lognorm.split_scalar_obs.us_p99", "lognorm.split_scalar_obs.fallbacks",
    "lognorm.split_distributed_obs.step8.fallbacks",
    "lognorm.split_distributed_obs.step10.fallbacks",
    "lognorm.logsum_moments.clamps", "lognorm.split_scalar_obs.clamps",
    "lognorm.split_distributed_obs.step8.clamps", "lognorm.split_distributed_obs.step10.clamps",
    "lognorm.split.fallback_ratio", "lognorm.line_constrained_update.s", "lognorm.fuse_moments.s",
    "speech.kf.s", "enhancer.loop_self.s", "enhancer.frame.us_p50", "enhancer.frame.us_p99",
    "enhancer.decay_priors.s", "enhancer.decay_priors.prior_bins",
    "speech.log_mmse_preclean.s", "speech.estimate_ar.s", "enhancer.track_noise.s",
    "stft.stft.s", "stft.istft.s", "enhancer.trace_mb", "simkit.make_scene.s", "trace_overhead",
    "rtf_wall", "probe.kernel_us",
}


def tiny_scene(seed):
    return run.room_g_scene(1.0, seed)


@pytest.fixture(scope="module")
def tiny_runs():
    return {trace: run.measure("tiny", tiny_scene, 0, 0.0, trace) for trace in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
def test_every_metric_emitted_with_its_unit(tiny_runs, trace):
    report, result, samples = tiny_runs[trace]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared_metrics(trace)
    assert set(result["metrics"]) == set(declared)
    assert (PER_LAYER if trace else END_TO_END) <= set(declared)
    for name, m in result["metrics"].items():
        assert m["unit"] == declared[name]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    assert len(samples) == report["input_samples"] and len(report["sha256"]) == 64


def test_traced_layers_add_up(tiny_runs):
    m = {k: v["value"] for k, v in tiny_runs[1][1]["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in ("stft", "speech", "lognorm", "enhancer"))
    assert layers == pytest.approx(m["enhance.traced_s"], rel=1e-9)
    steps = ("lognorm.split_scalar_obs.fallbacks", "lognorm.split_distributed_obs.step8.fallbacks",
             "lognorm.split_distributed_obs.step10.fallbacks")
    assert sum(m[k] for k in steps) == m["fallbacks"]


def test_missing_trace_target_fails_loudly(monkeypatch):
    import reverbtrack.lognorm as lognorm

    original = lognorm.fuse_moments
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("reverbtrack.lognorm", "no_such_op", "lognorm.no_such_op")])
    with pytest.raises(RuntimeError, match="no_such_op is missing"):
        with tracer.Tracing(tracer.Recorder(lognorm.Diagnostics)):
            pass
    assert lognorm.fuse_moments is original


def test_uncalled_trace_target_fails_loudly():
    from reverbtrack.lognorm import Diagnostics

    rec = tracer.Recorder(Diagnostics)
    rec.close(rec.open(tracer.ROOT))
    with pytest.raises(RuntimeError, match="never called"):
        tracer.derive(rec, 0, 0)


def test_compare_identical_result_sets(tiny_runs, tmp_path, capsys):
    report, result, samples = tiny_runs[0]
    for side in ("a", "b"):
        run.save(tmp_path / side, report, result, samples)
    run.compare(tmp_path / "a", tmp_path / "b")
    row = json.loads(capsys.readouterr().out.strip())
    assert row["same_sha256"] and row["max_abs_dsample"] == 0.0
    assert set(row["abs_dquality"]) == set(run.QUALITY)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / run.SPEC.name)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "room_g_4s",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
