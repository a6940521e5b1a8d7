"""reverbtrack benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload room_g_4s --seed 0 --seconds 5 --trace 0

Synthesises the workload's input from ``--seed`` with ``reverbtrack.simkit``,
then starts one fresh worker process (``worker.py``) that calls
``reverbtrack.enhance`` on it for ``--seconds`` and checks each call's
output. Times of the end-to-end metrics are scaled to a reference host
speed by ``probe.py``, which times a fixed kernel alongside them. The
last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer
metrics, derived from spans recorded around the package's functions. The
line before it is a full report (environment, sample counts, output
fingerprint, quality and fallback counts).

    python3 perfbench/run.py ... --out bench-results/a   # keep the result set
    python3 perfbench/run.py --compare bench-results/a bench-results/b

``--compare`` reports, per workload, the max |delta sample| of the enhanced
output and the |delta| of each quality metric between two result sets.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

ROOM_G = (0.61, -1.74)     # T60 s, DRR dB: the acceptance tests' condition G
SNR_DB = 20.0
UTTERANCE_SEED = 3         # the condition-G test utterance; --seed varies the acoustics
SETUP_REPEATS = 5
DEADLINE_S = 170.0         # the whole run ends within this, worker included
QUALITY = ("cd_db", "delta_cd_db", "t60_err_s", "drr_err_db", "fallbacks", "variance_clamps")


@dataclass
class Scene:
    noisy: np.ndarray      # the program's input
    clean: np.ndarray      # reference for the scored scene
    start: int             # first sample of the scored scene within noisy


def room_g_scene(duration_s, seed):
    from reverbtrack import RoomParams
    from reverbtrack.simkit import make_scene, speechlike_excitation

    clean = speechlike_excitation(duration_s, seed=UTTERANCE_SEED)
    noisy, _, _ = make_scene(clean, RoomParams(*ROOM_G), SNR_DB, "white", seed=seed)
    n = min(len(clean.samples), len(noisy.samples))
    return Scene(noisy.samples[:n], clean.samples[:n], 0)


def adversarial_recovery(seed):
    """The acceptance criterion-8 signal, then a 4 s condition-G scene.

    2 s each of silence, DC, clicks, clipped noise and full-scale noise
    drive the cascade through its degenerate branches; the scene after
    them gives the quality metrics a reference and measures recovery.
    """
    fs = 16000
    rng = np.random.default_rng(seed)
    parts = [
        np.zeros(2 * fs),
        np.full(2 * fs, 0.5),
        np.zeros(2 * fs),
        np.clip(rng.standard_normal(2 * fs), -1, 1),
        rng.uniform(-1.0, 1.0, 2 * fs),
    ]
    parts[2][::1600] = 1.0
    scene = room_g_scene(4.0, seed)
    start = sum(len(p) for p in parts)
    return Scene(np.concatenate(parts + [scene.noisy]), scene.clean, start)


WORKLOADS = {
    "room_g_4s": lambda seed: room_g_scene(4.0, seed),
    "room_g_30s": lambda seed: room_g_scene(30.0, seed),
    "adversarial_recovery": adversarial_recovery,
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env, deadline):
    """Median time to ``import reverbtrack`` in a fresh process.

    Each import is timed by ``probe.py`` in its own process and scaled to
    the probe's reference speed. The first import is not timed: it writes
    the bytecode cache, which is part of building the checkout rather
    than of setting up a run. Returns (median scaled s, every sample).
    """
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), "reverbtrack"],
                             env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=deadline - time.perf_counter())
        if i:
            samples.append(json.loads(out.stdout))
    return statistics.median(s["scaled_s"] for s in samples), samples


def run_workers(scene, seconds, traces, env, timeout):
    """Run one worker per entry of ``traces`` concurrently on the scene.

    Returns one (summary, arrays) pair per worker.
    """
    buf = io.BytesIO()
    np.save(buf, scene.noisy)
    procs = []
    try:
        for trace in traces:
            procs.append(subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env, cwd=ROOT))
        with ThreadPoolExecutor(len(procs)) as pool:
            futures = [pool.submit(proc.communicate, buf.getvalue(), timeout)
                       for proc in procs]
            outs = [f.result() for f in futures]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    results = []
    for proc, (stdout, stderr) in zip(procs, outs):
        if proc.returncode != 0:
            sys.stderr.write(stderr.decode(errors="replace"))
            raise SystemExit(f"worker exited with code {proc.returncode}")
        with np.load(io.BytesIO(stdout)) as npz:
            data = {k: npz[k] for k in npz.files}
        results.append((json.loads(str(data.pop("summary"))), data))
    return results


def quality(scene, data, summary):
    """Output quality of the scored scene, measured on the run's own output."""
    from reverbtrack import AudioBuffer
    from reverbtrack.simkit import cepstral_distance

    span = slice(scene.start, scene.start + len(scene.clean))
    ref = AudioBuffer(scene.clean)
    cd_enh = cepstral_distance(ref, AudioBuffer(data["samples"][span]))
    cd_noisy = cepstral_distance(ref, AudioBuffer(scene.noisy[span]))
    return {
        "cd_db": cd_enh,
        "delta_cd_db": cd_enh - cd_noisy,
        "t60_err_s": abs(float(np.median(data["t60"])) - ROOM_G[0]),
        "drr_err_db": abs(float(np.median(data["drr"])) - ROOM_G[1]),
        "fallbacks": summary["fallbacks"],
        "variance_clamps": summary["variance_clamps"],
    }


def git_commit():
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def declared_metrics(trace):
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload, scene_fn, seed, seconds, trace):
    """One benchmark run. Returns (report, result line, enhanced samples).

    The traced run starts an untraced worker next to the traced one, so
    that both see the same machine load; ``trace_overhead`` compares them.
    """
    import reverbtrack.simkit  # noqa: F401  (import time is not synthesis time)

    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    units = declared_metrics(trace)
    values = {}
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    if not trace:
        values["setup_s"], report["setup_samples"] = measure_setup(env, deadline)
    t0 = time.perf_counter()
    scene = scene_fn(seed)
    make_scene_s = time.perf_counter() - t0
    runs = run_workers(scene, seconds, (0, 1) if trace else (0,), env,
                       deadline - time.perf_counter())
    untraced, data = runs[0]
    summaries = [summary for summary, _ in runs]
    errors = [e for summary in summaries for e in summary["errors"]]
    mismatch = len({summary.get("sha256") for summary in summaries}) > 1
    if mismatch:
        errors.append("traced and untraced output differ")
    attempted = sum(summary["attempted"] for summary in summaries)
    failed = sum(summary["failed"] for summary in summaries) + mismatch
    duration_s = len(scene.noisy) / 16000
    walls = untraced["walls"]
    report.update(input_samples=len(scene.noisy), input_s=duration_s,
                  attempted=attempted, failed=failed, errors=errors[:5],
                  enhance_calls=len(walls), enhance_walls_s=walls,
                  enhance_scaled_s=untraced["scaled"], probe_means_s=untraced["probe_means"])
    ok = "sha256" in untraced
    if ok:
        q = quality(scene, data, untraced)
        report.update(frames=untraced["frames"], sha256=untraced["sha256"], quality=q)
    if trace:
        traced = runs[1][0]
        if "layers" in traced:
            values.update(traced["layers"])
        if traced["walls"] and walls:
            values["trace_overhead"] = (statistics.median(traced["walls"])
                                        / statistics.median(walls) - 1.0)
            values["rtf_wall"] = statistics.median(walls) / duration_s
            values["probe.kernel_us"] = statistics.median(untraced["probe_means"]) * 1e6
        if ok:
            values.update({k: q[k] for k in QUALITY if k != "cd_db"})
        values["simkit.make_scene.s"] = make_scene_s
    else:
        if walls:
            values["rtf"] = statistics.median(untraced["scaled"]) / duration_s
        values["peak_rss_mb"] = untraced["peak_rss_mb"]
        if ok:
            values["cd_db"] = q["cd_db"]
    if set(values) - set(units):
        raise SystemExit(f"undeclared metrics {sorted(set(values) - set(units))}")
    result = {
        "correct": ok and not errors and set(values) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    return report, result, data.get("samples")


def save(out_dir, report, result, samples):
    out_dir.mkdir(parents=True, exist_ok=True)
    name = report["workload"]
    (out_dir / f"{name}.json").write_text(json.dumps({**report, "result": result}, indent=1))
    if samples is not None:
        np.save(out_dir / f"{name}.npy", samples)


def compare(dir_a, dir_b):
    """Max |delta sample| and |delta| of each quality metric per workload."""
    rows = []
    for path_a in sorted(dir_a.glob("*.json")):
        path_b = dir_b / path_a.name
        if not path_b.exists():
            continue
        ra, rb = json.loads(path_a.read_text()), json.loads(path_b.read_text())
        if (ra["seed"], ra["input_samples"]) != (rb["seed"], rb["input_samples"]):
            raise SystemExit(f"{path_a.stem}: result sets were made from different inputs")
        row = {"workload": ra["workload"], "seed": ra["seed"],
               "same_sha256": ra.get("sha256") == rb.get("sha256")}
        sa, sb = (d / f"{path_a.stem}.npy" for d in (dir_a, dir_b))
        if sa.exists() and sb.exists():
            row["max_abs_dsample"] = float(np.max(np.abs(np.load(sa) - np.load(sb))))
        qa, qb = ra.get("quality", {}), rb.get("quality", {})
        row["abs_dquality"] = {k: abs(qa[k] - qb[k]) for k in QUALITY if k in qa and k in qb}
        rows.append(row)
    if not rows:
        raise SystemExit(f"no workload results in both {dir_a} and {dir_b}")
    for row in rows:
        print(json.dumps(row))


def main(argv=None):
    ap = argparse.ArgumentParser(description="reverbtrack benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="directory to keep this run's result set in")
    ap.add_argument("--compare", type=Path, nargs=2, metavar="DIR",
                    help="compare two result sets written with --out")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "reverbtrack" / "__init__.py").is_file():
        raise SystemExit(f"no reverbtrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    report, result, samples = measure(args.workload, WORKLOADS[args.workload],
                                      args.seed, args.seconds, args.trace)
    if args.out:
        save(args.out, report, result, samples)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
