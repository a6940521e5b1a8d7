"""Per-call times of the phasor-sum splits, per-frame times of the
cascade, or whole ``enhance`` calls, in two checkouts, on the same inputs.

Run from anywhere:

    python3 tools/split_replay.py PARENT_DIR --workload room_g_4s --seed 0
    python3 tools/split_replay.py PARENT_DIR --workload room_g_4s --level frame
    python3 tools/split_replay.py PARENT_DIR --workload room_g_4s --level call

Synthesises the workload's input as ``perfbench/run.py`` does and imports
PARENT_DIR's ``reverbtrack`` under another name, so that the parent's
relative imports load the parent's own modules.

At ``--level split`` (the default) and ``--level frame`` it runs
``enhance`` on the input once in this checkout and keeps, at the split
level, the arguments of every call the cascade makes to
``lognorm.split_scalar_obs`` (step 7) and ``lognorm.split_distributed_obs``
(step 8 without the b posterior, step 10 with it); at the frame level, a
copy of the filter state and the frame record at every call of
``enhancer._advance``, one per frame. The capture wrappers replace
package functions, so ``enhance_frames`` runs every bin in one group in
this process, and every call is seen. It then replays every
captured call in both checkouts, each frame from its own copy of the
state. The first pass is untimed and compares each call's outputs and
``Diagnostics`` bit for bit. Each of ``--rounds`` timed passes then
times every call on both sides with ``time.perf_counter``, the side that
runs first alternating from call to call and from round to round, so
that a drift in machine load favours neither side. At the split level it
prints one JSON line per step: its calls, each side's µs per call (the
median over the rounds), their ratio (change / parent), whether every
output and every Diagnostics count was identical, and the largest
|change - parent| of each output (ma', va', mb', vb', fallback) that was
not. At the frame level it prints one line: the frames, each side's µs
per frame, their ratio, the share of frames the change ran faster
(summed over the rounds), whether every trace row and every Diagnostics
count was identical, and the largest |change - parent| of each row
field that was not.

At ``--level call`` it alternates whole ``enhance`` calls of the two
checkouts, after one untimed call each, so that the work of a forked
child, which no replay in this process sees, is in the wall time. It
prints one line: each side's median wall per call and its median CPU
time per call, of this process alone, of the forked child alone (the
``resource.RUSAGE_CHILDREN`` user + system delta around the call, 0
where one group ran) and of both, the wall ratio, the share of rounds
the change ran faster, whether the samples, all Trace arrays and the
Diagnostics counts were identical, and the largest |change - parent| of
the samples. Where a few per cent of wall cannot be resolved on a shared
host, the CPU times can still show where the work went.

The frame level feeds this checkout's frame records (``enhancer._Frame``)
to both checkouts' ``_advance``. Where the parent's cannot run the first
one, as where the two take different records, it stops and points to
``--level call``.

Single whole-run walls drift by several per cent on a shared host; the
interleaved replay times the splits or the frames alone, on identical
inputs, with the load spread over both sides. It imports this checkout's
``reverbtrack`` from its ``src``, and pins BLAS to one thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import argparse  # noqa: E402
import copy  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "perfbench"))

import numpy as np  # noqa: E402

import reverbtrack  # noqa: E402
from reverbtrack import AudioBuffer, enhance, enhancer, lognorm  # noqa: E402

PARENT_NAME = "parent_reverbtrack"
SPLITS = ("split_scalar_obs", "split_distributed_obs")
OUTPUTS = ("ma", "va", "mb", "vb", "fallback")      # a split's outputs, in order


def load_package(src_dir, name=PARENT_NAME):
    """The reverbtrack package under src_dir, imported as name, with its
    lognorm and enhancer modules loaded."""
    init = Path(src_dir) / "reverbtrack" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no reverbtrack package under {src_dir}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.lognorm")
    importlib.import_module(f"{name}.enhancer")
    return package


def _step(name, kwargs):
    if name == "split_scalar_obs":
        return 7
    return 10 if kwargs.get("b_moments", True) else 8


def capture(audio):
    """(step, split name, args, kwargs) of every split call of one enhance
    call on audio, in call order; the arrays are copies and the
    Diagnostics argument is left out."""
    calls = []
    originals = {name: getattr(lognorm, name) for name in SPLITS}

    def wrapped(name):
        def record(*args, diag=None, **kwargs):
            calls.append((_step(name, kwargs), name,
                          tuple(np.array(a, copy=True) for a in args), kwargs))
            return originals[name](*args, diag=diag, **kwargs)
        return record

    try:
        for name in SPLITS:
            setattr(lognorm, name, wrapped(name))
        enhance(audio)
    finally:
        for name, fn in originals.items():
            setattr(lognorm, name, fn)
    return calls


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _compare(max_diff, field, parent, change):
    """Whether the two sides' values of field have the same bits; where
    they do not, max_diff[field] keeps the largest |change - parent| seen
    (of values of one shape)."""
    if _same_bits(parent, change):
        return True
    if parent is not None and change is not None and parent.shape == change.shape:
        diff = np.max(np.abs(change.astype(float) - parent.astype(float)), initial=0.0)
        max_diff[field] = max(max_diff.get(field, 0.0), float(diff))
    return False


def _run(module, call):
    _, name, args, kwargs = call
    diag = module.Diagnostics()
    out = getattr(module, name)(*args, diag=diag, **kwargs)
    return out, (diag.fallbacks, diag.variance_clamps)


def _alternate(calls, sides, timed, rounds):
    """{side: (rounds, calls) array of seconds}: timed(module, call) on
    both sides for every call, in each round, the side that runs first
    alternating from call to call and from round to round."""
    spent = {side: np.zeros((rounds, len(calls))) for side in sides}
    for r in range(rounds):
        for i, call in enumerate(calls):
            order = tuple(sides) if (i + r) % 2 == 0 else tuple(reversed(sides))
            for side in order:
                spent[side][r, i] = timed(sides[side], call)
    return spent


def _timed_split(module, call):
    t0 = time.perf_counter()
    _run(module, call)
    return time.perf_counter() - t0


def replay(calls, parent_lognorm, rounds=5):
    """One row per step: calls, each side's µs per call (median over the
    timed rounds), their ratio, whether outputs and Diagnostics were
    identical in every call, and max |change - parent| of each output
    that was not."""
    sides = {"parent": parent_lognorm, "change": lognorm}
    steps = sorted({c[0] for c in calls})
    identical = dict.fromkeys(steps, True)
    max_diff = {s: {} for s in steps}
    for call in calls:
        step = call[0]
        (out_p, diag_p), (out_c, diag_c) = (_run(m, call) for m in sides.values())
        same = [_compare(max_diff[step], f, p, c) for f, p, c in zip(OUTPUTS, out_p, out_c)]
        identical[step] &= diag_p == diag_c and all(same)
    spent = _alternate(calls, sides, _timed_split, rounds)
    rows = []
    for s in steps:
        of_step = np.array([c[0] == s for c in calls])
        n = int(of_step.sum())
        us = {side: statistics.median(spent[side][:, of_step].sum(axis=1)) / n * 1e6
              for side in sides}
        rows.append({"step": s, "calls": n, "parent_us": us["parent"], "change_us": us["change"],
                     "ratio": us["change"] / us["parent"], "identical": identical[s],
                     "max_abs_diff": {f: max_diff[s][f] for f in OUTPUTS if f in max_diff[s]}})
    return rows


def capture_frames(audio):
    """(filter state, frame, config) at every _advance call of one enhance
    call on audio, one per frame and each on every bin, since a replaced
    _advance runs them in one group; the state is a copy taken before the
    frame ran."""
    frames = []
    advance = enhancer._advance

    def record(fs, frame, cfg, diag):
        frames.append((copy.deepcopy(fs), copy.deepcopy(frame), cfg))
        return advance(fs, frame, cfg, diag)

    enhancer._advance = record
    try:
        enhance(audio)
    finally:
        enhancer._advance = advance
    return frames


def _run_frame(module, captured):
    """One captured frame from a copy of its state: (trace row,
    Diagnostics counts, seconds _advance took)."""
    fs, frame, cfg = captured
    fs, diag = copy.deepcopy(fs), module.Diagnostics()
    t0 = time.perf_counter()
    row = module._advance(fs, frame, cfg, diag)
    return row, (diag.fallbacks, diag.variance_clamps), time.perf_counter() - t0


def replay_frames(frames, parent_enhancer, rounds=5):
    """Frames, each side's µs per frame (median over the timed rounds),
    their ratio, the share of frames the change ran faster over all
    rounds, whether every row and Diagnostics count was identical, and
    max |change - parent| of each row field that was not. A captured
    frame is this checkout's record, so where the parent's _advance cannot
    run the first one, this stops and points to --level call."""
    try:
        _run_frame(parent_enhancer, frames[0])
    except Exception as exc:
        raise SystemExit(f"the parent's _advance cannot run this checkout's frame record "
                         f"({type(exc).__name__}: {exc}); where the two checkouts' _advance "
                         f"take different frame records, compare whole calls with "
                         f"--level call") from exc
    sides = {"parent": parent_enhancer, "change": enhancer}
    identical, max_diff = True, {}
    for captured in frames:
        (row_p, diag_p, _), (row_c, diag_c, _) = (_run_frame(m, captured) for m in sides.values())
        identical &= diag_p == diag_c and row_p.keys() == row_c.keys()
        for f in row_p.keys() & row_c.keys():
            identical &= _compare(max_diff, f, row_p[f], row_c[f])
    spent = _alternate(frames, sides, lambda m, captured: _run_frame(m, captured)[2], rounds)
    n = len(frames)
    us = {side: statistics.median(spent[side].sum(axis=1)) / n * 1e6 for side in sides}
    won = np.mean(spent["change"].sum(axis=0) < spent["parent"].sum(axis=0))
    return {"frames": n, "parent_us": us["parent"], "change_us": us["change"],
            "ratio": us["change"] / us["parent"], "change_won": float(won),
            "identical": identical, "max_abs_diff": max_diff}


def _outputs_equal(a, b):
    """Whether two enhance results hold the same sample, Trace and
    Diagnostics bits."""
    (out_a, trace_a, diag_a), (out_b, trace_b, diag_b) = a, b
    return (_same_bits(out_a.samples, out_b.samples)
            and trace_a.arrays.keys() == trace_b.arrays.keys()
            and all(_same_bits(v, trace_b.arrays[f]) for f, v in trace_a.arrays.items())
            and (diag_a.fallbacks, diag_a.variance_clamps)
            == (diag_b.fallbacks, diag_b.variance_clamps))


def _children_cpu():
    """User + system seconds of this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def replay_calls(samples, parent, rounds=5):
    """Each side's median wall and median CPU seconds per enhance call on
    samples: this process's, its forked child's (the RUSAGE_CHILDREN delta
    around the call, 0 where one group ran) and their sum; the wall ratio,
    the share of rounds the change ran faster, whether the two outputs
    were identical and max |change - parent| of the samples. Each side runs
    once untimed, then once per round, the side that runs first
    alternating from round to round."""
    sides = {"parent": parent, "change": reverbtrack}
    inputs = {side: package.AudioBuffer(samples) for side, package in sides.items()}
    first = {side: package.enhance(inputs[side]) for side, package in sides.items()}
    walls, cpus, child_cpus = ({side: [] for side in sides} for _ in range(3))
    for r in range(rounds):
        for side in (tuple(sides) if r % 2 == 0 else tuple(reversed(sides))):
            k0, c0, t0 = _children_cpu(), time.process_time(), time.perf_counter()
            sides[side].enhance(inputs[side])
            walls[side].append(time.perf_counter() - t0)
            cpus[side].append(time.process_time() - c0)
            child_cpus[side].append(_children_cpu() - k0)
    wall = {side: statistics.median(v) for side, v in walls.items()}
    won = np.mean(np.array(walls["change"]) < np.array(walls["parent"]))
    diff = np.max(np.abs(first["change"][0].samples - first["parent"][0].samples))
    row = {"calls": rounds, "parent_s": wall["parent"], "change_s": wall["change"],
           "ratio": wall["change"] / wall["parent"], "change_won": float(won)}
    for side in sides:
        row[f"{side}_cpu_s"] = statistics.median(cpus[side])
        row[f"{side}_child_cpu_s"] = statistics.median(child_cpus[side])
        row[f"{side}_total_cpu_s"] = statistics.median(np.add(cpus[side], child_cpus[side]))
    return {**row, "identical": _outputs_equal(first["change"], first["parent"]),
            "max_abs_diff": float(diff)}


def main(argv=None):
    import run as bench     # perfbench/run.py, for its workload scenes

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the other checkout (its src/reverbtrack)")
    ap.add_argument("--workload", choices=sorted(bench.WORKLOADS), default="room_g_4s")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--level", choices=("split", "frame", "call"), default="split",
                    help="replay the split calls or whole frames of the cascade, "
                         "or alternate whole enhance calls")
    ap.add_argument("--rounds", type=int, default=5, help="timed passes over the calls")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    parent = load_package(args.parent / "src")
    scene = bench.WORKLOADS[args.workload](args.seed)
    head = {"workload": args.workload, "seed": args.seed}
    if args.level == "call":
        print(json.dumps({**head, **replay_calls(scene.noisy, parent, args.rounds)}))
        return 0
    if args.level == "frame":
        frames = capture_frames(AudioBuffer(scene.noisy))
        print(json.dumps({**head, **replay_frames(frames, parent.enhancer, args.rounds)}))
        return 0
    calls = capture(AudioBuffer(scene.noisy))
    for row in replay(calls, parent.lognorm, args.rounds):
        print(json.dumps({**head, **row}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
