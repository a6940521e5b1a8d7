"""Paired benchmark runs of two checkouts, for claiming (or refuting) a gain.

Run from anywhere:

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload room_g_4s --seeds 0-9

For each seed, ``perfbench/run.py --trace 0`` runs once in each checkout,
one after the other, each with its own benchmark code and for the
``run_seconds`` that ``BENCHMARK.json`` fixes. The side that runs
first alternates from seed to seed, so that a drift in machine load does
not favour one side. For each end-to-end metric of ``BENCHMARK.json`` the
script then prints each side's median and quartiles, the number of pairs
the change wins (ties count for neither side), the ratio of the medians
(change / parent) and whether the change shows a gain: it wins at least
nine tenths of the pairs, its median is better than the parent's by
more than the distance between the parent's quartiles, and it fails no
more calls than the parent. It also prints a no-regression verdict
against the metric's ``bound``, a fraction of the parent's median (so
``peak_rss_mb``'s 0.05 is 5 %, not 0.05 MiB): "worse" where the change's
median is worse than the parent's by more than that margin;
"unresolved" where the parent's quartiles lie further apart than the
margin, unless every change run beats every parent run; else "ok".
Beside ``rtf``, which ``perfbench`` scales by a probe kernel's time, it
prints the unscaled times behind it, read from each run's report line:
per side, the median over the runs of each run's median ``enhance`` wall
time and of its median probe-kernel time, their ratio, and in how many
pairs the change's value is the lower. Where the wall times do not move
with ``rtf``, the probe scaling carries the difference. Last, it prints
on how many seeds the two sides' outputs are identical (the same sha256
in the run's report line) and names the seeds where they differ.

``--out DIR`` keeps every run's result set (``DIR/parent/seedN`` and
``DIR/change/seedN``, readable by ``perfbench/run.py --compare``) and the
raw pairs, with both sides' output hashes, as ``DIR/pairs.json``, which
is rewritten after every pair. A run that fails ends the script with
exit status 1 and a message naming its checkout and seed; ``pairs.json``
then holds the pairs finished before it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# report-line fields kept with each run: (key, name, unit, scale)
UNSCALED = (("enhance_walls_s", "wall", "s", 1.0), ("probe_means_s", "probe", "us", 1e6))


def parse_seeds(text):
    """'A-B' (inclusive) or 'N' as a list of seeds."""
    lo, _, hi = text.partition("-")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be N or A-B, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def run_once(checkout, workload, seed, seconds, out=None):
    """One untraced benchmark run in a checkout.

    Returns its result line, with the output's sha256 and the UNSCALED
    timings from the report line before it (the sha256 is None where the
    run wrote no output).
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench/run.py failed on seed {seed}:\n{proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    report = json.loads(report)
    return {**json.loads(result), "sha256": report.get("sha256"),
            **{key: report.get(key) for key, *_ in UNSCALED}}


def failed_calls(pairs):
    """Per side, the (failed, attempted) calls summed over the pairs."""
    return {side: (sum(p[side]["failed"] for p in pairs),
                   sum(p[side]["attempted"] for p in pairs)) for side in SIDES}


def differing_outputs(pairs):
    """The seeds of the pairs whose sides' outputs differ or are missing."""
    return [p["seed"] for p in pairs
            if p["parent"].get("sha256") is None
            or p["parent"].get("sha256") != p["change"].get("sha256")]


def unscaled_times(pairs):
    """Per UNSCALED field: each side's median over the runs of the run's
    median, their ratio (change / parent), and the pairs in which the
    change's run median is the lower. A pair counts only where both sides
    report the field."""
    rows = []
    for key, name, unit, scale in UNSCALED:
        vals = [(np.median(p["parent"][key]) * scale, np.median(p["change"][key]) * scale)
                for p in pairs if p["parent"].get(key) and p["change"].get(key)]
        if not vals:
            continue
        par, chg = np.median(vals, axis=0)
        rows.append({"name": name, "unit": unit, "pairs": len(vals), "parent": par,
                     "change": chg, "ratio": chg / par if par else float("nan"),
                     "lower": sum(c < p for p, c in vals)})
    return rows


def summarise(spec, pairs):
    """Per end-to-end metric: each side's quartiles, wins, ratio, gain and verdict.

    pairs is a list of {"parent": result, "change": result} with the
    result lines of perfbench/run.py. A pair counts only where both sides
    report the metric. No metric shows a gain where the change fails more
    calls than the parent.
    """
    failed = failed_calls(pairs)
    fails_more = failed["change"][0] > failed["parent"][0]
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        vals = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not vals:
            continue
        par, chg = np.array(vals).T
        # sign: +1 where lower is better, so that a positive gain is an improvement
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = int(np.count_nonzero(sign * (par - chg) > 0))
        pq = np.percentile(par, [25, 50, 75])
        cq = np.percentile(chg, [25, 50, 75])
        gain = sign * (pq[1] - cq[1])
        margin = metric["bound"] * abs(pq[1])
        beats_all = np.max(sign * chg) < np.min(sign * par)
        verdict = ("worse" if -gain > margin
                   else "unresolved" if pq[2] - pq[0] > margin and not beats_all
                   else "ok")
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "pairs": len(vals), "parent": pq.tolist(), "change": cq.tolist(),
            "wins": wins, "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
            "gain": bool(wins >= 0.9 * len(vals) and gain > pq[2] - pq[0]
                         and not fails_more),
            "verdict": verdict,
        })
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description="paired benchmark runs of two checkouts")
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="N or A-B (inclusive)")
    ap.add_argument("--out", type=Path, help="directory to keep the result sets and pairs in")
    args = ap.parse_args(argv)

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, d in dirs.items():
        if not (d / "perfbench" / "run.py").is_file():
            ap.error(f"{side} checkout {d} has no perfbench/run.py")
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i, seed in enumerate(args.seeds):
        pair = {"seed": seed, "first": SIDES[i % 2]}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out = args.out.resolve() / side / f"seed{seed}" if args.out else None
            pair[side] = run_once(dirs[side], args.workload, seed, seconds, out)
        pairs.append(pair)
        if args.out:
            (args.out / "pairs.json").write_text(json.dumps(pairs, indent=1))
        brief = {side: {k: round(v["value"], 4) for k, v in pair[side]["metrics"].items()}
                 for side in SIDES}
        print(f"seed {seed} ({pair['first']} first): {json.dumps(brief)}", file=sys.stderr)

    print(f"workload {args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{len(pairs)} pairs, {seconds:g} s per run")
    for side, (failed, attempted) in failed_calls(pairs).items():
        print(f"{side}: {failed} of {attempted} calls failed")
    print(f"{'metric':<12} {'unit':<5} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>7} {'ratio':>7}  gain  verdict")
    for r in summarise(spec, pairs):
        p, c = r["parent"], r["change"]
        print(f"{r['metric']:<12} {r['unit']:<5} "
              f"{f'{p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]':<30} "
              f"{f'{c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]':<30} "
              f"{r['wins']:>3}/{r['pairs']:<3} {r['ratio']:>7.3f}  {'yes' if r['gain'] else 'no':<4}  {r['verdict']}")
    for r in unscaled_times(pairs):
        print(f"unscaled {r['name']} ({r['unit']}): parent median {r['parent']:.4g}, change median "
              f"{r['change']:.4g}, ratio {r['ratio']:.3f}, change lower in {r['lower']}/{r['pairs']}")
    differ = differing_outputs(pairs)
    print(f"outputs identical on {len(pairs) - len(differ)} of {len(pairs)} seeds"
          + (f"; they differ on seeds {', '.join(map(str, differ))}" if differ else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
