"""The paired-run summary of tools/ab_pairs.py (no benchmark is run)."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

SPEC = {"end_to_end": [{"name": "rtf", "unit": "s/s", "better": "lower", "bound": 0.25},
                       {"name": "score", "unit": "x", "better": "higher", "bound": 0.01}]}


def _pairs(parent, change, name="rtf", change_failed=0):
    def result(v, failed=0):
        return {"metrics": {name: {"value": v, "unit": "s/s"}}, "failed": failed, "attempted": 2}
    return [{"parent": result(p), "change": result(c, change_failed)}
            for p, c in zip(parent, change)]


def test_parse_seeds():
    assert ab_pairs.parse_seeds("0-9") == list(range(10))
    assert ab_pairs.parse_seeds("7") == [7]
    for bad in ("5-2", "a-b", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            ab_pairs.parse_seeds(bad)


def test_summary_gain_rule():
    parent = [0.60, 0.62, 0.64, 0.66, 0.61, 0.63, 0.65, 0.64, 0.62, 0.63]
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, [p - 0.12 for p in parent]))
    assert (row["metric"], row["pairs"], row["wins"], row["gain"]) == ("rtf", 10, 10, True)
    assert row["parent"][1] == pytest.approx(0.63)
    assert row["ratio"] == pytest.approx(0.51 / 0.63)
    # one tie and one loss: 8 wins of 10 is under nine tenths
    change = [p - 0.12 for p in parent[:8]] + [parent[8], parent[9] + 0.01]
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, change))
    assert (row["wins"], row["gain"]) == (8, False)
    # every pair won, but by less than the parent's interquartile range
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, [p - 0.005 for p in parent]))
    assert (row["wins"], row["gain"]) == (10, False)
    # a clear win on the metric, but the change fails more calls
    pairs = _pairs(parent, [p - 0.12 for p in parent], change_failed=1)
    (row,) = ab_pairs.summarise(SPEC, pairs)
    assert (row["wins"], row["gain"]) == (10, False)
    assert ab_pairs.failed_calls(pairs) == {"parent": (0, 20), "change": (10, 20)}


def test_summary_higher_is_better():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, [p + 1.0 for p in parent], "score"))
    assert (row["metric"], row["wins"], row["gain"]) == ("score", 10, True)
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, [p - 1.0 for p in parent], "score"))
    assert (row["wins"], row["gain"]) == (0, False)


def test_summary_no_regression_verdict():
    # rtf: median 0.63, quartiles 0.62-0.64, margin 0.25 * 0.63 = 0.1575
    parent = [0.60, 0.62, 0.64, 0.66, 0.61, 0.63, 0.65, 0.64, 0.62, 0.63]
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, [p + 0.15 for p in parent]))
    assert (row["wins"], row["gain"], row["verdict"]) == (0, False, "ok")
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, [p + 0.17 for p in parent]))
    assert row["verdict"] == "worse"
    # score: quartiles 0.985-1.015 lie further apart than the margin 0.01
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, parent, "score"))
    assert row["verdict"] == "unresolved"
    # unless every change run beats every parent run
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, [p + 0.21 for p in parent], "score"))
    assert row["verdict"] == "ok"
    (row,) = ab_pairs.summarise(SPEC, _pairs(parent, [p - 0.02 for p in parent], "score"))
    assert row["verdict"] == "worse"


def test_unscaled_times(tmp_path, monkeypatch, capsys):
    def side(walls, probes):
        return {"enhance_walls_s": walls, "probe_means_s": probes}
    pairs = [{"parent": side([1.6, 1.5], [50e-6]), "change": side([1.4, 1.5], [60e-6])},
             {"parent": side([1.5], [52e-6, 54e-6]), "change": side([1.6], [58e-6])},
             {"parent": side([1.7], [51e-6]), "change": side([1.3], [59e-6])},
             # a run that made no call reports no times, so its pair is left out
             {"parent": side([], []), "change": side([1.0], [1e-6])}]
    wall, probe = ab_pairs.unscaled_times(pairs)
    # run medians: walls 1.55/1.5/1.7 against 1.45/1.6/1.3, probes 50/53/51
    # against 60/58/59 us
    assert (wall["name"], wall["unit"], wall["pairs"], wall["lower"]) == ("wall", "s", 3, 2)
    assert (wall["parent"], wall["change"]) == pytest.approx((1.55, 1.45))
    assert wall["ratio"] == pytest.approx(1.45 / 1.55)
    assert (probe["name"], probe["unit"], probe["lower"]) == ("probe", "us", 0)
    assert (probe["parent"], probe["change"]) == pytest.approx((51.0, 59.0))
    # runs without the report fields give no rows
    assert ab_pairs.unscaled_times([{"parent": {}, "change": {}}]) == []

    # main prints both rows from what run_once keeps of the report line
    for name in ab_pairs.SIDES:
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({**SPEC, "run_seconds": 1}))

    def run_once(checkout, workload, seed, seconds, out=None):
        wall = 1.2 if checkout.name == "change" else 1.5
        return {"metrics": {"rtf": {"value": 0.5, "unit": "s/s"}}, "failed": 0,
                "attempted": 1, "sha256": "aa", **side([wall], [55e-6])}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                   "--seeds", "0-1"])
    out = capsys.readouterr().out
    assert ("unscaled wall (s): parent median 1.5, change median 1.2, ratio 0.800, "
            "change lower in 2/2") in out
    assert "unscaled probe (us): parent median 55, change median 55, ratio 1.000" in out


def test_output_identity(tmp_path, monkeypatch, capsys):
    def pair(seed, parent, change):
        return {"seed": seed, "parent": {"sha256": parent}, "change": {"sha256": change}}
    pairs = [pair(s, "aa", "aa") for s in range(3)]
    assert ab_pairs.differing_outputs(pairs) == []
    # one seed's outputs differ, and a run that wrote no output never matches
    pairs += [pair(3, "aa", "bb"), pair(4, None, None)]
    assert ab_pairs.differing_outputs(pairs) == [3, 4]

    # the summary line, and both hashes kept in pairs.json
    for side in ab_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({**SPEC, "run_seconds": 1}))

    def run_once(checkout, workload, seed, seconds, out=None):
        sha = "bb" if checkout.name == "change" and seed == 2 else "aa"
        return {"metrics": {"rtf": {"value": 0.5, "unit": "s/s"}}, "failed": 0,
                "attempted": 1, "sha256": sha}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                   "--seeds", "0-3", "--out", str(tmp_path / "out")])
    assert "outputs identical on 3 of 4 seeds; they differ on seeds 2" in capsys.readouterr().out
    pairs = json.loads((tmp_path / "out" / "pairs.json").read_text())
    assert [(p["parent"]["sha256"], p["change"]["sha256"]) for p in pairs][1:3] == [
        ("aa", "aa"), ("aa", "bb")]


def test_failed_run_keeps_the_finished_pairs(tmp_path, monkeypatch):
    for side in ab_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({**SPEC, "run_seconds": 1}))

    def run_once(checkout, workload, seed, seconds, out=None):
        if seed == 2:
            raise SystemExit(f"{checkout}: perfbench/run.py failed on seed {seed}:\nboom")
        return {"metrics": {"rtf": {"value": 0.5, "unit": "s/s"}}, "failed": 0,
                "attempted": 1, "sha256": "aa"}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    with pytest.raises(SystemExit, match="failed on seed 2"):
        ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                       "--seeds", "0-4", "--out", str(tmp_path / "out")])
    pairs = json.loads((tmp_path / "out" / "pairs.json").read_text())
    assert [p["seed"] for p in pairs] == [0, 1]
