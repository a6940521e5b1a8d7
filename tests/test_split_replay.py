"""tools/split_replay.py on a 0.25 s scene, replayed against this same checkout."""

import copy
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from reverbtrack.reverb import RoomParams
from reverbtrack.simkit import make_scene, speechlike_excitation

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("split_replay", _ROOT / "tools" / "split_replay.py")
split_replay = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(split_replay)


def test_replay_against_this_checkout(monkeypatch):
    clean = speechlike_excitation(0.25, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    calls = split_replay.capture(noisy)
    frames = sum(step == 7 for step, *_ in calls)
    assert frames > 0 and sum(step == 8 for step, *_ in calls) == frames
    assert any(step == 10 for step, *_ in calls)
    parent = split_replay.load_package(_ROOT / "src", "replayed_reverbtrack")
    assert parent.lognorm is not split_replay.lognorm
    assert Path(parent.lognorm.__file__) == Path(split_replay.lognorm.__file__)
    rows = split_replay.replay(calls, parent.lognorm, rounds=2)
    assert [row["step"] for row in rows] == [7, 8, 10]
    for row in rows:
        assert row["identical"] and row["max_abs_diff"] == {}
        assert row["calls"] == sum(step == row["step"] for step, *_ in calls)
        assert np.isfinite(row["ratio"]) and row["ratio"] > 0
    # a side whose outputs move is reported, output by output: here the b
    # posterior's mean, which step 8 does not take
    split = parent.lognorm._split

    def nudged(*args, **kwargs):
        ma, va, mb, vb, fallback = split(*args, **kwargs)
        return ma, va, None if mb is None else mb - 1e-3, vb, fallback
    monkeypatch.setattr(parent.lognorm, "_split", nudged)
    rows = split_replay.replay(calls, parent.lognorm, rounds=1)
    assert [row["identical"] for row in rows] == [False, True, False]
    assert [list(row["max_abs_diff"]) for row in rows] == [["mb"], [], ["mb"]]
    for row in rows[::2]:
        assert row["max_abs_diff"]["mb"] == pytest.approx(1e-3)


def test_frame_replay_against_this_checkout(monkeypatch):
    clean = speechlike_excitation(0.25, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    frames = split_replay.capture_frames(noisy)
    _, trace, _ = split_replay.enhance(noisy)
    # the capture runs every bin in one group: one frame record per frame,
    # each with the state that its frame started from
    assert len(frames) == trace.n_frames
    for t, (fs, frame) in enumerate(frames):
        assert frame.y.size == trace.n_bins
        if t:
            assert np.array_equal(fs.gamma_m, trace.arrays["gamma_mean"][t - 1])
    parent = split_replay.load_package(_ROOT / "src", "replayed_frames_reverbtrack")
    assert parent.enhancer is not split_replay.enhancer
    row = split_replay.replay_frames(frames, parent.enhancer, rounds=2)
    assert row["frames"] == len(frames)
    assert row["identical"] and row["max_abs_diff"] == {}
    assert np.isfinite(row["ratio"]) and row["ratio"] > 0
    assert 0.0 <= row["change_won"] <= 1.0
    # a side whose rows move is reported, field by field
    advance = parent.enhancer._advance

    def nudged(*args):
        row = advance(*args)
        row["s_mean"] = row["s_mean"] - 1e-3
        return row
    monkeypatch.setattr(parent.enhancer, "_advance", nudged)
    row = split_replay.replay_frames(frames, parent.enhancer, rounds=1)
    assert not row["identical"]
    assert list(row["max_abs_diff"]) == ["s_mean"]
    assert row["max_abs_diff"]["s_mean"] == pytest.approx(1e-3)


def test_frame_replay_on_a_bin_slice():
    """--bins cuts every captured state and frame record to a slice of the
    bins; the cascade never mixes bins, so each sliced frame gives the
    slice of the full frame's trace row."""
    clean = speechlike_excitation(0.25, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    frames = split_replay.capture_frames(noisy)
    bins = split_replay.parse_bins("3:5")
    assert bins == slice(3, 5)
    sliced = split_replay.slice_frames(frames, bins)
    assert len(sliced) == len(frames)
    for (fs, frame), (fs_all, frame_all) in zip(sliced, frames):
        assert frame.y.size == 2 and np.array_equal(frame.y, frame_all.y[3:5])
        assert fs.s_cov.shape == fs_all.s_cov[3:5].shape
        assert all(p.shape == (2,) for p in frame.priors)
        # the records the slices came from are left whole
        assert frame_all.y.size == fs_all.gamma_m.size > 5
    for (fs, frame), (fs_all, frame_all) in list(zip(sliced, frames))[::10]:
        row = split_replay.enhancer._advance(copy.deepcopy(fs), frame,
                                             split_replay.lognorm.Diagnostics())
        row_all = split_replay.enhancer._advance(copy.deepcopy(fs_all), frame_all,
                                                 split_replay.lognorm.Diagnostics())
        for f, v in row.items():
            assert np.array_equal(v, row_all[f][3:5])
    parent = split_replay.load_package(_ROOT / "src", "replayed_slices_reverbtrack")
    row = split_replay.replay_frames(split_replay.slice_frames(frames, bins), parent.enhancer,
                                     rounds=1)
    assert row["frames"] == len(frames) and row["identical"]
    for text in ("5:3", "2", "a:b", "-1:4"):
        with pytest.raises(split_replay.argparse.ArgumentTypeError):
            split_replay.parse_bins(text)


def test_frame_replay_stops_where_the_frame_records_differ(monkeypatch):
    clean = speechlike_excitation(0.1, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    frames = split_replay.capture_frames(noisy)
    parent = split_replay.load_package(_ROOT / "src", "replayed_records_reverbtrack")

    def other_record(fs, frame, diag):
        # a parent whose decay priors hold one item more than this checkout's
        prior_gm, prior_gv, prior_bm, prior_bv, prior_mask, prior_w = frame.priors
    monkeypatch.setattr(parent.enhancer, "_advance", other_record)
    with pytest.raises(SystemExit, match="not enough values to unpack.*--level call$"):
        split_replay.replay_frames(frames, parent.enhancer, rounds=1)


def test_call_replay_against_this_checkout(monkeypatch):
    clean = speechlike_excitation(0.25, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    parent = split_replay.load_package(_ROOT / "src", "replayed_calls_reverbtrack")
    assert parent.enhancer is not split_replay.enhancer
    # a host that shows two usable CPUs: both sides fork their second bin group
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    row = split_replay.replay_calls(noisy.samples, parent, rounds=2)
    assert row["calls"] == 2
    assert row["identical"] and row["max_abs_diff"] == 0.0
    assert np.isfinite(row["ratio"]) and row["ratio"] > 0
    assert 0.0 <= row["change_won"] <= 1.0
    for side in ("parent", "change"):
        assert row[f"{side}_cpu_s"] > 0 and row[f"{side}_child_cpu_s"] > 0
        assert row[f"{side}_total_cpu_s"] == pytest.approx(
            row[f"{side}_cpu_s"] + row[f"{side}_child_cpu_s"])
    # a replaced package function runs one group, with no child
    advance = parent.enhancer._advance
    monkeypatch.setattr(parent.enhancer, "_advance", lambda *args: advance(*args))
    row = split_replay.replay_calls(noisy.samples, parent, rounds=2)
    assert row["parent_child_cpu_s"] == 0.0 and row["change_child_cpu_s"] > 0
    assert row["identical"]
    # a side whose output moves is reported
    enhance = parent.enhance

    def louder(audio):
        out, trace, diag = enhance(audio)
        return parent.AudioBuffer(2.0 * out.samples), trace, diag
    parent.enhance = louder
    try:
        row = split_replay.replay_calls(noisy.samples, parent, rounds=1)
    finally:
        parent.enhance = enhance
    assert not row["identical"] and row["max_abs_diff"] > 0
