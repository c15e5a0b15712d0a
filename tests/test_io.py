"""File formats, model serialization, wire protocol, and the live server.

The server tests talk to a real TCP server over localhost; everything
timing-related in the protocol is sample-clock based, so these run at flood
pacing and still produce the transcripts a real-time client would see.
"""

import dataclasses
import functools
import itertools
import math
import pickle
import re
import select
import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import emgeat.feedback as feedback
import emgeat.io as io
import emgeat.learn as learn
import emgeat.realtime as rt
import emgeat.synth as synth
from emgeat.features import FeatureMatrix
from emgeat.metrics import ChewEvent
from emgeat.signal import Annotation, RawRecording


def small_recording():
    rng = np.random.default_rng(3)
    return RawRecording(
        participant_id="P07",
        sample_rate=1024.0,
        channel_names=("masseter", "submental"),
        samples=rng.normal(0.0, 0.3, (2, 256)),
        annotations=[Annotation("chew", 0.05, 0.12), Annotation("swallow", 0.15, 0.2)],
    )


class TestRecordingFiles:
    def test_round_trip_exact(self, tmp_path):
        rec = small_recording()
        path = io.write_recording(rec, tmp_path / "p07.csv")
        back = io.read_recording(path)
        assert back.participant_id == "P07"
        assert back.sample_rate == 1024.0
        assert back.channel_names == ("masseter", "submental")
        assert np.array_equal(back.samples, rec.samples)  # repr round trip
        assert [(a.kind, a.onset_s, a.termination_s) for a in back.annotations] == [
            (a.kind, a.onset_s, a.termination_s) for a in rec.annotations
        ]

    def test_missing_sidecar_means_no_annotations(self, tmp_path):
        path = io.write_recording(small_recording(), tmp_path / "p.csv")
        (tmp_path / "p.csv.ann").unlink()
        assert io.read_recording(path).annotations == []

    def test_empty_annotation_file(self, tmp_path):
        rec = small_recording()
        rec.annotations.clear()
        path = io.write_recording(rec, tmp_path / "p.csv")
        assert io.read_annotations(tmp_path / "p.csv.ann") == []
        assert io.read_recording(path).annotations == []

    def test_truncated_row_names_line(self, tmp_path):
        path = io.write_recording(small_recording(), tmp_path / "p.csv")
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]  # chop the last field
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(io.FormatError, match=r"expected 3 fields, got 2"):
            io.read_recording(path)
        with pytest.raises(io.FormatError, match=str(len(lines))):
            io.read_recording(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# not-a-recording\n")
        with pytest.raises(io.FormatError, match=":1:"):
            io.read_recording(path)

    def test_missing_sample_rate_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "# emg-recording v1\n# participant=P\n"
            "timestamp_us,masseter\n0,0.1\n"
        )
        with pytest.raises(io.FormatError, match="sample_rate_hz"):
            io.read_recording(path)

    def test_timestamps_must_increase(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "# emg-recording v1\n# participant=P\n# sample_rate_hz=1024.0\n"
            "timestamp_us,masseter\n0,0.1\n0,0.2\n"
        )
        with pytest.raises(io.FormatError, match=r"x\.csv:6: timestamp 0 is not the clock's 977"):
            io.read_recording(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (  # sample rows 100-199 deleted
                lambda lines: lines[:104] + lines[204:],
                r"p\.csv:105: timestamp 195312 is not the clock's 97656",
            ),
            (
                lambda lines: [s.replace("=1024.0", "=2048.0") for s in lines],
                r"p\.csv:6: timestamp 977 is not the clock's 488",
            ),
        ],
        ids=["deleted-rows", "wrong-rate"],
    )
    def test_rows_off_the_sample_clock_name_the_first(self, tmp_path, edit, message):
        rec = dataclasses.replace(small_recording(), annotations=[])
        path = io.write_recording(rec, tmp_path / "p.csv")
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(io.FormatError, match=message):
            io.read_recording(path)

    def test_annotation_after_the_last_sample_names_its_line(self, tmp_path):
        rng = np.random.default_rng(4)
        rec = RawRecording(
            participant_id="P",
            sample_rate=1024.0,
            channel_names=("masseter",),
            samples=rng.normal(0.0, 0.3, (1, 2048)),
            annotations=[Annotation("chew", 0.3, 0.5), Annotation("chew", 1.0, 1.147)],
        )
        path = io.write_recording(rec, tmp_path / "p.csv")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: 4 + 1000]) + "\n")  # headers + 1000 rows
        with pytest.raises(
            io.FormatError,
            match=r"p\.csv\.ann:4: annotation chew ends at 1\.147s, after the recording"
            r" \(0\.9765625s\)",
        ):
            io.read_recording(path)

    def test_participant_header_no_field_can_hold_names_its_line(self, tmp_path):
        path = io.write_recording(small_recording(), tmp_path / "p.csv")
        path.write_text(path.read_text().replace("participant=P07", "participant=P,07"))
        with pytest.raises(
            io.FormatError, match=r"p\.csv:2: participant id 'P,07' holds a comma or a line break"
        ):
            io.read_recording(path)

    def test_channel_name_no_field_can_hold_is_refused(self):
        # The column header would split it: `c.csv:5: expected 3 fields, got 2`.
        with pytest.raises(ValueError, match=r"channel name 'mass,eter' holds a comma"):
            RawRecording("P", 1024.0, ("mass,eter",), np.zeros((1, 8)))

    def test_no_sample_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "# emg-recording v1\n# participant=P\n# sample_rate_hz=1024.0\n"
            "timestamp_us,masseter\n"
        )
        with pytest.raises(io.FormatError, match="no sample rows"):
            io.read_recording(path)

    @pytest.mark.parametrize("rate", ["nan", "inf", "-1024.0", "fast"])
    def test_sample_rate_header_must_be_positive_and_finite(self, tmp_path, rate):
        path = tmp_path / "x.csv"
        path.write_text(
            f"# emg-recording v1\n# participant=P\n# sample_rate_hz={rate}\n"
            "timestamp_us,masseter\n0,0.1\n"
        )
        with pytest.raises(io.FormatError, match=f"sample_rate_hz={rate} is not"):
            io.read_recording(path)

    def test_unparseable_sample(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "# emg-recording v1\n# participant=P\n# sample_rate_hz=1024.0\n"
            "timestamp_us,masseter\n0,zero\n"
        )
        with pytest.raises(io.FormatError, match="unparseable"):
            io.read_recording(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_sample_names_line(self, tmp_path, value):
        path = io.write_recording(small_recording(), tmp_path / "p.csv")
        lines = path.read_text().splitlines()
        lines[100] = lines[100].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            io.FormatError, match=f"p.csv:101: submental value {value} is not finite"
        ):
            io.read_recording(path)


def small_matrix():
    rng = np.random.default_rng(8)
    n = 12
    return FeatureMatrix(
        feature_names=("mav", "rms", "mnf"),
        values=rng.normal(size=(n, 3)),
        labels=np.array(["C", "NA"] * (n // 2), dtype=object),
        participants=np.array([f"P{i % 3}" for i in range(n)], dtype=object),
        onsets_s=np.arange(n) * 0.1,
        terminations_s=np.arange(n) * 0.1 + 0.5,
    )


class TestDatasetFiles:
    def test_round_trip_exact(self, tmp_path):
        mat = small_matrix()
        path = io.write_dataset(mat, tmp_path / "d.csv")
        back = io.read_dataset(path)
        assert back.feature_names == mat.feature_names
        assert np.array_equal(back.values, mat.values)
        assert back.labels.tolist() == mat.labels.tolist()
        assert back.participants.tolist() == mat.participants.tolist()
        assert np.array_equal(back.onsets_s, mat.onsets_s)
        assert np.array_equal(back.terminations_s, mat.terminations_s)

    def test_feature_name_no_field_can_hold_is_refused_before_writing(self, tmp_path):
        # The column header would split it, and read_dataset refuse every row.
        mat = dataclasses.replace(small_matrix(), feature_names=("mav", "a,b", "mnf"))
        with pytest.raises(ValueError, match=r"feature name 'a,b' holds a comma"):
            io.write_dataset(mat, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("junk\n")
        with pytest.raises(io.FormatError, match=":1:"):
            io.read_dataset(path)

    def test_bad_leading_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# emg-dataset v1\nwho,label,onset_s,termination_s,mav\n")
        with pytest.raises(io.FormatError, match="leading columns"):
            io.read_dataset(path)

    def test_no_feature_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# emg-dataset v1\nparticipant,label,onset_s,termination_s\n")
        with pytest.raises(io.FormatError, match="no feature columns"):
            io.read_dataset(path)

    def test_short_row_names_line(self, tmp_path):
        path = io.write_dataset(small_matrix(), tmp_path / "d.csv")
        lines = path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(io.FormatError, match=":5:"):
            io.read_dataset(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# emg-dataset v1\nparticipant,label,onset_s,termination_s,mav\n")
        with pytest.raises(io.FormatError, match="no data rows"):
            io.read_dataset(path)

    @pytest.mark.parametrize(
        "column, value", [(5, "nan"), (4, "inf"), (6, "-inf"), (2, "nan")]
    )
    def test_non_finite_value_names_line(self, tmp_path, column, value):
        path = io.write_dataset(small_matrix(), tmp_path / "d.csv")
        lines = path.read_text().splitlines()
        parts = lines[6].split(",")
        name = lines[1].split(",")[column]
        parts[column] = value
        lines[6] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            io.FormatError, match=f"d.csv:7: {name} value {value} is not finite"
        ):
            io.read_dataset(path)


class TestEventLogs:
    def test_append_and_read_back(self, tmp_path):
        path = tmp_path / "s.events"
        first = [ChewEvent(0.5, 0.9), ChewEvent(1.2, 1.7)]
        second = [ChewEvent(2.0, 2.4)]
        io.append_events(first, path)
        io.append_events(second, path)
        back = io.read_event_log(path)
        assert [(e.onset_s, e.termination_s) for e in back] == [
            (e.onset_s, e.termination_s) for e in first + second
        ]

    def test_line_carries_duration(self):
        line = io.format_event_line(ChewEvent(1.25, 1.75))
        assert line == "event,1.25,1.75,0.5"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "s.events"
        path.write_text("event,0.5,0.9,0.4\nchew,1.0,1.2\n")
        with pytest.raises(io.FormatError, match=":2:"):
            io.read_event_log(path)

    @pytest.mark.parametrize("duration", ["banana", "nan", "0.5"])
    def test_duration_must_be_termination_minus_onset(self, tmp_path, duration):
        path = tmp_path / "s.events"
        path.write_text(f"event,0.5,0.9,0.4\nevent,1.0,2.0,{duration}\n")
        with pytest.raises(io.FormatError, match=r"s\.events:2: "):
            io.read_event_log(path)

    @pytest.mark.parametrize(
        "line", ["event,nan,nan,nan", "event,1.0,inf,inf", "event,-inf,1.0,inf"]
    )
    def test_non_finite_event_rejected(self, tmp_path, line):
        path = tmp_path / "s.events"
        path.write_text(f"event,0.5,0.9,0.4\n{line}\n")
        with pytest.raises(
            io.FormatError, match=":2: (onset|termination)_s value -?(nan|inf) is not finite"
        ):
            io.read_event_log(path)

    @pytest.mark.parametrize(
        "onset, termination, problem",
        [
            (0.2, 0.4, "events must be ordered by onset"),
            (1.2, 1.8, r"events overlap at 1\.2s \(previous ends 1\.5s\)"),
        ],
    )
    def test_events_out_of_order_name_their_line(self, tmp_path, onset, termination, problem):
        path = io.append_events(
            [ChewEvent(0.5, 0.9), ChewEvent(1.0, 1.5), ChewEvent(onset, termination)],
            tmp_path / "s.events",
        )
        with pytest.raises(io.FormatError, match=rf"s\.events:3: {problem}"):
            io.read_event_log(path)

    def test_event_wider_than_the_largest_float_round_trips(self, tmp_path):
        # Its duration overflows to inf, and the line says so.
        events = [ChewEvent(-1e308, 1e308)]
        path = io.append_events(events, tmp_path / "s.events")
        assert path.read_text() == "event,-1e+308,1e+308,inf\n"
        assert io.read_event_log(path) == events

    def test_event_may_start_where_the_previous_ends(self, tmp_path):
        # The server clamps each onset to the previous termination.
        events = [ChewEvent(0.5, 0.9), ChewEvent(0.9, 1.3)]
        assert io.read_event_log(io.append_events(events, tmp_path / "s.events")) == events

    def test_rate_series_round_trip(self, tmp_path):
        # The rows `replay` prints as `rate,<t>,<value>`, minus the tag.
        series = [(1.0, 0.4), (2.0, 1.6), (3.0, 2.25), (4.0, 1 / 3)]
        path = tmp_path / "r.csv"
        path.write_text("".join(f"{t!r},{rate!r}\n" for t, rate in series))
        assert io.read_rate_series(path) == series

    def test_rate_series_skips_comments_and_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# from session 3\nt_s,rate_hz\n1.0,0.5\n\n2.0,0.75\n")
        assert io.read_rate_series(path) == [(1.0, 0.5), (2.0, 0.75)]

    def test_rate_series_malformed(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,0.5,9\n")
        with pytest.raises(io.FormatError, match=r"r\.csv:1: expected 2 fields, got 3"):
            io.read_rate_series(path)

    @pytest.mark.parametrize("row", ["1.0,nan", "1.0,inf", "1.0,-inf", "nan,0.5"])
    def test_rate_series_non_finite_rejected(self, tmp_path, row):
        path = tmp_path / "r.csv"
        path.write_text(f"t_s,rate_hz\n0.0,0.5\n{row}\n")
        with pytest.raises(
            io.FormatError, match=":3: (t_s|rate_hz) value -?(nan|inf) is not finite"
        ):
            io.read_rate_series(path)


class TestModelFiles:
    def test_round_trip_identical_decisions(self, tmp_path, rt_model):
        path = io.save_model(rt_model, tmp_path / "m.model")
        back = io.load_model(path)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, len(rt_model.feature_names)))
        assert np.array_equal(
            learn.decision_values(back, X), learn.decision_values(rt_model, X)
        )
        assert back.feature_names == tuple(rt_model.feature_names)
        assert back.positive_label == rt_model.positive_label

    def test_train_info_round_trips(self, tmp_path, rt_model):
        back = io.load_model(io.save_model(rt_model, tmp_path / "m.model"))
        assert back.train_info == rt_model.train_info

    def test_corruption_detected(self, tmp_path, rt_model):
        path = io.save_model(rt_model, tmp_path / "m.model")
        text = path.read_text()
        i = text.index('"bias"') + 10
        flipped = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1 :]
        path.write_text(flipped)
        with pytest.raises(io.FormatError, match="checksum mismatch"):
            io.load_model(path)

    def test_missing_field_detected(self, tmp_path):
        # A well-checksummed payload that simply lacks a required field.
        import hashlib
        import json

        body = json.dumps({"weights": [0.0], "bias": 0.0}, sort_keys=True)
        digest = hashlib.sha256(body.encode()).hexdigest()
        path = tmp_path / "m.model"
        path.write_text(f"# emg-linear-model v1\n# sha256={digest}\n{body}\n")
        with pytest.raises(io.FormatError, match="feature_names"):
            io.load_model(path)

    @pytest.mark.parametrize(
        "field, change, message",
        [
            ("weights", lambda v: v[:3], "'weights' must be 7 finite numbers, one per feature"),
            ("weights", lambda v: v * np.nan, "'weights' must be 7 finite"),
            ("mean", lambda v: np.append(v, 0.0), "'mean' must be 7 finite"),
            ("scale", lambda v: v * np.inf, "'scale' must be 7 finite"),
            ("scale", lambda v: v * 0.0, "'scale' holds a zero"),
            ("bias", lambda v: np.nan, "'bias' must be a finite number"),
        ],
        ids=["short_weights", "nan_weights", "long_mean", "inf_scale", "zero_scale", "nan_bias"],
    )
    def test_arrays_must_fit_the_features(self, tmp_path, rt_model, field, change, message):
        # save_model writes what it is given, NaN included (Python's json
        # accepts it); load_model must refuse what would fail every session.
        model = dataclasses.replace(rt_model, **{field: change(getattr(rt_model, field))})
        path = io.save_model(model, tmp_path / "m.model")
        with pytest.raises(io.FormatError, match=f"m.model: model field {message}"):
            io.load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("hello\n")
        with pytest.raises(io.FormatError, match=":1: expected header '# emg-linear-model v1'"):
            io.load_model(path)

    def test_missing_checksum_line(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("# emg-linear-model v1\n{}\n")
        with pytest.raises(io.FormatError, match="checksum"):
            io.load_model(path)


def load_model_with_penalty(c, rt_model, tmp_path):
    model = dataclasses.replace(rt_model, train_info={**rt_model.train_info, "c": c})
    return io.load_model(io.save_model(model, tmp_path / "m.model"))


# Each library check on a number: a call with the value (and the fixtures
# it may need), the words of its refusal, and whether it allows 0.
LIBRARY_CHECKS = {
    "TrainConfig.c": (lambda v, *_: learn.TrainConfig(c=v), "penalty C", False),
    "SessionPlan.duration_s": (lambda v, *_: synth.SessionPlan(duration_s=v), "duration_s", False),
    "SessionPlan.sample_rate": (lambda v, *_: synth.SessionPlan(sample_rate=v), "sample_rate", False),
    "feedback.level": (
        lambda v, *_: feedback.level(v, 1.6),
        "non-negative and finite",
        True,
    ),
    "load_model.train_info.c": (load_model_with_penalty, "positive finite 'c'", False),
}


@pytest.mark.parametrize(
    "check, value",
    [
        (check, value)
        for check, (_, _, zero_allowed) in LIBRARY_CHECKS.items()
        for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)
        if not (value == 0.0 and zero_allowed)
    ],
)
def test_library_checks_refuse_nan_inf_and_out_of_range(check, value, rt_model, tmp_path):
    # Spelled so that nan fails too: `c <= 0` let a nan penalty through, and
    # a nan fit writes an all-zero model.
    call, message, _ = LIBRARY_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        call(value, rt_model, tmp_path)


def write_with_sample(value, tmp_path):
    recording = small_recording()
    recording.samples[1, 3] = value
    try:
        io.write_recording(recording, tmp_path / "p.csv")
    finally:
        assert not (tmp_path / "p.csv").exists()  # refused before opening


# Each check that a plan or recording its own readers would refuse is turned
# away where it is made: a call with the value, and the words of its refusal.
NON_FINITE_CHECKS = {
    "SessionPlan.snr_db": (lambda v, _: synth.SessionPlan(snr_db=v), "snr_db"),
    "SessionPlan.chew_rate_hz": (lambda v, _: synth.SessionPlan(chew_rate_hz=v), "chew_rate_hz"),
    "SessionPlan.chew_duration_mean_s": (
        lambda v, _: synth.SessionPlan(chew_duration_mean_s=v),
        "chew_duration_mean_s",
    ),
    "SessionPlan.baseline_lead_s": (
        lambda v, _: synth.SessionPlan(baseline_lead_s=v),
        "baseline_lead_s",
    ),
    "write_recording": (write_with_sample, "submental value .* at sample 3 is not finite"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("check", NON_FINITE_CHECKS)
def test_non_finite_plans_and_samples_refused(check, value, tmp_path):
    # Before, `generate --snr nan` wrote a recording that `preprocess` then
    # refused, and `--rate nan` silently wrote one with no chews.
    call, message = NON_FINITE_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        call(value, tmp_path)


@pytest.mark.parametrize("snr_db", [7000.0, 6000.0, -7000.0])
def test_unusable_snr_refused(snr_db):
    # Before, `generate --snr 7000` overflowed computing the burst level, and
    # `--snr 6000` wrote samples near 1e299 that `replay` could not send.
    with pytest.raises(ValueError, match="snr_db"):
        synth.SessionPlan(snr_db=snr_db)
    synth.SessionPlan(snr_db=math.copysign(synth.MAX_ABS_SNR_DB, snr_db))


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    """reader name -> (reader, a valid file it reads). Each reader also gets
    a `case_<name>` directory beside the file for altered copies; the
    recording's holds a valid annotation sidecar."""
    d = tmp_path_factory.mktemp("readers")
    recording = io.write_recording(small_recording(), d / "p.csv")
    model = learn.LinearModel(
        feature_names=("a", "b"),
        weights=np.array([0.5, -1.0]),
        bias=0.25,
        mean=np.zeros(2),
        scale=np.ones(2),
        positive_label="C",
    )
    rates = d / "r.csv"
    rates.write_text("t_s,rate_hz\n1.0,0.5\n2.0,1.25\n3.0,0.0\n")
    events = [ChewEvent(0.5, 0.9), ChewEvent(0.9, 1.3), ChewEvent(2.0, 2.5)]
    files = {
        "recording": (io.read_recording, recording),
        "annotations": (io.read_annotations, d / "p.csv.ann"),
        "dataset": (io.read_dataset, io.write_dataset(small_matrix(), d / "d.csv")),
        "event_log": (io.read_event_log, io.append_events(events, d / "s.events")),
        "rate_series": (io.read_rate_series, rates),
        "model": (io.load_model, io.save_model(model, d / "m.model")),
    }
    for name, (_, path) in files.items():
        (d / f"case_{name}").mkdir()
    (d / "case_recording" / "p.csv.ann").write_bytes((d / "p.csv.ann").read_bytes())
    return files


def altered(reader_files, name, content):
    """Write `content` as the reader's case file; returns the reader's result."""
    reader, path = reader_files[name]
    case = path.parent / f"case_{name}" / path.name
    case.write_bytes(content)
    return reader(case)


def same_result(a, b):
    return pickle.dumps(a) == pickle.dumps(b)


# Edits of a valid file: each cuts up to 3 bytes somewhere and puts one byte
# (or none) in their place. The bytes include ones that are not UTF-8.
_EDIT_BYTES = [bytes([b]) for b in b"0123456789.,-+e\n\r #nai"] + [b"", b"\xff", b"\x80", b"\xc3"]


def edited(original):
    def apply(edits):
        data = bytearray(original)
        for at, cut, insert in edits:
            data[at : at + cut] = insert
        return bytes(data)

    edit = st.tuples(
        st.integers(0, len(original)), st.integers(0, 3), st.sampled_from(_EDIT_BYTES)
    )
    return st.lists(edit, min_size=1, max_size=4).map(apply)


READERS = ["recording", "annotations", "dataset", "event_log", "rate_series", "model"]


class TestSharedReader:
    """All six readers take their lines from `read_lines` and their rows
    from `rows`, so they agree on decoding, line ends and errors."""

    @pytest.mark.parametrize("name", READERS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_only_format_errors_escape(self, reader_files, name, data):
        original = reader_files[name][1].read_bytes()
        content = data.draw(st.one_of(st.binary(max_size=200), edited(original)))
        try:
            altered(reader_files, name, content)
        except io.FormatError:
            pass

    @pytest.mark.parametrize("name", READERS)
    def test_non_utf8_byte_names_its_line(self, reader_files, name):
        path = reader_files[name][1]
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        with pytest.raises(
            io.FormatError, match=rf"case_{name}/{path.name}:3: byte 0xff is not UTF-8"
        ):
            altered(reader_files, name, b"\n".join(lines))

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("name", READERS)
    def test_any_line_end_reads_the_same(self, reader_files, name, end):
        reader, path = reader_files[name]
        content = path.read_bytes().replace(b"\n", end)
        assert same_result(altered(reader_files, name, content), reader(path))


# Numbers that float() or int() would read but that break the number rule of
# the wire and the files: an "_" between digits, digits outside ASCII, or
# ASCII whitespace around the digits, which both functions strip. A line
# break cannot sit inside a file's field, so only the wire's checks get it.
NOT_PLAIN = [
    "1_0", "2_5.0", "\u0661\u0662", "\uff11\uff12", " 1", "1 ", "\t0", "1\x0b", "\x0c1"
]
LINE_BREAKS = ["1\n", "\r1"]


class TestNumberRule:
    @pytest.mark.parametrize("text", NOT_PLAIN + LINE_BREAKS)
    def test_wire_fields_refuse_them(self, text):
        from emgeat.io import protocol

        with pytest.raises(io.ProtocolError, match="hello frame field ref is not a number"):
            protocol.parse_float("hello", {"ref": text}, "ref")
        with pytest.raises(io.ProtocolError, match="samples frame field t_us is not an integer"):
            protocol.parse_int("samples", {"t_us": text}, "t_us")
        for v in (f"0.5,{text}", f"{text},0.5"):
            with pytest.raises(io.ProtocolError, match="unparseable samples"):
                protocol.parse_values({"v": v}, 2)

    @pytest.mark.parametrize(
        "line",
        [
            "samples t_us=0 n=2 v=1_0,2_5",
            "samples t_us=0 n=1_0 v=" + ",".join(["0.5"] * 10),
            "samples t_us=\u0661\u0662 n=1 v=0.5",
            "samples t_us=0 n=1 v=\uff10.5",
            "samples t_us=\t0 n=1 v=0.5",
            "samples t_us=0 n=2 v=1.0\t,2.0",
        ],
    )
    def test_a_session_refuses_them(self, rt_model, line):
        session = io.server._Session(rt_model, io.DEFAULT_REFERENCE_RATE_HZ, lambda: None)
        session.feed(TestRandomLines.HELLO)
        [reply] = session.feed((line + "\n").encode())
        assert reply.startswith("error reason=protocol detail=samples_frame_")
        assert session.done

    @pytest.mark.parametrize("text", NOT_PLAIN)
    @pytest.mark.parametrize("name", [r for r in READERS if r != "model"])
    def test_file_readers_refuse_them(self, reader_files, name, text):
        lines = reader_files[name][1].read_text().splitlines()
        row, _ = lines[-1].rsplit(",", 1)
        lines[-1] = f"{row},{text}"
        unparseable = rf":{len(lines)}: \w+ value {re.escape(repr(text))} is unparseable"
        with pytest.raises(io.FormatError, match=unparseable):
            altered(reader_files, name, "\n".join(lines).encode())

    @pytest.mark.parametrize("rate", ["1_024.0", "\uff11024.0", " 1024.0", "1024.0\t"])
    def test_sample_rate_header_refuses_them(self, tmp_path, rate):
        path = tmp_path / "x.csv"
        path.write_text(
            f"# emg-recording v1\n# participant=P\n# sample_rate_hz={rate}\n"
            "timestamp_us,masseter\n0,0.1\n",
            encoding="utf-8",
        )
        with pytest.raises(io.FormatError, match=f"sample_rate_hz={rate} is not"):
            io.read_recording(path)

    def test_text_fields_stay_free(self, tmp_path):
        rec = dataclasses.replace(small_recording(), participant_id="P_\u0661")
        path = io.write_recording(rec, tmp_path / "p.csv")
        assert io.read_recording(path).participant_id == "P_\u0661"
        assert io.parse_frame("hello participant=P_\u0661")[1]["participant"] == "P_\u0661"


class TestProtocol:
    def test_format_parse_round_trip(self):
        line = io.format_frame("rate", {"t": 3.0, "value": 1.25})
        assert line == "rate t=3.0 value=1.25"
        kind, fields = io.parse_frame(line)
        assert kind == "rate"
        assert fields == {"t": "3.0", "value": "1.25"}

    def test_field_order_preserved(self):
        line = io.format_frame("samples", {"t_us": 0, "n": 2, "v": "0.5,0.25"})
        assert line == "samples t_us=0 n=2 v=0.5,0.25"

    def test_unknown_kind_rejected(self):
        with pytest.raises(io.ProtocolError, match="unknown frame kind"):
            io.parse_frame("flub a=1")

    def test_kind_filter(self):
        from emgeat.io import protocol

        with pytest.raises(io.ProtocolError, match="unknown frame kind"):
            protocol.parse_frame("rate t=1.0 value=0.5", allowed=protocol.CLIENT_KINDS)

    def test_empty_frame_rejected(self):
        with pytest.raises(io.ProtocolError, match="empty"):
            io.parse_frame("   ")

    def test_malformed_field(self):
        with pytest.raises(io.ProtocolError, match="malformed field"):
            io.parse_frame("hello participant")

    def test_duplicate_field(self):
        with pytest.raises(io.ProtocolError, match="duplicate"):
            io.parse_frame("hello a=1 a=2")

    def test_unrepresentable_value(self):
        with pytest.raises(io.ProtocolError, match="not representable"):
            io.format_frame("hello", {"participant": "two words"})

    def test_field_parsers(self):
        from emgeat.io import protocol

        with pytest.raises(io.ProtocolError, match="missing field"):
            protocol.parse_float("rate", {}, "t")
        with pytest.raises(io.ProtocolError, match="not a number"):
            protocol.parse_float("rate", {"t": "x"}, "t")
        with pytest.raises(io.ProtocolError, match="not an integer"):
            protocol.parse_int("samples", {"t_us": "1.5"}, "t_us")
        with pytest.raises(io.ProtocolError, match="unparseable samples"):
            protocol.parse_values({"v": "1.0,oops"}, 2)
        with pytest.raises(io.ProtocolError, match="field n is 3 but 2 values follow"):
            protocol.parse_values({"v": "1.0,2.0"}, 3)
        assert protocol.parse_values({"v": "1.0,2.0"}, 2) == [1.0, 2.0]

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(), allowed=st.sampled_from([None, io.protocol.CLIENT_KINDS]))
    def test_parse_frame_returns_or_raises_protocol_error(self, line, allowed):
        try:
            kind, fields = io.parse_frame(line, allowed=allowed)
        except io.ProtocolError:
            return
        assert isinstance(kind, str) and all(isinstance(v, str) for v in fields.values())

    def test_parse_values_keeps_its_rules(self):
        from emgeat.io import protocol

        def parse(v):
            return protocol.parse_values({"v": v}, v.count(",") + 1)

        # Non-finite tokens parse; the session refuses them (TestServerErrors).
        values = parse("nan,inf,-inf,1e400")
        assert math.isnan(values[0]) and values[1:] == [math.inf, -math.inf, math.inf]
        # An empty token is unparseable wherever it falls.
        for bad in ("1.0,oops", "oops", "1.0,,oops,", "1.0;2.0", "1.0,,2.0", ",1.0", "1.0,", ""):
            with pytest.raises(io.ProtocolError, match="unparseable samples"):
                parse(bad)
        with pytest.raises(io.ProtocolError, match="missing field 'v'"):
            protocol.parse_values({}, 1)


# --- live server ------------------------------------------------------------


# --- write -> read round trips ------------------------------------------------

# Finite doubles, with the awkward ones always in play: both zeros, the
# smallest subnormal and a larger one, and the ends of the range.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1e308, 1.7976931348623157e308]
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
names = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)


def same_bits(a, b):
    """Equal shapes and the same bytes: tells -0.0 from 0.0, nan from nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def writable(text):
    """True if one field of a UTF-8 comma-separated line can hold text."""
    # Surrogate code points are the only ones UTF-8 has no bytes for.
    return not any(c in ",\r\n" or 0xD800 <= ord(c) <= 0xDFFF for c in text)


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        rate=st.floats(1.0, 1e5),
        n_channels=st.integers(1, 3),
        n_samples=st.integers(1, 20),
        participant=names,
    )
    def test_recording(self, tmp_path_factory, data, rate, n_channels, n_samples, participant):
        values = data.draw(
            st.lists(finite, min_size=n_channels * n_samples, max_size=n_channels * n_samples)
        )
        duration = n_samples / rate
        fractions = data.draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=4))
        annotations = [
            Annotation(kind, min(a, b) * duration, max(a, b) * duration)
            for (a, b), kind in zip(fractions, ("chew", "swallow", "speech", "baseline"))
            if min(a, b) * duration < max(a, b) * duration
        ]
        rec = RawRecording(
            participant_id=participant,
            sample_rate=rate,
            channel_names=tuple(f"ch{i}" for i in range(n_channels)),
            samples=np.reshape(values, (n_channels, n_samples)),
            annotations=annotations,
        )
        path = tmp_path_factory.mktemp("rec") / "r.csv"
        back = io.read_recording(io.write_recording(rec, path))
        assert (back.participant_id, back.sample_rate, back.channel_names) == (
            rec.participant_id, rec.sample_rate, rec.channel_names,
        )
        assert same_bits(back.samples, rec.samples)
        assert back.annotations == rec.annotations

    @settings(max_examples=80, deadline=None)
    @given(text=st.text(st.one_of(st.sampled_from(",\r\n"), st.characters()), max_size=8))
    @example(text="\ud800")  # a lone surrogate: no UTF-8 bytes
    def test_text_ids_come_back_or_are_refused_before_writing(self, tmp_path_factory, text):
        """A participant id or label comes back from its file unchanged, or
        is refused before any file is written."""
        d = tmp_path_factory.mktemp("ids")
        try:
            rec = dataclasses.replace(small_recording(), participant_id=text)
        except ValueError:
            assert not writable(text)
        else:
            assert io.read_recording(io.write_recording(rec, d / "r.csv")).participant_id == text
        for field in ("participants", "labels"):
            mat = dataclasses.replace(
                small_matrix(), **{field: np.array([text] * 12, dtype=object)}
            )
            try:
                back = io.read_dataset(io.write_dataset(mat, d / f"{field}.csv"))
            except ValueError:
                assert not (d / f"{field}.csv").exists()
                assert not writable(text)
            else:
                assert getattr(back, field).tolist() == [text] * 12

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 6), n_features=st.integers(1, 4))
    def test_dataset(self, tmp_path_factory, data, n_rows, n_features):
        column = st.lists(finite, min_size=n_rows, max_size=n_rows)
        mat = FeatureMatrix(
            feature_names=tuple(data.draw(st.lists(names, min_size=n_features, max_size=n_features))),
            values=np.reshape(
                data.draw(st.lists(finite, min_size=n_rows * n_features, max_size=n_rows * n_features)),
                (n_rows, n_features),
            ),
            labels=np.array(data.draw(st.lists(names, min_size=n_rows, max_size=n_rows)), dtype=object),
            participants=np.array(data.draw(st.lists(names, min_size=n_rows, max_size=n_rows)), dtype=object),
            onsets_s=np.array(data.draw(column)),
            terminations_s=np.array(data.draw(column)),
        )
        back = io.read_dataset(io.write_dataset(mat, tmp_path_factory.mktemp("ds") / "d.csv"))
        assert back.feature_names == mat.feature_names
        assert back.labels.tolist() == mat.labels.tolist()
        assert back.participants.tolist() == mat.participants.tolist()
        for name in ("values", "onsets_s", "terminations_s"):
            assert same_bits(getattr(back, name), getattr(mat, name))

    @settings(max_examples=40, deadline=None)
    @given(edges=st.lists(finite, min_size=2, max_size=20, unique=True))
    def test_event_log(self, tmp_path_factory, edges):
        edges = sorted(edges)
        events = [ChewEvent(a, b) for a, b in zip(edges[::2], edges[1::2])]
        path = tmp_path_factory.mktemp("ev") / "s.events"
        io.append_events(events, path)
        back = io.read_event_log(path)
        assert same_bits(
            [(e.onset_s, e.termination_s) for e in back],
            [(e.onset_s, e.termination_s) for e in events],
        )

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n_features=st.integers(1, 5),
        bias=finite,
        labels=st.tuples(st.text(min_size=1), st.text(min_size=1)),
        feature_names=st.lists(st.text(), min_size=5, max_size=5),
    )
    def test_model_gives_bit_identical_decisions(
        self, tmp_path_factory, data, n_features, bias, labels, feature_names
    ):
        vector = st.lists(finite, min_size=n_features, max_size=n_features)
        nonzero = finite.filter(lambda v: v != 0.0)
        model = learn.LinearModel(
            feature_names=tuple(feature_names[:n_features]),
            weights=np.array(data.draw(vector)),
            bias=bias,
            mean=np.array(data.draw(vector)),
            scale=np.array(data.draw(st.lists(nonzero, min_size=n_features, max_size=n_features))),
            positive_label=labels[0],
            negative_label=labels[1],
            train_info={"converged": True, "epochs": 3, "c": 5.0},
        )
        path = tmp_path_factory.mktemp("model") / "m.model"
        back = io.load_model(io.save_model(model, path))
        assert (back.feature_names, back.positive_label, back.negative_label) == (
            model.feature_names, model.positive_label, model.negative_label,
        )
        assert back.train_info == model.train_info
        for name in ("weights", "bias", "mean", "scale"):
            assert same_bits(getattr(back, name), getattr(model, name))
        X = np.array(data.draw(st.lists(vector, min_size=1, max_size=4)))
        with np.errstate(all="ignore"):  # extreme values may overflow to inf
            assert same_bits(learn.decision_values(back, X), learn.decision_values(model, X))


@pytest.fixture(scope="module")
def server(rt_model, tmp_path_factory):
    log_dir = tmp_path_factory.mktemp("session_logs")
    srv = io.serve(rt_model, io.ServerConfig(log_dir=log_dir)).start_background()
    yield srv
    srv.shutdown()


def short_session(seed, duration_s=5.0, participant="S"):
    return synth.gen_session(
        synth.SessionPlan(
            duration_s=duration_s, seed=seed, participant_id=participant
        )
    )


def raw_exchange(port, lines):
    """Send raw frame lines, return every reply line until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        for line in lines:
            sock.sendall((line + "\n").encode())
        replies = []
        fh = sock.makefile("r")
        for reply in fh:
            replies.append(reply.rstrip("\n"))
    return replies


def exchange_past_reset(port, lines):
    """raw_exchange for sessions the server ends with part of a line unread.

    Closing a socket with unread input resets the connection, which can fail
    the rest of the send; the replies sent before the reset stay readable.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            for line in lines:
                sock.sendall((line + "\n").encode())
        except (BrokenPipeError, ConnectionResetError):
            pass
        replies = []
        try:
            for reply in sock.makefile("r"):
                replies.append(reply.rstrip("\n"))
        except ConnectionResetError:
            pass
    return replies


def exchange_with_log_blocked(port, lines, log_path):
    """exchange_past_reset, but `log_path` is made a directory once hello is
    answered, so the session's event-log writes fail. (Made any earlier, the
    server would skip the name and log the session to the next one.)"""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        fh = sock.makefile("r")
        sock.sendall((lines[0] + "\n").encode())
        replies = [fh.readline().rstrip("\n")]
        log_path.mkdir()
        try:
            sock.sendall("".join(line + "\n" for line in lines[1:]).encode())
        except (BrokenPipeError, ConnectionResetError):
            pass
        try:
            for reply in fh:
                replies.append(reply.rstrip("\n"))
        except ConnectionResetError:
            pass
    return replies


class TestServerSessions:
    def test_round_trip(self, server, profile):
        rec = short_session(seed=21)
        result = io.stream_client(rec, "127.0.0.1", server.port, speed=0, profile=profile)
        assert result.errors == []
        assert result.reported_events is not None
        assert result.transcript[0].startswith("hello participant=S")
        assert [t for t, _ in result.rates] == [1.0, 2.0, 3.0, 4.0, 5.0]
        for _, label in result.levels:
            assert label in {"no_pulse", "single_pulse", "double_pulse", "intense_double"}

    def test_transcript_reproducible(self, server, profile):
        rec = short_session(seed=22)
        a = io.stream_client(rec, "127.0.0.1", server.port, speed=0, profile=profile)
        b = io.stream_client(rec, "127.0.0.1", server.port, speed=0, profile=profile)
        assert a.transcript == b.transcript

    def test_pacing_does_not_change_transcript(self, server, profile):
        # Paced replay sleeps between frames; frame content is sample-clocked.
        rec = short_session(seed=23)
        paced = io.stream_client(rec, "127.0.0.1", server.port, speed=2.5, profile=profile)
        flood = io.stream_client(rec, "127.0.0.1", server.port, speed=0, profile=profile)
        assert paced.transcript == flood.transcript

    def test_default_profile_from_stream(self, server):
        # No profile argument: the client calibrates from the recording itself.
        rec = short_session(seed=24, duration_s=8.0)
        result = io.stream_client(rec, "127.0.0.1", server.port, speed=0)
        assert result.errors == []
        assert result.reported_events is not None

    def test_event_log_matches_reported_count(self, server, profile):
        before = set(server.config.log_dir.glob("session_*.events"))
        rec = short_session(seed=25, duration_s=20.0)
        result = io.stream_client(rec, "127.0.0.1", server.port, speed=0, profile=profile)
        new = set(server.config.log_dir.glob("session_*.events")) - before
        assert len(new) == 1
        events = io.read_event_log(new.pop())
        assert len(events) == result.reported_events > 0
        for prev, cur in zip(events, events[1:]):
            assert cur.onset_s >= prev.termination_s

    def test_concurrent_sessions_are_isolated(self, server, profile):
        before = set(server.config.log_dir.glob("session_*.events"))
        long_rec = short_session(seed=26, duration_s=20.0, participant="LONG")
        short_rec = short_session(seed=27, duration_s=6.0, participant="SHORT")
        results = {}

        def run(name, rec):
            results[name] = io.stream_client(
                rec, "127.0.0.1", server.port, speed=0, profile=profile
            )

        threads = [
            threading.Thread(target=run, args=("long", long_rec)),
            threading.Thread(target=run, args=("short", short_rec)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert results["long"].errors == [] and results["short"].errors == []
        counts = {results["long"].reported_events, results["short"].reported_events}
        new = set(server.config.log_dir.glob("session_*.events")) - before
        assert len(new) == 2
        log_counts = {len(io.read_event_log(p)) for p in new}
        assert log_counts == counts
        assert results["long"].reported_events > results["short"].reported_events

    def test_restarted_server_continues_the_log_numbering(self, rt_model, profile, tmp_path):
        # Two servers in turn on one log dir: the second must not append its
        # session, whose times restart at 0, to the first one's log.
        results = []
        for seed in (31, 32):
            srv = io.serve(rt_model, io.ServerConfig(log_dir=tmp_path)).start_background()
            try:
                results.append(
                    io.stream_client(
                        short_session(seed, duration_s=10.0), "127.0.0.1", srv.port,
                        speed=0, profile=profile,
                    )
                )
            finally:
                srv.shutdown()
        logs = sorted(tmp_path.glob("session_*.events"))
        assert [p.name for p in logs] == ["session_001.events", "session_002.events"]
        counts = [len(io.read_event_log(p)) for p in logs]
        assert counts == [r.reported_events for r in results] and min(counts) > 0

    def test_only_accepted_hellos_use_up_log_numbers(self, rt_model, profile, tmp_path):
        # A refused hello and a connection that sends nothing claim no
        # number, so the first accepted session logs to session_001.events.
        srv = io.serve(rt_model, io.ServerConfig(log_dir=tmp_path)).start_background()
        try:
            hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
            refused = raw_exchange(srv.port, [hello + " r_ref=nan"])
            with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as sock:
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(1) == b""  # closed unanswered
            result = io.stream_client(
                short_session(33), "127.0.0.1", srv.port, speed=0, profile=profile
            )
        finally:
            srv.shutdown()
        assert refused == ["error reason=protocol detail=hello_r_ref_must_be_positive_and_finite"]
        assert [p.name for p in tmp_path.glob("session_*.events")] == ["session_001.events"]
        logged = io.read_event_log(tmp_path / "session_001.events")
        assert len(logged) == result.reported_events > 0

    def test_rate_frames_once_per_streamed_second(self, server, profile):
        rec = short_session(seed=28, duration_s=7.0)
        result = io.stream_client(rec, "127.0.0.1", server.port, speed=0, profile=profile)
        assert [t for t, _ in result.rates] == [float(k) for k in range(1, 8)]

    @pytest.mark.parametrize(
        "frame_s, message",
        [
            (0.0, "must be positive"),
            (-1.0, "must be positive"),
            (11.0, "1.0 s"),
            (1.001, "1.0 s"),  # 1025 samples at 1024 Hz, one over the bound
            # inf used to overflow `int` instead
            (math.inf, "must be positive and finite"),
            (math.nan, "must be positive and finite"),
        ],
    )
    def test_frame_the_server_would_refuse_rejected_before_connecting(
        self, frame_s, message
    ):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ValueError, match=message):
            io.stream_client(
                short_session(seed=29), "127.0.0.1", free_port, speed=0,
                frame_s=frame_s,
            )

    @pytest.mark.parametrize("speed", [-1.0, math.nan])
    def test_negative_or_nan_speed_rejected_before_connecting(self, speed):
        # A nan speed used to pass `speed < 0` and flood.
        with pytest.raises(ValueError, match="speed must be >= 0"):
            io.stream_client(short_session(seed=29), "127.0.0.1", 1, speed=speed)

    @pytest.mark.parametrize("rate", [math.nan, 0.0, -1.0])
    def test_bad_reference_rate_rejected_before_connecting(self, rate):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ValueError, match="reference rate .* must be positive"):
            io.stream_client(
                short_session(seed=29), "127.0.0.1", free_port, speed=0,
                reference_rate_hz=rate,
            )

    @pytest.mark.parametrize("participant", ["P 1", "P=1"])
    def test_participant_the_wire_cannot_carry_refused_before_connecting(
        self, monkeypatch, participant
    ):
        def never(*args):
            raise AssertionError("connected before the hello was built")

        monkeypatch.setattr(io.client, "_connect", never)
        rec = short_session(seed=29, participant=participant)
        with pytest.raises(io.ProtocolError, match=f"participant='{participant}' not"):
            io.stream_client(rec, "127.0.0.1", 1, speed=0)

    def test_frame_of_exactly_the_cap_is_accepted(self, server, profile):
        rec = short_session(seed=30, duration_s=3.0)
        result = io.stream_client(
            rec, "127.0.0.1", server.port, speed=0, profile=profile, frame_s=1.0
        )
        assert result.errors == [] and result.reported_events is not None

    def test_server_absent(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ConnectionError):
            io.stream_client(
                short_session(seed=29),
                "127.0.0.1",
                free_port,
                speed=0,
            )


def exchange_with_fake_server(profile, replies, hang_up=False):
    """stream_client against a one-connection server that answers hello
    with `replies` and then stays silent: it reads until the client leaves,
    or with `hang_up` closes after a few frames with input left unread.
    Returns the client's result, its run time and the lines it sent."""
    received = []
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as fh:
                received.append(fh.readline())
                conn.sendall(b"hello participant=S\n" + b"".join(r + b"\n" for r in replies))
                for line in fh:
                    received.append(line)
                    if hang_up and len(received) == 4:
                        return

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        start = time.monotonic()
        try:
            result = io.stream_client(
                short_session(seed=29), "127.0.0.1", listener.getsockname()[1],
                speed=0 if hang_up else 1.0, profile=profile,
            )
        finally:
            thread.join(timeout=10)
        return result, time.monotonic() - start, received


class TestReplayClient:
    @pytest.mark.parametrize(
        "reply",
        [
            b"rate t=1.0 \xff\xfe",
            b"rate t=abc value=0.0",
            b"level t=1.0",
            b"bye",
            b"bye events=1.5",
            b"ok events=3",
        ],
    )
    def test_malformed_reply_ends_the_session_at_once(self, profile, reply):
        # A paced 5 s session: only the bad reply can end it this soon.
        replies = [reply, b"rate t=1.0 value=0.5"]
        result, elapsed, received = exchange_with_fake_server(profile, replies)
        line = reply.decode(errors="backslashreplace")
        assert elapsed < 5.0
        assert result.errors == [line]
        assert result.transcript == ["hello participant=S", line]
        assert result.reported_events is None and result.rates == []
        assert b"bye\n" not in received

    def test_error_frame_kept_when_the_server_hangs_up(self, profile):
        error = b"error reason=server detail=disk_full"
        result, elapsed, _ = exchange_with_fake_server(profile, [error], hang_up=True)
        assert elapsed < 5.0
        assert result.transcript == ["hello participant=S", error.decode()]
        assert result.errors == [error.decode()] and result.reported_events is None

    def test_no_sleep_after_the_last_connect_attempt(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(io.client.time, "sleep", sleeps.append)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ConnectionError, match="after 4 tries"):
            io.client._connect("127.0.0.1", free_port)
        assert sleeps == [io.client.CONNECT_RETRY_WAIT_S] * io.client.CONNECT_RETRIES


class TestServerErrors:
    def test_session_must_open_with_hello(self, server):
        replies = raw_exchange(server.port, ["samples t_us=0 n=1 v=0.5"])
        assert len(replies) == 1
        kind, fields = io.parse_frame(replies[0])
        assert kind == "error"
        assert fields["reason"] == "protocol"
        assert "hello" in fields["detail"]

    def test_duplicate_hello(self, server):
        hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
        replies = raw_exchange(server.port, [hello, hello])
        assert replies[0].startswith("hello")
        kind, fields = io.parse_frame(replies[1])
        assert kind == "error" and fields["reason"] == "protocol"
        assert "duplicate" in fields["detail"]

    def test_unknown_kind_closes_session(self, server):
        replies = raw_exchange(server.port, ["flub a=1"])
        kind, fields = io.parse_frame(replies[0])
        assert kind == "error" and fields["reason"] == "protocol"

    def test_unparseable_samples(self, server):
        hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
        replies = raw_exchange(server.port, [hello, "samples t_us=0 n=1 v=abc"])
        kind, fields = io.parse_frame(replies[1])
        assert kind == "error" and fields["reason"] == "protocol"

    def test_timestamps_must_advance(self, server):
        hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
        frame = "samples t_us=0 n=2 v=0.1,0.2"
        replies = raw_exchange(server.port, [hello, frame, frame])
        kind, fields = io.parse_frame(replies[-1])
        assert kind == "error" and fields["reason"] == "protocol"
        assert "advance" in fields["detail"]

    @pytest.mark.parametrize(
        "order, detail",
        [
            ((0, 2), "timestamp_250000_is_not_125000:_the_clock_must_advance_with_the_128_"),
            ((0, 1, 1), "timestamp_125000_is_not_250000:_the_clock_must_advance_with_the_256_"),
        ],
        ids=["skipped", "repeated"],
    )
    def test_timestamp_must_be_the_sample_clock(self, server, order, detail):
        # Frames of 128 samples at 1024 Hz start every 125000 us, so a frame
        # left out or sent twice shows in the next frame's t_us.
        hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
        values = ",".join(["0.5"] * 128)
        frames = [f"samples t_us={k * 125000} n=128 v={values}" for k in order]
        replies = raw_exchange(server.port, [hello] + frames)
        assert replies == [
            "hello participant=P",
            f"error reason=protocol detail=samples_{detail}samples_received",
        ]

    def test_oversized_frame_gets_slowdown_not_ingested(self, server):
        # 1 s of signal is the most one frame may carry; one sample more is
        # a protocol error like any other: it ends the session, and the
        # bye after it gets no reply.
        fs = 1024.0
        hello = f"hello participant=P sample_rate={fs!r} ref=1.0 mu0=0.1 delta0=0.02"
        too_many = ",".join(["0.5"] * (int(fs) + 1))
        replies = exchange_past_reset(
            server.port, [hello, f"samples t_us=0 n={int(fs) + 1} v={too_many}", "bye"]
        )
        assert replies == [
            "hello participant=P",
            "error reason=protocol detail=samples_frame_n_1025_holds_over_1.0_s",
        ]

    def test_over_long_line_before_hello_is_not_parsed(self, server):
        replies = exchange_past_reset(server.port, ["hello participant=" + "x" * 5000])
        assert replies == ["error reason=protocol detail=frame_longer_than_4096_bytes"]

    @pytest.mark.parametrize("extra", [0, 1, 5_000_000])
    def test_over_long_samples_line_is_not_parsed(self, server, extra):
        # After hello the cap is 4096 bytes plus 32 per value of 1 s at 1024 Hz.
        # A line of `cap` bytes (newline included) is read and parsed, here as
        # one sample of 0.0; one byte more ends the session unparsed.
        cap = 4096 + 1024 * 32
        hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
        prefix = "samples t_us=0 n=1 v="
        line = prefix + "0" * (cap - len(prefix) - 1 + extra)
        replies = exchange_past_reset(server.port, [hello, line, "bye"])
        assert replies[0] == "hello participant=P"
        if extra == 0:
            assert replies[1:] == ["bye events=0"]
        else:
            assert replies[1:] == [
                f"error reason=protocol detail=frame_longer_than_{cap}_bytes"
            ]

    def test_event_log_write_failure_is_a_server_error(
        self, rt_model, profile, test_session, tmp_path
    ):
        # The first session's log path is a directory: the first closed event
        # ends that session with an error frame instead of killing the handler.
        fs = test_session.sample_rate
        lines = (
            [hello_line(profile, fs, "E")]
            + sample_frames(test_session.channel("masseter")[: int(20 * fs)], fs, 128)
            + ["bye"]
        )
        srv = io.serve(rt_model, io.ServerConfig(log_dir=tmp_path)).start_background()
        try:
            first = exchange_with_log_blocked(srv.port, lines, tmp_path / "session_001.events")
            second = io.stream_client(
                test_session, "127.0.0.1", srv.port, speed=0, profile=profile
            )
        finally:
            srv.shutdown()
        kind, fields = io.parse_frame(first[-1])
        assert kind == "error" and fields["reason"] == "server"
        assert "Is_a_directory" in fields["detail"]
        assert [r for r in first if r.startswith(("error", "bye"))] == first[-1:]
        assert second.errors == [] and second.reported_events > 0
        logged = io.read_event_log(tmp_path / "session_002.events")
        assert len(logged) == second.reported_events

    def test_unusable_log_dir_is_a_server_error(self, rt_model, tmp_path):
        log_dir = tmp_path / "not_a_dir"
        log_dir.write_text("")
        srv = io.serve(rt_model, io.ServerConfig(log_dir=log_dir)).start_background()
        try:
            hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
            replies = raw_exchange(srv.port, [hello])
        finally:
            srv.shutdown()
        assert len(replies) == 1
        kind, fields = io.parse_frame(replies[0])
        assert kind == "error" and fields["reason"] == "server"
        assert fields["detail"] == "File_exists"
        assert "not_a_dir" not in replies[0]

    @pytest.mark.parametrize(
        "value, detail",
        [
            ("nan", "nan_at_index_5_is_not_finite"),
            ("inf", "inf_at_index_5_is_not_finite"),
            ("-inf", "-inf_at_index_5_is_not_finite"),
            ("1e308,1e308", "overflow"),
        ],
    )
    def test_nonfinite_samples_are_protocol_errors(self, server, value, detail):
        hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
        good = ",".join(["0.5"] * 128)
        inserted = value.split(",")
        bad = ",".join(["0.5"] * 5 + inserted + ["0.5"] * (123 - len(inserted)))
        frames = [
            hello,
            f"samples t_us=0 n=128 v={good}",
            f"samples t_us=125000 n=128 v={good}",
            f"samples t_us=250000 n=128 v={bad}",
        ]
        replies = raw_exchange(server.port, frames)
        assert replies[0].startswith("hello")
        kind, fields = io.parse_frame(replies[-1])
        assert kind == "error" and fields["reason"] == "protocol"
        assert detail in fields["detail"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ref", "0.0"),
            ("ref", "-1.0"),
            ("ref", "nan"),
            ("ref", "inf"),
            ("sample_rate", "0.0"),
            ("sample_rate", "nan"),
            ("sample_rate", "inf"),
            ("r_ref", "0.0"),
            ("r_ref", "nan"),
        ],
    )
    def test_bad_hello_values_are_protocol_errors(self, server, field, value):
        hello = {
            "participant": "P",
            "sample_rate": "1024.0",
            "ref": "1.0",
            "mu0": "0.1",
            "delta0": "0.02",
            field: value,
        }
        line = " ".join(["hello"] + [f"{k}={v}" for k, v in hello.items()])
        replies = raw_exchange(server.port, [line])
        assert len(replies) == 1
        kind, fields = io.parse_frame(replies[0])
        assert kind == "error" and fields["reason"] == "protocol"
        assert fields["detail"] == f"hello_{field}_must_be_positive_and_finite"

    @pytest.mark.parametrize(
        "n_field, detail",
        [
            ("n=5", "field_n_is_5_but_128_values_follow"),
            ("n=129", "field_n_is_129_but_128_values_follow"),
            ("n=128.0", "not_an_integer"),
            ("", "missing_field_'n'"),
        ],
    )
    def test_sample_count_must_match_values(self, server, n_field, detail):
        hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
        values = ",".join(["0.5"] * 128)
        frame = " ".join(p for p in ["samples t_us=0", n_field, f"v={values}"] if p)
        replies = raw_exchange(server.port, [hello, frame])
        kind, fields = io.parse_frame(replies[-1])
        assert kind == "error" and fields["reason"] == "protocol"
        assert detail in fields["detail"]

    @pytest.mark.parametrize("opened", [False, True])
    def test_non_utf8_frame_is_a_protocol_error(self, server, opened):
        hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02\n"
        bad = b"hello participant=\xff sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02\n"
        if opened:
            bad = b"samples t_us=0 n=2 v=0.5,\xff0.5\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall((hello.encode() if opened else b"") + bad)
            replies = sock.makefile("r").read().splitlines()
        assert replies[-1] == "error reason=protocol detail=frame_is_not_UTF-8"
        assert len(replies) == 1 + opened

    def test_detail_holding_equals_sign_still_framed(self, server):
        # The unknown kind 'a=b' lands in the detail; it must not kill the handler.
        replies = raw_exchange(server.port, ["a=b c"])
        assert len(replies) == 1
        kind, fields = io.parse_frame(replies[0])
        assert kind == "error" and fields["reason"] == "protocol"
        assert fields["detail"] == "unknown_frame_kind_'a_b'"

    @pytest.mark.parametrize("rate", ["500.0", "1000.0", "1024.0"])
    def test_sample_rate_must_fit_the_band_pass(self, server, rate):
        hello = f"hello participant=P sample_rate={rate} ref=1.0 mu0=0.1 delta0=0.02"
        replies = raw_exchange(server.port, [hello, "bye"])
        kind, fields = io.parse_frame(replies[0])
        if rate == "1024.0":
            assert kind == "hello" and replies[1] == "bye events=0"
        else:
            assert kind == "error" and fields["reason"] == "protocol"
            assert "below_Nyquist" in fields["detail"]

    @pytest.mark.parametrize("rate", ["100001.0", "1e17", "1e300"])
    def test_sample_rate_above_the_cap_is_rejected(self, server, rate):
        # The post-hello line cap grows with the rate; an absurd rate must not
        # make it absurd (at 1e17 Hz it would overflow readline's size argument).
        hello = f"hello participant=P sample_rate={rate} ref=1.0 mu0=0.1 delta0=0.02"
        replies = raw_exchange(server.port, [hello, "bye"])
        assert len(replies) == 1
        kind, fields = io.parse_frame(replies[0])
        assert kind == "error" and fields["reason"] == "protocol"
        assert "is_above_100000.0_Hz" in fields["detail"]

    @pytest.mark.parametrize("rate", [-1.0, 0.0, math.nan, math.inf])
    def test_reference_rate_checked_before_binding(self, rt_model, rate):
        # Checked once at start-up: no session without r_ref pays for it.
        with pytest.raises(ValueError, match="reference rate"):
            io.serve(rt_model, io.ServerConfig(reference_rate_hz=rate))

    def test_huge_samples_refused_at_their_frame(self, server):
        # 1e200 is finite, but its square is not: a second of such frames
        # once reached the engine and failed there as a server error.
        hello = "hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02"
        huge = ",".join(["1e200"] * 128)
        frames = [f"samples t_us={k * 125000} n=128 v={huge}" for k in range(8)]
        assert exchange_past_reset(server.port, [hello] + frames) == [
            "hello participant=P",
            "error reason=protocol detail=samples_value_1e+200_at_index_0_exceeds"
            "_1e+50_in_magnitude,_where_features_overflow",
        ]

    @pytest.mark.parametrize("ref", ["1e-300", "1e-51", "1e51"])
    def test_ref_outside_its_range_refused_at_hello(self, server, ref):
        # Ordinary samples divided by ref=1e-300 overflow the features.
        hello = f"hello participant=P sample_rate=1024.0 ref={ref} mu0=0.1 delta0=0.02"
        good = ",".join(["0.5"] * 128)
        replies = exchange_past_reset(
            server.port, [hello, f"samples t_us=0 n=128 v={good}"]
        )
        assert replies == [
            f"error reason=protocol detail=hello_ref_{float(ref)!r}_is_outside"
            "_[1e-50,_1e+50]"
        ]

    @pytest.mark.parametrize(
        "ref, scale",
        [
            (io.protocol.REF_RANGE[0], io.protocol.MAX_SAMPLE_ABS),
            (io.protocol.REF_RANGE[1], 1e-300),
        ],
    )
    def test_extremes_inside_the_bounds_stream_cleanly(self, server, ref, scale):
        # The largest samples over the smallest ref, and the reverse, keep
        # every feature finite: the session runs to its bye.
        fs = 1024.0
        rng = np.random.default_rng(5)
        samples = np.clip(rng.standard_normal(int(3 * fs)), -1.0, 1.0) * scale
        lines = (
            [f"hello participant=P sample_rate={fs!r} ref={ref!r} mu0=0.1 delta0=0.02"]
            + sample_frames(samples, fs, 128)
            + ["bye"]
        )
        replies = raw_exchange(server.port, lines)
        assert [r.split(" ")[0] for r in replies if not r.startswith("level")] == (
            ["hello"] + ["rate"] * 3 + ["bye"]
        )

    def test_mismatched_model_refused_before_binding(self):
        # A model of the wrong features is the operator's fault: the server
        # refuses it at construction, not with an error on every hello. The
        # port is taken, so binding first would raise OSError instead.
        offline = learn.LinearModel(
            feature_names=("mav", "rms"),
            weights=np.zeros(2),
            bias=0.0,
            mean=np.zeros(2),
            scale=np.ones(2),
            positive_label="C",
        )
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            config = io.ServerConfig(port=taken.getsockname()[1])
            with pytest.raises(ValueError, match="featurize --realtime"):
                io.serve(offline, config)


def frame_bounds(size, n_frame):
    """(start, stop) of each frame over `size` samples: `n_frame` samples
    each, or, for a list, its sizes in turn, repeated."""
    sizes = itertools.cycle(n_frame if isinstance(n_frame, list) else [n_frame])
    starts = [0]
    while starts[-1] < size:
        starts.append(min(size, starts[-1] + next(sizes)))
    return list(zip(starts, starts[1:]))


def per_frame_reference(model, profile, samples, fs, n_frame, participant):
    """Replies and events of a server that pushes each frame on arrival.

    An in-process engine gets one push per frame (`frame_bounds`) and is
    ticked after each; returns, per frame, the rate/level lines it answers
    with and the events it closes, plus the events the final bye closes.
    """
    engine = rt.StreamEngine(
        model,
        rt.CalibrationProfile(
            reference_amplitude=profile.reference_amplitude,
            mu0=profile.mu0,
            delta0=profile.delta0,
            sample_rate=fs,
            source=participant,
        ),
    )
    second, level = 0, "no_pulse"
    replies, closed = [], []
    for start, stop in frame_bounds(samples.size, n_frame):
        closed.append(engine.push(samples[start:stop]))
        lines = []
        while second < int(engine.current_time_s):
            second += 1
            rate = engine.rate_at(float(second))
            lines.append(io.format_frame("rate", {"t": float(second), "value": rate}))
            new = feedback.level(rate, io.DEFAULT_REFERENCE_RATE_HZ)
            if new != level:
                lines.append(io.format_frame("level", {"t": float(second), "value": new}))
                level = new
        replies.append(lines)
    return replies, closed, engine.finalize()


def hello_line(profile, fs, participant):
    return io.format_frame(
        "hello",
        {
            "participant": participant,
            "sample_rate": fs,
            "ref": profile.reference_amplitude,
            "mu0": profile.mu0,
            "delta0": profile.delta0,
        },
    )


def sample_frames(samples, fs, n_frame):
    """The samples frames a client sends, one per `frame_bounds`."""
    return [
        io.format_frame(
            "samples",
            {
                "t_us": round(start * 1_000_000 / fs),
                "n": stop - start,
                "v": ",".join(repr(float(v)) for v in samples[start:stop]),
            },
        )
        for start, stop in frame_bounds(samples.size, n_frame)
    ]


def log_text(events):
    return "".join(io.format_event_line(e) + "\n" for e in events)


def wait_for_text(path, expected, timeout_s=10.0):
    """The file's text once it equals `expected`, or whatever it holds after
    `timeout_s` (a handler may still be finishing after its client left)."""
    deadline = time.monotonic() + timeout_s
    while True:
        text = path.read_text() if path.exists() else ""
        if text == expected or time.monotonic() > deadline:
            return text
        time.sleep(0.01)


@pytest.fixture
def logged_server(rt_model, tmp_path):
    """A server of its own, so its first session logs to session_001.events."""
    srv = io.serve(rt_model, io.ServerConfig(log_dir=tmp_path)).start_background()
    yield srv
    srv.shutdown()


class TestBatchedPushes:
    """The server feeds the engine once per streamed second; clients and log
    readers must see exactly what one push per frame would give."""

    def test_one_push_per_streamed_second(self, server, profile, monkeypatch):
        sizes = []
        push = rt.StreamEngine.push

        def spy(engine, samples):
            sizes.append(len(samples))
            return push(engine, samples)

        monkeypatch.setattr(rt.StreamEngine, "push", spy)
        rec = short_session(seed=41, duration_s=10.0)
        result = io.stream_client(rec, "127.0.0.1", server.port, speed=0, profile=profile)
        assert result.errors == [] and result.reported_events > 0
        assert sizes == [1024] * 10  # 80 frames of 128 samples

    def test_seconds_ending_inside_frames(self, logged_server, rt_model, profile):
        # 12.8 frames of 100 samples per second at 1280 Hz: most seconds end
        # inside a frame, so each push takes part of a frame's samples' second.
        fs, n_frame = 1280.0, 100
        rec = synth.gen_session(
            synth.SessionPlan(duration_s=10.0, seed=42, sample_rate=fs, participant_id="R")
        )
        result = io.stream_client(
            rec, "127.0.0.1", logged_server.port, speed=0, profile=profile,
            frame_s=n_frame / fs,
        )
        replies, closed, final = per_frame_reference(
            rt_model, profile, rec.channel("masseter"), fs, n_frame, "R"
        )
        events = [e for c in closed for e in c] + final
        assert len(events) > 3
        assert result.transcript == (
            ["hello participant=R"]
            + [line for lines in replies for line in lines]
            + [f"bye events={len(events)}"]
        )
        log = logged_server.config.log_dir / "session_001.events"
        assert log.read_text() == log_text(events)

    @pytest.mark.parametrize("end", ["bye", "nan", "huge", "t_us", "disconnect"])
    def test_event_log_whatever_ends_the_session(
        self, logged_server, rt_model, profile, test_session, end
    ):
        fs, n_frame = test_session.sample_rate, 128
        samples = test_session.channel("masseter")[: int(20 * fs)]
        replies, closed, final = per_frame_reference(
            rt_model, profile, samples, fs, n_frame, "E"
        )
        frames = sample_frames(samples, fs, n_frame)
        lines = [hello_line(profile, fs, "E")]
        if end == "bye":
            last, events = len(frames) - 1, [e for c in closed for e in c] + final
        else:
            # The last frame to close an event without completing a second:
            # the session ends while that event is held with its samples.
            last = max(
                k for k, c in enumerate(closed)
                if c and (k + 1) * n_frame % int(fs) and k + 1 < len(frames)
            )
            events = [e for c in closed[: last + 1] for e in c]
            assert not replies[last] and events[-1] in closed[last]
        lines += frames[: last + 1]
        expected = ["hello participant=E"] + [r for rs in replies[: last + 1] for r in rs]
        t_us = round((last + 1) * n_frame * 1_000_000 / fs)
        if end == "bye":
            lines.append("bye")
            expected.append(f"bye events={len(events)}")
        elif end == "nan":
            lines.append(f"samples t_us={t_us} n=2 v=0.5,nan")
            expected.append(
                "error reason=protocol detail=samples_value_nan_at_index_1_is_not_finite"
            )
        elif end == "huge":
            lines.append(f"samples t_us={t_us} n=2 v=0.5,1e200")
            expected.append(
                "error reason=protocol detail=samples_value_1e+200_at_index_1_exceeds"
                "_1e+50_in_magnitude,_where_features_overflow"
            )
        elif end == "t_us":
            lines.append(f"samples t_us={t_us + 1} n=2 v=0.5,0.5")
            expected.append(
                f"error reason=protocol detail=samples_timestamp_{t_us + 1}_is_not_{t_us}:"
                f"_the_clock_must_advance_with_the_{(last + 1) * n_frame}_samples_received"
            )
        log = logged_server.config.log_dir / "session_001.events"
        if end == "disconnect":
            # Read the replies, then hang up without bye (the reader must be
            # closed too, or the socket stays open).
            with socket.create_connection(("127.0.0.1", logged_server.port), timeout=10) as sock:
                sock.sendall("".join(line + "\n" for line in lines).encode())
                with sock.makefile("r") as fh:
                    got = [fh.readline().rstrip("\n") for _ in expected]
            assert got == expected
        else:
            assert raw_exchange(logged_server.port, lines) == expected
        assert wait_for_text(log, log_text(events)) == log_text(events)

    def test_client_hanging_up_with_replies_unread(
        self, logged_server, rt_model, profile, test_session, monkeypatch
    ):
        # The client sends hello and 3.5 s of frames, then closes with the
        # hello reply unread, so its close resets the connection. The
        # handler must end quietly (no handle_error, which prints a
        # traceback), and the events of every sample the session accepted
        # must still reach the log.
        fs = test_session.sample_rate
        samples = test_session.channel("masseter")[int(10 * fs) : int(13.5 * fs)]
        pushed, failures, finished = [], [], threading.Event()
        push = rt.StreamEngine.push

        def spy(engine, chunk):
            pushed.append(chunk)
            return push(engine, chunk)

        def shutdown_request(request):  # the handler thread's last step
            io.EmgServer.shutdown_request(logged_server, request)
            finished.set()

        monkeypatch.setattr(rt.StreamEngine, "push", spy)
        logged_server.handle_error = lambda request, address: failures.append(address)
        logged_server.shutdown_request = shutdown_request
        with socket.create_connection(("127.0.0.1", logged_server.port), timeout=10) as sock:
            sock.sendall((hello_line(profile, fs, "E") + "\n").encode())
            assert select.select([sock], [], [], 10)[0]  # the reply is in, unread
            sock.sendall("".join(f + "\n" for f in sample_frames(samples, fs, 128)).encode())
        assert finished.wait(10)
        assert failures == []
        assert 0 < sum(len(chunk) for chunk in pushed) <= samples.size
        events = push(rt.StreamEngine(rt_model, profile), np.concatenate(pushed))
        log = logged_server.config.log_dir / "session_001.events"
        assert (log.read_text() if log.exists() else "") == log_text(events)

    def test_log_failure_on_the_ending_flush_keeps_the_error_frame(
        self, logged_server, rt_model, profile, test_session
    ):
        # The held samples close an event whose log write fails while the
        # session is already ending on a protocol error: the client still
        # gets that error, and the server still answers the next session.
        fs, n_frame = test_session.sample_rate, 128
        samples = test_session.channel("masseter")[: int(20 * fs)]
        replies, closed, _ = per_frame_reference(rt_model, profile, samples, fs, n_frame, "E")
        first = min(k for k, c in enumerate(closed) if c)
        assert not replies[first]  # no second ends there: the event is held
        t_us = round((first + 1) * n_frame * 1_000_000 / fs)
        lines = (
            [hello_line(profile, fs, "E")]
            + sample_frames(samples, fs, n_frame)[: first + 1]
            + [f"samples t_us={t_us} n=1 v=nan"]
        )
        log = logged_server.config.log_dir / "session_001.events"
        assert exchange_with_log_blocked(logged_server.port, lines, log) == (
            ["hello participant=E"]
            + [r for rs in replies[: first + 1] for r in rs]
            + ["error reason=protocol detail=samples_value_nan_at_index_0_is_not_finite"]
        )
        assert raw_exchange(logged_server.port, [lines[0], "bye"]) == [
            "hello participant=E", "bye events=0"
        ]


def byte_exchange(port, payload):
    """Send raw bytes, return the reply lines until the server closes,
    surviving the reset a close with unread input can cause."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass
        data = b""
        try:
            while chunk := sock.recv(65536):
                data += chunk
        except ConnectionResetError:
            pass
    return data.decode().splitlines()


# Random lines, and random tails on frame prefixes so that some lines parse
# and reach the session's checks.
_RANDOM_LINE = st.one_of(
    st.binary(max_size=120),
    st.builds(
        bytes.__add__,
        st.sampled_from(
            [b"hello ", b"bye", b"samples ", b"samples t_us=0 n=", b"samples t_us=0 n=2 v="]
        ),
        st.binary(max_size=40),
    ),
    st.lists(
        st.sampled_from([b"0.5", b"-3e2", b"", b"nan", b"1e400", b"1e300", b"x"]),
        min_size=1,
        max_size=8,
    ).map(lambda vs: b"samples t_us=0 n=%d v=" % len(vs) + b",".join(vs)),
).map(lambda line: line.replace(b"\n", b""))


class TestRandomLines:
    HELLO = b"hello participant=P sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02\n"

    @settings(max_examples=80, deadline=None)
    @given(line=_RANDOM_LINE)
    def test_any_line_gets_one_error_or_its_reply(self, server, line):
        # hello, the line, then bye: a line the session accepts leaves bye
        # answered; any other gets exactly one error frame and ends it.
        failures = []
        server.handle_error = lambda request, address: failures.append(address)
        try:
            replies = byte_exchange(server.port, self.HELLO + line + b"\nbye\n")
            again = byte_exchange(server.port, self.HELLO + b"bye\n")
        finally:
            del server.handle_error
        assert failures == []  # no handler died
        assert replies[0] == "hello participant=P"
        frames = [io.parse_frame(r) for r in replies[1:]]
        kinds = [kind for kind, _ in frames]
        if kinds[-1:] == ["bye"]:
            # Accepted: a few values cannot complete a streamed second, so
            # no rate frame comes before bye.
            assert replies[1:] == ["bye events=0"]
        else:
            # Every error frame ends the session: exactly one, nothing after.
            assert kinds == ["error"] and frames[0][1]["reason"] == "protocol"
        assert again == ["hello participant=P", "bye events=0"]


class TestSessionFeed:
    """The wire protocol without a socket: `_Session.feed` turns one line,
    newline included, into its replies; a refused line gets one error frame
    and ends the session."""

    HELLO = TestRandomLines.HELLO

    @staticmethod
    def session(model):
        return io.server._Session(model, io.DEFAULT_REFERENCE_RATE_HZ, lambda: None)

    def test_line_before_hello_refused(self, rt_model):
        session = self.session(rt_model)
        assert session.feed(b"samples t_us=0 n=1 v=0.5\n") == [
            "error reason=protocol detail=session_must_open_with_hello"
        ]
        assert session.done

    def test_duplicate_hello_refused(self, rt_model):
        session = self.session(rt_model)
        assert session.feed(self.HELLO) == ["hello participant=P"]
        assert session.feed(self.HELLO) == ["error reason=protocol detail=duplicate_hello"]
        assert session.done

    def test_line_cap_before_and_after_hello(self, rt_model):
        prefix = b"hello sample_rate=1024.0 ref=1.0 mu0=0.1 delta0=0.02 participant="
        assert self.session(rt_model).feed(
            prefix + b"x" * (4096 - len(prefix)) + b"\n"
        ) == ["error reason=protocol detail=frame_longer_than_4096_bytes"]
        # A line of exactly the cap, newline included, is parsed.
        session = self.session(rt_model)
        name = "x" * (4095 - len(prefix))
        assert session.feed(prefix + name.encode() + b"\n") == [f"hello participant={name}"]
        # Then the cap grows by 32 bytes per value of 1 s at 1024 Hz.
        cap = 4096 + 1024 * 32
        prefix = b"samples t_us=0 n=1 v="
        assert session.feed(prefix + b"0" * (cap - len(prefix) - 1) + b"\n") == []
        assert session.received == 1
        assert session.feed(prefix + b"0" * (cap - len(prefix)) + b"\n") == [
            f"error reason=protocol detail=frame_longer_than_{cap}_bytes"
        ]

    @pytest.mark.parametrize(
        "token, n",
        [(b"0,", 10_000), (b"0,", 162_035), (b"10,", 10_000)],
        ids=["one_second", "every_value", "one_second_two_digit_tokens"],
    )
    def test_line_memory_is_bounded_by_the_line_cap(self, rt_model, token, n):
        # A line of the cap at 10 kHz, all of it one token: 162 035 `0,` or
        # 108 024 `10,` values. With n at the 1 s bound the commas are
        # counted and the count refuses the frame before v is split; with n
        # counting them all, the bound refuses it before v is counted.
        session = self.session(rt_model)
        session.feed(self.HELLO.replace(b"1024.0", b"10000.0"))
        cap = 4096 + 10_000 * 32
        assert session.max_line == cap
        prefix = b"samples t_us=0 n=%d v=" % n
        line = prefix + (token * cap)[: cap - len(prefix) - 1] + b"\n"
        assert len(line) == cap and line.count(b",") > 100_000
        tracemalloc.start()
        try:
            replies = session.feed(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Refusing holds the decoded text and its v field: 4x the cap on
        # Python 3.11 in every case. Splitting and parsing the `10,` line
        # first would take 33x (one str and one float per token). 8x is a
        # guess at other versions' allocators: Python 3.10 was not measured.
        assert peak <= 8 * cap
        assert len(replies) == 1 and replies[0].startswith("error reason=protocol ")
        assert session.done

    @pytest.mark.parametrize("opened", [False, True])
    def test_non_utf8_line_refused(self, rt_model, opened):
        session = self.session(rt_model)
        if opened:
            session.feed(self.HELLO)
        assert session.feed(b"samples t_us=0 n=2 v=0.5,\xff0.5\n") == [
            "error reason=protocol detail=frame_is_not_UTF-8"
        ]

    def test_refused_hello_leaves_session_unopened(self, rt_model):
        claimed = []
        session = self.session(rt_model)
        session.next_log_path = lambda: claimed.append(1)
        assert session.feed(self.HELLO[:-1] + b" r_ref=nan\n") == [
            "error reason=protocol detail=hello_r_ref_must_be_positive_and_finite"
        ]
        assert session.engine is None and session.done
        assert claimed == []  # no log number used up

    def test_log_path_failure_is_a_server_error(self, rt_model):
        def next_log_path():
            raise PermissionError(13, "Permission denied", "/srv/emg/logs")

        session = self.session(rt_model)
        session.next_log_path = next_log_path
        assert session.feed(self.HELLO) == ["error reason=server detail=Permission_denied"]
        assert session.engine is None and session.done

    def test_os_error_without_strerror_is_named_by_its_class(self, rt_model):
        def next_log_path():
            raise OSError("/srv/emg/logs is unusable")

        session = self.session(rt_model)
        session.next_log_path = next_log_path
        assert session.feed(self.HELLO) == ["error reason=server detail=OSError"]

    def test_lines_after_a_refused_first_line_get_no_reply(self, rt_model):
        claimed = []
        session = self.session(rt_model)
        session.next_log_path = lambda: claimed.append(1)
        assert session.feed(b"bye\n") == [
            "error reason=protocol detail=session_must_open_with_hello"
        ]
        assert session.feed(self.HELLO) == []
        assert session.engine is None and claimed == []  # no reopen, no log number

    def test_samples_after_bye_get_no_reply(self, rt_model, tmp_path):
        log = tmp_path / "session.events"
        session = self.session(rt_model)
        session.next_log_path = lambda: log
        session.feed(self.HELLO)
        assert session.feed(b"bye\n") == ["bye events=0"]
        pushed = []
        session.engine.push = lambda chunk: pushed.append(chunk) or []
        second = ("samples t_us=0 n=1024 v=" + ",".join(["0.5"] * 1024) + "\n").encode()
        assert session.feed(second) == []
        session.end()
        assert session.received == 0 and pushed == [] and not log.exists()

    def test_bye_sets_done(self, rt_model):
        session = self.session(rt_model)
        session.feed(self.HELLO)
        assert not session.done
        assert session.feed(b"bye\n") == ["bye events=0"]
        assert session.done

    @settings(max_examples=80, deadline=None)
    @given(line=_RANDOM_LINE)
    def test_fed_random_lines_give_the_socket_replies(self, server, rt_model, line):
        # Line by line until done, errors included, as the socket answers
        # the same bytes.
        session = self.session(rt_model)
        fed = []
        for received in (self.HELLO, line + b"\n", b"bye\n"):
            fed += session.feed(received)
            if session.done:
                break
        assert fed == byte_exchange(server.port, self.HELLO + line + b"\nbye\n")

    @pytest.mark.parametrize("name", ["participant", "sample_rate", "ref"])
    def test_hello_without_an_engine_input_refused(self, rt_model, name):
        fields = {"participant": "P", "sample_rate": "1024.0", "ref": "1.0"}
        del fields[name]
        line = " ".join(["hello"] + [f"{k}={v}" for k, v in fields.items()]) + "\n"
        assert self.session(rt_model).feed(line.encode()) == [
            f"error reason=protocol detail=hello_frame_missing_field_'{name}'"
        ]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def recording_at(fs):
        return synth.gen_session(
            synth.SessionPlan(duration_s=6.0, seed=43, sample_rate=fs, participant_id="F")
        )

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        fs=st.sampled_from([1024.0, 1000.5, 1500.0]),
        extra=st.sampled_from(["", " mu0=0.1 delta0=0.02", " mu0=abc"]),
    )
    def test_random_frame_sizes_give_the_per_frame_replies(
        self, rt_model, profile, tmp_path_factory, data, fs, extra
    ):
        # Any frame sizes up to the 1 s bound: one reply per second the
        # frames complete, the rate frames at t = 1.0, 2.0, ... with no gap
        # and no repeat, and the replies and event log of one push per frame.
        # The hello's fields past the engine's inputs change nothing.
        sizes = data.draw(st.lists(st.integers(1, int(fs)), min_size=1, max_size=6))
        samples = self.recording_at(fs).channel(rt.STREAM_CHANNEL)
        log = tmp_path_factory.mktemp("feed") / "session.events"
        session = self.session(rt_model)
        session.next_log_path = lambda: log
        ref = profile.reference_amplitude
        lines = [
            f"hello participant=F sample_rate={fs!r} ref={ref!r}{extra}",
            *sample_frames(samples, fs, sizes),
            "bye",
        ]
        fed = [reply for line in lines for reply in session.feed((line + "\n").encode())]
        replies, closed, final = per_frame_reference(rt_model, profile, samples, fs, sizes, "F")
        events = [e for c in closed for e in c] + final
        assert fed == (
            ["hello participant=F"]
            + [line for lines in replies for line in lines]
            + [f"bye events={len(events)}"]
        )
        rate_t = [io.parse_frame(r)[1]["t"] for r in fed if r.startswith("rate ")]
        assert rate_t == [repr(float(t)) for t in range(1, int(samples.size / fs) + 1)]
        assert (log.read_text() if log.exists() else "") == log_text(events)

    def test_fed_lines_give_the_socket_transcript(self, server, rt_model, profile):
        recording = short_session(seed=31)
        fs = recording.sample_rate
        lines = [
            hello_line(profile, fs, recording.participant_id),
            *sample_frames(recording.channel(rt.STREAM_CHANNEL), fs, 128),
            "bye",
        ]
        session = self.session(rt_model)
        fed = [reply for line in lines for reply in session.feed((line + "\n").encode())]
        assert [r.split()[0] for r in fed].count("rate") == 5
        assert fed == raw_exchange(server.port, lines)


class TestGoldenTranscript:
    def test_matches_frozen_transcript(self, server, rt_model, profile, test_session, datadir):
        result = io.stream_client(
            test_session, "127.0.0.1", server.port, speed=0, profile=profile
        )
        assert result.errors == []
        golden = (datadir / "golden_transcript.txt").read_text().splitlines()
        assert result.transcript == golden
