"""End-to-end checks of the command-line front end.

Most tests drive main(argv) in-process and inspect stdout/stderr through
capsys; one test boots the real `serve` process to cover the console path.
"""

import argparse
import dataclasses
import signal as os_signal
import subprocess
import sys
import time

import numpy as np
import pytest

import emgeat.io as io
import emgeat.realtime as rt
from emgeat.cli import build_parser, main
from emgeat.metrics import ChewEvent


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGenerate:
    def test_writes_recording_and_prints_counts(self, tmp_path, capsys):
        rc, out, _ = run_cli(
            [
                "generate", "--out", str(tmp_path), "--participant", "P01",
                "--duration", "10", "--seed", "5",
            ],
            capsys,
        )
        assert rc == 0
        assert "P01.csv (14 chews, 1 swallows)" in out
        rec = io.read_recording(tmp_path / "P01.csv")
        assert rec.duration_s == pytest.approx(10.0)
        assert len(rec.annotations_of("chew")) == 14

    def test_deterministic_files(self, tmp_path, capsys):
        for sub in ("a", "b"):
            rc, _, _ = run_cli(
                [
                    "generate", "--out", str(tmp_path / sub), "--participant",
                    "P02", "--duration", "8", "--seed", "11",
                ],
                capsys,
            )
            assert rc == 0
        for name in ("P02.csv", "P02.csv.ann"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_artifact_ending_at_the_session_end(self, tmp_path, capsys):
        rc, out, _ = run_cli(
            [
                "generate", "--out", str(tmp_path), "--duration", "3.1",
                "--baseline-lead", "0.5", "--artifact", "speech:0.03:3.1",
            ],
            capsys,
        )
        assert rc == 0
        rec = io.read_recording(tmp_path / "P00.csv")
        assert rec.annotations_of("speech")[0].termination_s == rec.duration_s

    def test_bad_artifact_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path), "--artifact", "speech:10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("participant", ["P,1", "P\n1"])
    def test_id_no_file_can_hold_exits_before_writing(self, tmp_path, capsys, participant):
        out = tmp_path / "out"
        rc, _, err = run_cli(
            ["generate", "--out", str(out), "--participant", participant, "--duration", "2"],
            capsys,
        )
        assert rc == 1 and "holds a comma or a line break" in err
        assert not out.exists()

    def test_unusable_snr_exits_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc, _, err = run_cli(["generate", "--out", str(out), "--snr", "7000"], capsys)
        assert rc == 1
        assert err.startswith("emgeat: ") and "snr_db" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


@pytest.fixture()
def session_file(tmp_path, capsys):
    rc = main(
        [
            "generate", "--out", str(tmp_path), "--participant", "P01",
            "--duration", "10", "--seed", "5",
        ]
    )
    capsys.readouterr()
    assert rc == 0
    return tmp_path / "P01.csv"


class TestPreprocess:
    def test_writes_conditioned_channel(self, session_file, tmp_path, capsys):
        out_file = tmp_path / "env.csv"
        rc, out, _ = run_cli(
            ["preprocess", "--in", str(session_file), "--out", str(out_file)],
            capsys,
        )
        assert rc == 0
        assert "1024 samples at 102.4 Hz" in out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t_s,value"
        assert len(lines) == 1 + 1024
        values = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_unknown_channel_is_domain_error(self, session_file, tmp_path, capsys):
        rc, _, err = run_cli(
            [
                "preprocess", "--in", str(session_file), "--channel", "tongue",
                "--out", str(tmp_path / "x.csv"),
            ],
            capsys,
        )
        assert rc == 1
        assert err.startswith("emgeat:")


class TestFeaturize:
    def test_offline_chew_dataset(self, session_file, tmp_path, capsys):
        out_file = tmp_path / "chew.csv"
        rc, out, _ = run_cli(
            ["featurize", "--in", str(session_file), "--out", str(out_file)],
            capsys,
        )
        assert rc == 0
        assert "39 windows" in out
        mat = io.read_dataset(out_file)
        assert mat.values.shape == (39, 36)  # 18 features x 2 channels
        assert mat.feature_names[0] == "masseter_mav"
        assert set(mat.labels) <= {"C", "NA"}

    def test_realtime_dataset(self, session_file, tmp_path, capsys):
        out_file = tmp_path / "rt.csv"
        rc, _, _ = run_cli(
            [
                "featurize", "--in", str(session_file), "--out", str(out_file),
                "--realtime",
            ],
            capsys,
        )
        assert rc == 0
        mat = io.read_dataset(out_file)
        assert mat.feature_names == ("mean", "sd", "peak_amp", "rms", "iemg", "mnf", "mnp")
        assert mat.values.shape[0] == 325

    def test_realtime_rows_are_the_masseter_calibrated_training_set(
        self, session_file, tmp_path, capsys
    ):
        out_file = tmp_path / "rt.csv"
        args = ["featurize", "--in", str(session_file), "--out", str(out_file), "--realtime"]
        assert run_cli(args, capsys)[0] == 0
        rec = io.read_recording(session_file)
        profile = rt.calibrate([rec.channel("masseter")], rec.sample_rate)
        expected = rt.rt_training_set(rec, profile)
        mat = io.read_dataset(out_file)
        assert np.array_equal(mat.values, expected.values)
        assert mat.labels.tolist() == expected.labels.tolist()
        # There is no other calibration channel to choose.
        with pytest.raises(SystemExit):
            main(args + ["--channel", "submental"])

    @pytest.mark.parametrize("realtime", [False, True])
    def test_non_finite_sample_names_file_and_line(
        self, session_file, tmp_path, capsys, realtime
    ):
        lines = session_file.read_text().splitlines()
        lines[100] = lines[100].split(",")[0] + ",nan," + lines[100].split(",")[2]
        session_file.write_text("\n".join(lines) + "\n")
        args = ["featurize", "--in", str(session_file), "--out", str(tmp_path / "x.csv")]
        rc, out, err = run_cli(args + ["--realtime"] * realtime, capsys)
        assert rc == 1 and out == ""
        assert f"{session_file}:101: masseter value nan is not finite" in err


def featurize_sessions(tmp_path, capsys, seeds, duration=20.0):
    """Generate + featurize one offline chew dataset per seed."""
    paths = []
    for seed in seeds:
        pid = f"P{seed:02d}"
        assert main(
            [
                "generate", "--out", str(tmp_path), "--participant", pid,
                "--duration", str(duration), "--seed", str(seed),
            ]
        ) == 0
        out = tmp_path / f"{pid}.features.csv"
        assert main(
            ["featurize", "--in", str(tmp_path / f"{pid}.csv"), "--out", str(out)]
        ) == 0
        paths.append(out)
    capsys.readouterr()
    return paths


class TestTrainAndEval:
    def test_train_writes_loadable_model(self, tmp_path, capsys):
        datasets = featurize_sessions(tmp_path, capsys, seeds=(31, 32))
        model_path = tmp_path / "chew.model"
        rc, out, _ = run_cli(
            ["train", "--in", *map(str, datasets), "--out", str(model_path)],
            capsys,
        )
        assert rc == 0
        assert "converged=True" in out and "epochs=" in out and "grad_norm=" in out
        model = io.load_model(model_path)
        assert model.positive_label == "C"
        assert len(model.feature_names) == 36

    def test_grid_search_reports_candidates(self, tmp_path, capsys):
        datasets = featurize_sessions(tmp_path, capsys, seeds=(33, 34))
        rc, out, _ = run_cli(
            [
                "train", "--in", *map(str, datasets), "--out",
                str(tmp_path / "m.model"), "--grid", "0.1,1.0", "--folds", "2",
            ],
            capsys,
        )
        assert rc == 0
        lines = out.splitlines()
        grid_lines = [l for l in lines if l.startswith("grid,")]
        assert len(grid_lines) == 2
        assert grid_lines[0].startswith("grid,c=0.1,mean_f1=")
        assert any(l.startswith("selected,c=") for l in lines)

    @pytest.mark.parametrize("grid", [",", "nan,1", "0,1", "-1", "1,inf", "1,x"])
    def test_unusable_grid_is_usage_error_before_reading(self, tmp_path, capsys, grid):
        # The dataset does not exist: the grid is refused while parsing.
        model_path = tmp_path / "m.model"
        with pytest.raises(SystemExit) as exc:
            main(
                ["train", "--in", str(tmp_path / "absent.csv"), "--out", str(model_path),
                 "--grid", grid]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --grid: penalty grid {grid!r} needs positive, finite values" in err
        assert not model_path.exists()

    def test_eval_lopo_table(self, tmp_path, capsys):
        datasets = featurize_sessions(tmp_path, capsys, seeds=(35, 36, 37))
        rc, out, _ = run_cli(
            ["eval-lopo", "--in", *map(str, datasets)], capsys
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "participant,n_test,precision,recall,f1"
        folds = [l for l in lines if l.startswith("P")]
        assert len(folds) == 3
        assert sorted(l.split(",")[0] for l in folds) == ["P35", "P36", "P37"]
        for line in folds:
            f1 = float(line.split(",")[4])
            assert 0.0 <= f1 <= 1.0
        assert lines[-2].startswith("average,,")
        assert lines[-1].startswith("f1_std,,,,")

    def test_non_finite_feature_names_file_and_line(self, tmp_path, capsys):
        (dataset,) = featurize_sessions(tmp_path, capsys, seeds=(33,))
        lines = dataset.read_text().splitlines()
        parts = lines[9].split(",")
        parts[6] = "inf"
        lines[9] = ",".join(parts)
        dataset.write_text("\n".join(lines) + "\n")
        column = lines[1].split(",")[6]
        rc, out, err = run_cli(
            ["train", "--in", str(dataset), "--out", str(tmp_path / "m.model")], capsys
        )
        assert rc == 1 and out == ""
        assert f"{dataset}:10: {column} value inf is not finite" in err

    def test_single_participant_is_domain_error(self, tmp_path, capsys):
        datasets = featurize_sessions(tmp_path, capsys, seeds=(38,))
        rc, _, err = run_cli(["eval-lopo", "--in", str(datasets[0])], capsys)
        assert rc == 1
        assert "emgeat:" in err


class TestAnalyze:
    def test_hand_log_report(self, tmp_path, capsys):
        log = tmp_path / "hand.events"
        io.append_events(
            [ChewEvent(0.0, 0.5), ChewEvent(1.0, 1.5), ChewEvent(2.0, 2.5)], log
        )
        rc, out, _ = run_cli(["analyze", "--in", str(log)], capsys)
        assert rc == 0
        assert out.splitlines() == [
            "n_events,3",
            "n_sequences,1",
            "overall_rate_hz,1.2",
            "mean_chew_period_s,0.8333333333333334",
            "chew_duration_s,0.5",
            "chew_gap_s,0.5",
            "sequence_duration_s,2.5",
            "sequence_gap_s,undefined",
            "chews_per_sequence,3.0",
        ]

    def test_single_event_has_undefined_gaps(self, tmp_path, capsys):
        log = tmp_path / "one.events"
        io.append_events([ChewEvent(1.0, 1.4)], log)
        rc, out, _ = run_cli(["analyze", "--in", str(log)], capsys)
        assert rc == 0
        assert "chew_gap_s,undefined" in out.splitlines()
        assert "sequence_gap_s,undefined" in out.splitlines()

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        rc, _, err = run_cli(
            ["analyze", "--in", str(tmp_path / "nope.events")], capsys
        )
        assert rc == 1
        assert err.startswith("emgeat:")

    def test_nan_gap_cap_is_domain_error(self, tmp_path, capsys):
        log = tmp_path / "g.events"
        io.append_events([ChewEvent(0.0, 0.5), ChewEvent(3.6, 4.1)], log)
        rc, out, err = run_cli(["analyze", "--in", str(log), "--gap-cap", "nan"], capsys)
        assert rc == 1 and out == ""
        assert "gap cap nan must be positive" in err

    def test_gap_cap_checked_before_the_log_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.events"
        rc, out, err = run_cli(["analyze", "--in", str(missing), "--gap-cap", "nan"], capsys)
        assert rc == 1 and out == ""
        assert err.splitlines() == ["emgeat: gap cap nan must be positive"]


class TestFeedbackSim:
    def test_transitions_only(self, tmp_path, capsys):
        series = tmp_path / "rates.csv"
        series.write_text("t_s,rate_hz\n1.0,0.5\n2.0,1.6\n3.0,1.7\n4.0,2.4\n")
        rc, out, _ = run_cli(["feedback-sim", "--in", str(series)], capsys)
        assert rc == 0
        # Like a server session, it starts at no_pulse, so 1.0 prints nothing.
        assert out.splitlines() == ["2.0,single_pulse", "4.0,double_pulse"]

    def test_non_finite_rate_is_domain_error(self, tmp_path, capsys):
        series = tmp_path / "rates.csv"
        series.write_text("0.5,1.6\n1.0,nan\n")
        rc, out, err = run_cli(["feedback-sim", "--in", str(series)], capsys)
        assert rc == 1 and out == ""
        assert ":2: rate_hz value nan is not finite" in err

    def test_negative_rate_names_file_and_line(self, tmp_path, capsys):
        series = tmp_path / "rates.csv"
        series.write_text("t_s,rate_hz\n1.0,0.5\n2.0,-0.25\n")
        rc, out, err = run_cli(["feedback-sim", "--in", str(series)], capsys)
        assert rc == 1 and out == ""
        assert f"{series}:3: rate -0.25 is negative" in err

    def test_every_band_crossing_is_printed(self, tmp_path, capsys):
        # 1.6 chews/s normalizes to 0.5; 1.98 to 0.62, across the 0.6 edge.
        # The server has no hysteresis, so neither has the simulation.
        series = tmp_path / "rates.csv"
        series.write_text("1.0,1.6\n2.0,1.98\n3.0,1.6\n4.0,1.98\n")
        rc, out, _ = run_cli(["feedback-sim", "--in", str(series)], capsys)
        assert rc == 0
        assert out.splitlines() == [
            "1.0,single_pulse",
            "2.0,double_pulse",
            "3.0,single_pulse",
            "4.0,double_pulse",
        ]

    @pytest.mark.parametrize("reference_rate", [None, "1.0"], ids=["default", "1.0"])
    def test_prints_the_server_level_frames(
        self, reference_rate, live_server, session_file, tmp_path, capsys
    ):
        # The same rates through the same rule: byte for byte what replay
        # printed of the level frames the server sent.
        ref = [] if reference_rate is None else ["--reference-rate", reference_rate]
        replay = ["replay", "--in", str(session_file), "--port", str(live_server.port)]
        rc, out, _ = run_cli(replay + ["--speed", "0", *ref], capsys)
        assert rc == 0
        rates = [l.split(",", 1)[1] for l in out.splitlines() if l.startswith("rate,")]
        levels = [l.split(",", 1)[1] for l in out.splitlines() if l.startswith("level,")]
        series = tmp_path / "rates.csv"
        series.write_text("".join(f"{line}\n" for line in rates))
        rc, out, _ = run_cli(["feedback-sim", "--in", str(series), *ref], capsys)
        assert rc == 0
        assert levels and out.splitlines() == levels


@pytest.fixture(scope="module")
def live_server(rt_model, tmp_path_factory):
    log_dir = tmp_path_factory.mktemp("cli_logs")
    srv = io.serve(rt_model, io.ServerConfig(log_dir=log_dir)).start_background()
    yield srv
    srv.shutdown()


class TestReplay:
    def test_round_trip(self, live_server, session_file, capsys):
        rc, out, _ = run_cli(
            [
                "replay", "--in", str(session_file), "--port",
                str(live_server.port), "--speed", "0",
            ],
            capsys,
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1].startswith("events=")
        assert int(lines[-1].split("=")[1]) > 0
        rate_lines = [l for l in lines if l.startswith("rate,")]
        assert len(rate_lines) == 10  # one per streamed second

    def test_transcript_file(self, live_server, session_file, tmp_path, capsys):
        transcript = tmp_path / "t.txt"
        rc, _, _ = run_cli(
            [
                "replay", "--in", str(session_file), "--port",
                str(live_server.port), "--speed", "0", "--transcript",
                str(transcript),
            ],
            capsys,
        )
        assert rc == 0
        lines = transcript.read_text().splitlines()
        assert lines[0].startswith("hello")
        assert lines[-1].startswith("bye events=")

    def test_server_error_reported(self, rt_model, session_file, tmp_path, capsys):
        # The server cannot create its log directory: a file holds the name.
        log_dir = tmp_path / "not_a_dir"
        log_dir.write_text("")
        srv = io.serve(rt_model, io.ServerConfig(log_dir=log_dir)).start_background()
        try:
            rc, _, err = run_cli(
                [
                    "replay", "--in", str(session_file), "--port",
                    str(srv.port), "--speed", "0",
                ],
                capsys,
            )
        finally:
            srv.shutdown()
        assert rc == 1
        assert "error" in err

    def test_frame_over_the_server_cap_exits_before_connecting(self, session_file, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        rc, _, err = run_cli(
            [
                "replay", "--in", str(session_file), "--port", str(free_port),
                "--frame", "11",
            ],
            capsys,
        )
        assert rc == 1
        assert err.startswith("emgeat: a 11.0 s frame holds 11264 samples")

    def test_no_server_is_domain_error(self, session_file, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        rc, _, err = run_cli(
            [
                "replay", "--in", str(session_file), "--port", str(free_port),
                "--speed", "0",
            ],
            capsys,
        )
        assert rc == 1
        assert err.startswith("emgeat:")

    @pytest.mark.parametrize("rate", ["nan", "0", "-1"])
    def test_bad_reference_rate_exits_before_connecting(self, session_file, capsys, rate):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        rc, _, err = run_cli(
            [
                "replay", "--in", str(session_file), "--port", str(free_port),
                "--reference-rate", rate,
            ],
            capsys,
        )
        assert rc == 1
        assert err.splitlines() == [
            f"emgeat: reference rate {float(rate)} must be positive and finite"
        ]

    @pytest.mark.parametrize("port", ["70000", "65536", "-5", "0"])
    def test_port_out_of_range_exits_before_calibrating(
        self, session_file, capsys, monkeypatch, port
    ):
        def never(*args):
            raise AssertionError("reached past the port check")

        monkeypatch.setattr(io.client, "calibrate", never)
        monkeypatch.setattr(io.client, "_connect", never)
        rc, _, err = run_cli(["replay", "--in", str(session_file), "--port", port], capsys)
        assert rc == 1
        assert err.splitlines() == [f"emgeat: port {port} is outside 1..65535"]


class TestServe:
    def test_rejects_offline_model(self, tmp_path, capsys):
        datasets = featurize_sessions(tmp_path, capsys, seeds=(41,), duration=10.0)
        model_path = tmp_path / "offline.model"
        assert main(["train", "--in", str(datasets[0]), "--out", str(model_path)]) == 0
        capsys.readouterr()
        rc, _, err = run_cli(["serve", "--model", str(model_path)], capsys)
        assert rc == 1
        assert "streaming feature set" in err

    @pytest.mark.parametrize("rate", ["0", "-1.6", "nan"])
    def test_bad_reference_rate_exits_before_binding(self, rt_model, tmp_path, rate):
        model_path = io.save_model(rt_model, tmp_path / "rt.model")
        done = subprocess.run(
            [
                sys.executable, "-m", "emgeat.cli", "serve", "--model",
                str(model_path), "--port", "0", "--reference-rate", rate,
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""  # never got as far as "listening on"
        assert "reference rate" in done.stderr

    def test_reference_rate_checked_before_the_model_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        rc, out, err = run_cli(
            ["serve", "--model", str(missing), "--reference-rate", "nan"], capsys
        )
        assert rc == 1 and out == ""
        assert err.splitlines() == ["emgeat: reference rate nan must be positive and finite"]

    @pytest.mark.parametrize("port", ["70000", "65536", "-5"])
    def test_port_out_of_range_exits_before_binding(self, rt_model, tmp_path, capsys, port):
        model_path = io.save_model(rt_model, tmp_path / "rt.model")
        rc, out, err = run_cli(["serve", "--model", str(model_path), "--port", port], capsys)
        assert rc == 1
        assert out == ""  # never got as far as "listening on"
        assert err.splitlines() == [f"emgeat: port {port} is outside 0..65535"]

    @pytest.mark.parametrize(
        "change", [lambda w: w[:3], lambda w: w * np.nan], ids=["three", "nan"]
    )
    def test_model_arrays_not_fitting_its_features_exit_before_binding(
        self, rt_model, tmp_path, change
    ):
        # Loaded as is, such a model would fail every session at its first
        # push (three weights) or never detect a chew (NaN weights).
        model = dataclasses.replace(rt_model, weights=change(rt_model.weights))
        model_path = io.save_model(model, tmp_path / "rt.model")
        done = subprocess.run(
            [
                sys.executable, "-m", "emgeat.cli", "serve", "--model",
                str(model_path), "--port", "0",
            ],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert done.returncode == 1
        assert done.stdout == ""  # never got as far as "listening on"
        assert f"{model_path}: model field 'weights' must be 7 finite numbers" in done.stderr

    def test_serve_process_end_to_end(self, rt_model, session_file, tmp_path, capsys):
        model_path = io.save_model(rt_model, tmp_path / "rt.model")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "emgeat.cli", "serve", "--model",
                str(model_path), "--port", "0", "--log-dir",
                str(tmp_path / "logs"),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("listening on 127.0.0.1:")
            port = int(banner.rsplit(":", 1)[1])
            rc, out, _ = run_cli(
                [
                    "replay", "--in", str(session_file), "--port", str(port),
                    "--speed", "0",
                ],
                capsys,
            )
            assert rc == 0
            assert out.splitlines()[-1].startswith("events=")
            assert len(list((tmp_path / "logs").glob("session_*.events"))) == 1
        finally:
            proc.send_signal(os_signal.SIGINT)
            assert proc.wait(timeout=10) == 0

    @pytest.mark.parametrize(
        "signum", [os_signal.SIGINT, os_signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_stop_signal_ends_serve_started_with_sigint_ignored(
        self, rt_model, tmp_path, signum
    ):
        # A non-interactive shell starts `emgeat serve ... &` with SIGINT ignored.
        model_path = io.save_model(rt_model, tmp_path / "rt.model")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "emgeat.cli", "serve", "--model",
                str(model_path), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: os_signal.signal(os_signal.SIGINT, os_signal.SIG_IGN),
        )
        try:
            assert proc.stdout.readline().startswith("listening on 127.0.0.1:")
            proc.send_signal(signum)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def float_options():
    """(subcommand, option) of every float option, read from the parser."""
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, action.option_strings[-1])
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        if action.type is float
    ]


NON_FINITE = {"nan", "inf", "-inf"}
POSITIVE_FINITE = NON_FINITE | {"0", "-1"}
# The values each float option's rule forbids, among nan, inf, -inf, 0 and -1.
FORBIDDEN = {
    ("generate", "--duration"): POSITIVE_FINITE,
    ("generate", "--rate"): NON_FINITE | {"-1"},  # 0 chews/s is a session without chews
    ("generate", "--chew-duration"): POSITIVE_FINITE,
    ("generate", "--snr"): NON_FINITE,  # any dB within ±100
    ("generate", "--baseline-lead"): POSITIVE_FINITE,
    ("featurize", "--hop"): POSITIVE_FINITE,
    ("train", "--c"): POSITIVE_FINITE,
    ("eval-lopo", "--c"): POSITIVE_FINITE,
    ("analyze", "--gap-cap"): {"nan", "-inf", "0", "-1"},  # inf means no cap
    ("serve", "--reference-rate"): POSITIVE_FINITE,
    ("replay", "--speed"): {"nan", "-inf", "-1"},  # 0 and inf flood
    ("replay", "--frame"): POSITIVE_FINITE,
    ("replay", "--reference-rate"): POSITIVE_FINITE,
    ("feedback-sim", "--reference-rate"): POSITIVE_FINITE,
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory, rt_model):
    """One valid input file of each kind that a subcommand reads."""
    d = tmp_path_factory.mktemp("valid_inputs")
    datasets = []
    for seed, pid in ((5, "P01"), (6, "P02")):
        argv = ["generate", "--out", str(d), "--participant", pid, "--duration", "10"]
        assert main(argv + ["--seed", str(seed)]) == 0
        datasets.append(str(d / f"{pid}.features.csv"))
        assert main(["featurize", "--in", str(d / f"{pid}.csv"), "--out", datasets[-1]]) == 0
    log = d / "meal.events"
    io.append_events([ChewEvent(0.0, 0.5), ChewEvent(3.6, 4.1)], log)
    rates = d / "rates.csv"
    rates.write_text("t_s,rate_hz\n1.0,0.5\n2.0,1.6\n")
    return {
        "recording": str(d / "P01.csv"),
        "datasets": datasets,
        "events": str(log),
        "model": str(io.save_model(rt_model, d / "rt.model")),
        "rates": str(rates),
    }


# Flags that take another path through a subcommand; each float option is
# checked on every path. `featurize --realtime` uses its fixed streaming
# geometry, but still refuses a `--hop` that the offline path would.
PATHS = {"featurize": ([], ["--realtime"])}


def valid_argv(subcommand, inputs, out_dir, port):
    """Arguments that `subcommand` accepts, with outputs under `out_dir`."""
    out = str(out_dir / "out")
    return [subcommand] + {
        "generate": ["--out", out, "--duration", "10"],
        "featurize": ["--in", inputs["recording"], "--out", out],
        "train": ["--in", inputs["datasets"][0], "--out", out],
        "eval-lopo": ["--in", *inputs["datasets"]],
        "analyze": ["--in", inputs["events"]],
        "serve": ["--model", inputs["model"], "--port", "0"],
        "replay": [
            "--in", inputs["recording"], "--port", str(port), "--speed", "0",
            "--transcript", out,
        ],
        "feedback-sim": ["--in", inputs["rates"]],
    }[subcommand]


class TestFloatOptions:
    """Every float option refuses each value its rule forbids: exit non-zero,
    no traceback, no output file. The other arguments are valid, so it is the
    number, not a missing file, that gets refused."""

    @pytest.fixture(autouse=True)
    def serve_returns(self, monkeypatch):
        # A `serve` that got past its checks returns at once instead of serving.
        monkeypatch.setattr(io.EmgServer, "serve_forever", lambda self: None)

    def test_every_float_option_has_a_rule(self):
        assert sorted(FORBIDDEN) == sorted(float_options())

    @pytest.mark.parametrize("subcommand", sorted({name for name, _ in float_options()}))
    def test_valid_arguments_succeed(
        self, subcommand, valid_inputs, live_server, tmp_path, capsys
    ):
        argv = valid_argv(subcommand, valid_inputs, tmp_path, live_server.port)
        assert run_cli(argv, capsys)[0] == 0

    def refusals(self, argv, option, tmp_path, capsys):
        """(value, stderr) of each forbidden value, on every path of argv."""
        subcommand = argv[0]
        assert (subcommand, option) in FORBIDDEN, "add the option's rule to FORBIDDEN"
        for flags in PATHS.get(subcommand, ([],)):
            for value in sorted(FORBIDDEN[subcommand, option]):
                try:
                    rc = main(argv + flags + [f"{option}={value}"])
                except SystemExit as exc:  # argparse's usage errors
                    rc = exc.code
                err = capsys.readouterr().err
                assert rc not in (0, None), f"{flags} {option}={value} was accepted"
                assert "Traceback" not in err
                assert list(tmp_path.iterdir()) == [], f"{option}={value} wrote output"
                yield value, err

    @pytest.mark.parametrize("subcommand, option", float_options())
    def test_forbidden_values_refused(
        self, subcommand, option, valid_inputs, live_server, tmp_path, capsys
    ):
        argv = valid_argv(subcommand, valid_inputs, tmp_path, live_server.port)
        for _ in self.refusals(argv, option, tmp_path, capsys):
            pass

    @pytest.mark.parametrize(  # generate reads no file
        "subcommand, option", [o for o in float_options() if o[0] != "generate"]
    )
    def test_forbidden_values_refused_before_the_input_is_read(
        self, subcommand, option, valid_inputs, live_server, tmp_path, capsys
    ):
        # Every input missing: the refusal names the value, not the file.
        missing = str(tmp_path / "missing.csv")
        inputs = {key: [missing] if key == "datasets" else missing for key in valid_inputs}
        argv = valid_argv(subcommand, inputs, tmp_path, live_server.port)
        for value, err in self.refusals(argv, option, tmp_path, capsys):
            assert value in err and "missing.csv" not in err, err
