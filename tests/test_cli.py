"""Unit tests for the command-line interface."""

import contextlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.graph.io import load_graph_npz
from repro.server import SACClient, SACServer


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.npz"
    exit_code = main(
        [
            "generate",
            "--kind",
            "geosocial",
            "--vertices",
            "400",
            "--average-degree",
            "8",
            "--seed",
            "3",
            "--out",
            str(path),
        ]
    )
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_generate_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "--out", "x.npz"])
        assert args.kind == "geosocial"
        assert args.vertices == 5000

    def test_query_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["query", "g.npz", "--vertex", "7", "--k", "5"])
        assert args.vertex == 7
        assert args.k == 5
        assert args.algorithm == "appfast"


class TestGenerate:
    def test_generate_writes_loadable_graph(self, graph_file):
        graph = load_graph_npz(graph_file)
        assert graph.num_vertices == 400
        assert graph.num_edges > 0

    def test_generate_powerlaw(self, tmp_path, capsys):
        path = tmp_path / "pl.npz"
        assert main(["generate", "--kind", "powerlaw", "--vertices", "300", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "300 vertices" in out


class TestQuery:
    def test_query_found(self, graph_file, capsys):
        graph = load_graph_npz(graph_file)
        # Pick a vertex with reasonably high degree so a 2-core exists around it.
        vertex = max(range(graph.num_vertices), key=graph.degree)
        label = graph.label_of(vertex)
        exit_code = main(
            ["query", str(graph_file), "--vertex", str(label), "--k", "2", "--algorithm", "appfast"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "members" in output
        assert "radius" in output

    def test_query_not_found(self, graph_file, capsys):
        graph = load_graph_npz(graph_file)
        vertex = min(range(graph.num_vertices), key=graph.degree)
        label = graph.label_of(vertex)
        exit_code = main(
            ["query", str(graph_file), "--vertex", str(label), "--k", "50"]
        )
        assert exit_code == 1
        assert "no community" in capsys.readouterr().out

    def test_query_missing_file_reports_error(self, tmp_path, capsys):
        exit_code = main(["query", str(tmp_path / "missing.npz"), "--vertex", "0"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_query_exact_plus(self, graph_file, capsys):
        graph = load_graph_npz(graph_file)
        vertex = max(range(graph.num_vertices), key=graph.degree)
        exit_code = main(
            [
                "query",
                str(graph_file),
                "--vertex",
                str(graph.label_of(vertex)),
                "--k",
                "2",
                "--algorithm",
                "exact+",
                "--epsilon-a",
                "0.01",
            ]
        )
        assert exit_code == 0
        assert "exact+" in capsys.readouterr().out


class TestServeBatch:
    def test_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve-batch", "g.npz"])
        assert args.rounds == 2
        assert not args.no_cache

    def test_rounds_hit_the_cache(self, graph_file, capsys):
        exit_code = main(
            ["serve-batch", str(graph_file), "--count", "8", "--k", "3",
             "--rounds", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "round 1" in output and "round 2" in output
        assert "0 cache hits" in output.splitlines()[2]  # cold first round
        assert "8 cache hits" in output.splitlines()[3]  # warm second round
        assert "cache          :" in output

    def test_no_cache_mode(self, graph_file, capsys):
        exit_code = main(
            ["serve-batch", str(graph_file), "--count", "4", "--k", "3",
             "--no-cache", "--rounds", "1"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "k=3, no cache" in output
        assert "cache          :" not in output

    def test_invalid_rounds_rejected(self, graph_file, capsys):
        assert main(["serve-batch", str(graph_file), "--rounds", "0"]) == 2
        assert "error" in capsys.readouterr().err


@pytest.fixture
def store_dir(graph_file, tmp_path, capsys):
    """A snapshot directory written by the `snapshot` subcommand."""
    path = tmp_path / "graph.store"
    assert main(["snapshot", str(graph_file), "--out", str(path), "--ks", "3,4"]) == 0
    capsys.readouterr()
    return path


class TestSnapshotAndStore:
    def test_snapshot_writes_store(self, graph_file, tmp_path, capsys):
        path = tmp_path / "g.store"
        assert main(["snapshot", str(graph_file), "--out", str(path), "--ks", "4"]) == 0
        assert "bundles" in capsys.readouterr().out
        assert (path / "manifest.json").is_file()

    def test_snapshot_rejects_bad_ks(self, graph_file, tmp_path, capsys):
        path = tmp_path / "g.store"
        assert main(["snapshot", str(graph_file), "--out", str(path), "--ks", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_batch_from_store_matches_graph(self, graph_file, store_dir, capsys):
        base = ["--count", "6", "--k", "3", "--seed", "5"]
        assert main(["batch", str(graph_file)] + base) == 0
        cold_out = capsys.readouterr().out
        assert main(["batch", "--store", str(store_dir)] + base) == 0
        warm_out = capsys.readouterr().out
        # Identical result lines (vertex/member/radius); timing lines differ.
        cold_rows = [line for line in cold_out.splitlines() if "vertex" in line]
        warm_rows = [line for line in warm_out.splitlines() if "vertex" in line]
        assert cold_rows == warm_rows and cold_rows

    def test_serve_batch_from_store(self, store_dir, capsys):
        exit_code = main(
            ["serve-batch", "--store", str(store_dir), "--count", "6", "--k", "3",
             "--rounds", "1"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "0 core decomposition(s)" in output

    def test_track_from_store(self, store_dir, capsys):
        exit_code = main(
            ["track", "--store", str(store_dir), "--k", "3", "--track-count", "2",
             "--min-friends", "4", "--generate-users", "60", "--checkins-per-user", "3"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "0 core decomposition(s)" in output

    def test_graph_and_store_together_rejected(self, graph_file, store_dir, capsys):
        assert main(["batch", str(graph_file), "--store", str(store_dir)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_graph_nor_store_rejected(self, capsys):
        assert main(["batch", "--count", "4"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrack:
    TRACK_ARGS = [
        "--k",
        "3",
        "--track-count",
        "3",
        "--min-friends",
        "4",
        "--generate-users",
        "120",
        "--checkins-per-user",
        "4",
    ]

    def test_track_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["track", "g.npz"])
        assert args.algorithm == "appfast"

    def test_track_incremental_replay(self, graph_file, capsys):
        assert main(["track", str(graph_file), *self.TRACK_ARGS]) == 0
        output = capsys.readouterr().out
        assert "incremental" in output
        assert "check-ins" in output
        assert "bundle patches" in output

    def test_track_checkin_file_users_are_labels(self, graph_file, tmp_path, capsys):
        graph = load_graph_npz(graph_file)
        label = graph.label_of(5)
        x, y = graph.position(5)
        stream = tmp_path / "checkins.txt"
        stream.write_text(
            "".join(f"{label} {t}.0 {x + 0.001 * t} {y}\n" for t in range(3))
        )
        assert (
            main(["track", str(graph_file), "--checkins", str(stream),
                  "--users", str(label), "--k", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "3 replayed, 3 tracked queries" in out

    def test_track_checkin_file_unknown_label_errors(self, graph_file, tmp_path, capsys):
        stream = tmp_path / "checkins.txt"
        stream.write_text("987654 1.0 0.5 0.5\n")
        assert main(["track", str(graph_file), "--checkins", str(stream), "--k", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_track_explicit_users(self, graph_file, capsys):
        graph = load_graph_npz(graph_file)
        label = str(graph.label_of(0))
        assert (
            main(["track", str(graph_file), "--users", label, "--k", "2",
                  "--generate-users", "50", "--checkins-per-user", "3"]) == 0
        )
        assert f"user {label:>8}" in capsys.readouterr().out


class TestServe:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-queue-depth", "0"],
            ["--default-deadline-ms", "-5"],
            ["--subscription-backlog", "0"],
            ["--subscription-idle-seconds", "nan"],
            ["--subscription-idle-seconds", "-1"],
        ],
        ids=[
            "queue-depth",
            "default-deadline",
            "subscription-backlog",
            "idle-seconds-nan",
            "idle-seconds-negative",
        ],
    )
    def test_unusable_setting_is_an_error_before_serving(
        self, graph_file, capsys, monkeypatch, flags
    ):
        async def refuse_to_serve(server):
            raise AssertionError("serve started with an unusable setting")

        monkeypatch.setattr(SACServer, "serve_forever", refuse_to_serve)
        assert main(["serve", str(graph_file), "--port", "0", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    @contextlib.contextmanager
    def _serving(*flags):
        """Run ``repro.cli serve --port 0 FLAGS`` in a subprocess; yields it.

        Yields once the server answered ``/healthz``, by when its signal
        handlers are installed.  A watchdog kills a server that hangs.
        """
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        watchdog = threading.Timer(120.0, process.kill)
        watchdog.start()
        try:
            for line in process.stdout:
                listening = re.search(r" on http://[\d.]+:(\d+)", line)
                if listening:
                    break
            else:
                pytest.fail(f"serve exited before listening (exit {process.wait()})")
            with SACClient("127.0.0.1", int(listening.group(1))) as client:
                assert client.healthz()["status"] == "ok"
            yield process
        finally:
            watchdog.cancel()
            process.kill()
            process.wait()
            process.stdout.close()

    @staticmethod
    def _assert_sigterm_stops(process):
        """SIGTERM: the server prints ``server stopped`` and exits 0."""
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
        assert process.returncode == 0, output
        assert "server stopped" in output

    def test_sigusr1_snapshots_and_sigterm_stops_the_daemon(self, graph_file, tmp_path):
        snapshot = tmp_path / "live.store"
        with self._serving(str(graph_file), "--snapshot-to", str(snapshot)) as process:
            process.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 60
            while not (snapshot / "manifest.json").is_file():
                assert time.monotonic() < deadline, "SIGUSR1 wrote no snapshot"
                assert process.poll() is None, "SIGUSR1 stopped the server"
                time.sleep(0.05)
            self._assert_sigterm_stops(process)

    def test_sigterm_stops_a_coordinator_with_unreachable_backends(self):
        flags = ("--role", "coordinator", "--writer-addr", "127.0.0.1:9", "--replicas", "127.0.0.1:9")
        with self._serving(*flags) as process:
            self._assert_sigterm_stops(process)

    def test_sigusr1_leaves_a_coordinator_serving(self):
        with self._serving("--role", "coordinator", "--writer-addr", "127.0.0.1:9") as process:
            process.send_signal(signal.SIGUSR1)
            # The default action would end the process at once (exit -10).
            time.sleep(1.0)
            assert process.poll() is None, "SIGUSR1 stopped the coordinator"
            self._assert_sigterm_stops(process)


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        assert main(["stats", str(graph_file)]) == 0
        output = capsys.readouterr().out
        assert "vertices" in output
        assert "edges" in output
