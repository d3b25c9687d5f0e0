"""Tests for the command-line interface."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.data.io import read_transactions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGenerate:
    def test_basket_small(self, tmp_path, capsys):
        out = tmp_path / "txns.txt"
        code, stdout = run(capsys, "generate", "basket", "--out", str(out))
        assert code == 0
        assert out.exists()
        assert (tmp_path / "txns.txt.labels").exists()
        assert "wrote" in stdout

    def test_votes(self, tmp_path, capsys):
        out = tmp_path / "votes.data"
        code, _ = run(capsys, "generate", "votes", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 435
        labels = (tmp_path / "votes.data.labels").read_text().splitlines()
        assert labels.count("republican") == 168

    def test_funds_small(self, tmp_path, capsys):
        out = tmp_path / "funds.data"
        code, _ = run(capsys, "generate", "funds", "--out", str(out))
        assert code == 0
        assert out.exists()

    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run(capsys, "generate", "basket", "--out", str(a), "--seed", "5")
        run(capsys, "generate", "basket", "--out", str(b), "--seed", "5")
        assert a.read_text() == b.read_text()


class TestCluster:
    @pytest.fixture
    def basket_file(self, tmp_path, capsys):
        out = tmp_path / "txns.txt"
        run(capsys, "generate", "basket", "--out", str(out))
        return out

    def test_cluster_transactions(self, basket_file, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        code, stdout = run(
            capsys, "cluster", "--input", str(basket_file),
            "--theta", "0.4", "-k", "4", "--min-cluster-size", "5",
            "--output", str(labels),
        )
        assert code == 0
        assert "clusters" in stdout
        written = labels.read_text().splitlines()
        assert len(written) == len(basket_file.read_text().splitlines())

    def test_cluster_and_evaluate_round_trip(self, basket_file, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        run(
            capsys, "cluster", "--input", str(basket_file),
            "--theta", "0.4", "-k", "4", "--min-cluster-size", "5",
            "--output", str(labels),
        )
        code, stdout = run(
            capsys, "evaluate", "--predicted", str(labels),
            "--truth", str(basket_file) + ".labels",
        )
        assert code == 0
        assert "purity" in stdout
        purity_row = [l for l in stdout.splitlines() if l.startswith("purity")][0]
        assert float(purity_row.split("|")[1]) > 0.95

    def test_cluster_uci_votes(self, tmp_path, capsys):
        data = tmp_path / "votes.data"
        run(capsys, "generate", "votes", "--out", str(data))
        code, stdout = run(
            capsys, "cluster", "--input", str(data), "--format", "uci",
            "--theta", "0.73", "-k", "2", "--min-cluster-size", "5",
        )
        assert code == 0
        assert "clusters" in stdout

    def test_missing_aware_rejected_for_transactions(self, basket_file, capsys):
        with pytest.raises(SystemExit):
            main([
                "cluster", "--input", str(basket_file),
                "--theta", "0.4", "-k", "4", "--missing-aware",
            ])

    def test_empty_input_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["cluster", "--input", str(empty), "--theta", "0.4", "-k", "2"])


class TestGenData:
    def test_gen_data(self, tmp_path, capsys):
        out = tmp_path / "big.txt"
        labels = tmp_path / "big.labels"
        code, stdout = run(
            capsys, "gen-data", "--out", str(out), "-n", "500",
            "--clusters", "4", "--labels", str(labels),
            "--chunk-rows", "64", "--seed", "9",
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 500
        assert len(labels.read_text().splitlines()) == 500
        assert "500 transactions" in stdout

    def test_gen_data_deterministic_and_chunk_invariant(self, tmp_path):
        from repro.datasets import write_basket_file

        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_basket_file(a, 400, n_clusters=4, chunk_rows=11, seed=2)
        write_basket_file(b, 400, n_clusters=4, chunk_rows=4096, seed=2)
        assert a.read_text() == b.read_text()


class TestEvaluate:
    def test_length_mismatch(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n1\n")
        b.write_text("0\n")
        with pytest.raises(SystemExit, match="differ in length"):
            main(["evaluate", "--predicted", str(a), "--truth", str(b)])

    def test_perfect_labels(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n0\n1\n1\n")
        truth.write_text("a\na\nb\nb\n")
        code, stdout = run(
            capsys, "evaluate", "--predicted", str(pred), "--truth", str(truth)
        )
        assert code == 0
        ari_row = [l for l in stdout.splitlines() if "Rand" in l][0]
        assert float(ari_row.split("|")[1]) == pytest.approx(1.0)


class TestSuggestTheta:
    def test_on_generated_basket(self, tmp_path, capsys):
        data = tmp_path / "txns.txt"
        run(capsys, "generate", "basket", "--out", str(data))
        code, stdout = run(
            capsys, "suggest-theta", "--input", str(data), "--seed", "1"
        )
        assert code == 0
        assert "suggested theta" in stdout
        theta_row = [l for l in stdout.splitlines() if l.startswith("suggested")][0]
        theta = float(theta_row.split("|")[1])
        assert 0.0 < theta < 1.0

    def test_on_uci_votes(self, tmp_path, capsys):
        data = tmp_path / "votes.data"
        run(capsys, "generate", "votes", "--out", str(data))
        code, stdout = run(
            capsys, "suggest-theta", "--input", str(data), "--format", "uci"
        )
        assert code == 0
        assert "pairs sampled" in stdout

    def test_too_few_records(self, tmp_path):
        data = tmp_path / "one.txt"
        data.write_text("a b c\n")
        with pytest.raises(SystemExit, match="two records"):
            main(["suggest-theta", "--input", str(data)])


class TestReport:
    def test_report_on_votes(self, tmp_path, capsys):
        data = tmp_path / "votes.data"
        run(capsys, "generate", "votes", "--out", str(data))
        out = tmp_path / "report.md"
        code, stdout = run(
            capsys, "report", "--input", str(data), "--theta", "0.73",
            "-k", "2", "--min-cluster-size", "5", "--output", str(out),
            "--title", "Votes run",
        )
        assert code == 0
        assert "report written" in stdout
        text = out.read_text()
        assert text.startswith("# Votes run")
        assert "## Composition vs ground truth" in text
        assert "## Cluster characteristics" in text


class TestFitModelAssign:
    @pytest.fixture
    def basket_file(self, tmp_path, capsys):
        out = tmp_path / "txns.txt"
        run(capsys, "generate", "basket", "--out", str(out))
        return out

    def test_fit_model_writes_model_and_labels(self, basket_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        labels = tmp_path / "fit-labels.txt"
        code, stdout = run(
            capsys, "fit-model", "--input", str(basket_file),
            "--theta", "0.45", "-k", "4", "--sample", "300",
            "--model", str(model), "--labels", str(labels),
        )
        assert code == 0
        assert model.exists()
        assert "|L_i| sizes" in stdout
        assert len(labels.read_text().splitlines()) == \
            len(basket_file.read_text().splitlines())

    def test_fit_assign_round_trip_reproduces_labels(
        self, basket_file, tmp_path, capsys
    ):
        """fit-model then assign over the same file must reproduce the
        fit run's labels exactly on every non-sample record."""
        model = tmp_path / "model.json"
        fit_labels = tmp_path / "fit-labels.txt"
        run(
            capsys, "fit-model", "--input", str(basket_file),
            "--theta", "0.45", "-k", "4", "--sample", "300",
            "--model", str(model), "--labels", str(fit_labels),
        )
        assigned = tmp_path / "assigned.txt"
        code, stdout = run(
            capsys, "assign", "--model", str(model),
            "--input", str(basket_file), "--output", str(assigned),
            "--show-metrics",
        )
        assert code == 0
        assert "throughput" in stdout
        # the serve.* families, printed as Prometheus text
        assert "# TYPE rock_serve_requests_total counter" in stdout
        assert "# TYPE rock_serve_batch_size histogram" in stdout
        from repro.serve import RockModel

        loaded = RockModel.load(model)
        sample_size = loaded.metadata["sample_size"]
        fit = fit_labels.read_text().split()
        got = assigned.read_text().split()
        assert len(got) == len(fit)
        mismatches = sum(1 for a, b in zip(fit, got) if a != b)
        # only sampled records may differ (they were clustered directly,
        # not labeled); every labeled record must round-trip exactly
        assert mismatches <= sample_size

    def test_assign_uci(self, tmp_path, capsys):
        data = tmp_path / "votes.data"
        run(capsys, "generate", "votes", "--out", str(data))
        model = tmp_path / "votes-model.json"
        run(
            capsys, "fit-model", "--input", str(data), "--format", "uci",
            "--theta", "0.73", "-k", "2", "--sample", "300",
            "--min-cluster-size", "5", "--model", str(model),
        )
        code, stdout = run(
            capsys, "assign", "--model", str(model),
            "--input", str(data), "--format", "uci",
        )
        assert code == 0
        assert "records" in stdout

    def test_assign_output_on_a_fixture(self, tmp_path, capsys):
        """The labels and table rows ``repro assign`` printed when it ran
        through a facade with a point cache; ties go to the lower label."""
        from repro.serve import AssignmentEngine, RockModel

        model = basket_model(tmp_path / "model.json")
        data = tmp_path / "held.txt"
        data.write_text(FIXTURE_BASKETS, encoding="utf-8")
        labels = tmp_path / "labels.txt"
        code, stdout = run(
            capsys, "assign", "--model", str(model), "--input", str(data),
            "--output", str(labels), "--chunk-size", "3",
        )
        assert code == 0
        assert labels.read_text() == "0\n1\n0\n-1\n1\n0\n-1\n1\n"
        backend = AssignmentEngine(RockModel.load(model)).assign_backend
        rows = [" ".join(line.split()) for line in stdout.splitlines()]
        for row in ("records | 8", "clusters in model | 2",
                    "outliers / unassigned | 2", f"assign backend | {backend}"):
            assert row in rows
        assert f"labels written to {labels}" in rows


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["generate", "galaxy", "--out", "x"])

    @pytest.mark.parametrize("command", ["cluster", "fit-model", "stream"])
    @pytest.mark.parametrize(
        "mode",
        ["auto", "sharded", "dense", "blocked", "parallel", "fused", "native"],
    )
    def test_removed_fit_modes_rejected(self, command, mode, capsys):
        """There is one fit path: ``--fit-mode`` is gone, whatever its value."""
        argv = [command, "--input", "x.txt", "-k", "2", "--theta", "0.5",
                "--fit-mode", mode]
        if command == "fit-model":
            argv += ["--model", "m.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --fit-mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cluster", "fit-model", "stream"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--shard-block-rows", "16"), ("--spill-dir", "spill"),
         ("--max-retries", "3")],
    )
    def test_removed_shard_flags_rejected(self, command, flag, value, capsys):
        """The sharded fit's knobs fail loudly; none is silently ignored."""
        argv = [command, "--input", "x.txt", "-k", "2", "--theta", "0.5",
                flag, value]
        if command == "fit-model":
            argv += ["--model", "m.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--input", "x.txt", "-k", "2", "--theta", "0.5",
             "--neighbor-method", "auto"],
            ["cluster", "--input", "x.txt", "-k", "2", "--theta", "0.5",
             "--merge-method", "heap"],
            ["assign", "--model", "m.json", "--input", "x.txt",
             "--assign-backend", "native"],
            ["serve", "--model", "m.json", "--assign-backend", "dense"],
            ["assign", "--model", "m.json", "--input", "x.txt",
             "--workers", "2"],
            ["serve", "--model", "m.json", "--batch-wait-us", "2000"],
            ["serve", "--model", "m.json", "--cache-size", "8"],
            ["fit-model", "--input", "x.txt", "-k", "2", "--theta", "0.5",
             "--model", "m.json", "--workers", "2"],
        ],
        ids=["neighbor-method", "merge-method", "assign-backend",
             "serve-assign-backend", "assign-workers", "serve-batch-wait-us",
             "serve-cache-size", "fit-workers"],
    )
    def test_removed_engine_flags_rejected(self, argv, capsys):
        """The engine follows the probe; no flag forces one."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_assign_chunk_size_must_be_positive(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["assign", "--model", "m.json", "--input", "x.txt",
                  "--chunk-size", value])
        assert exc.value.code == 2
        assert "--chunk-size" in capsys.readouterr().err


class TestServe:
    @pytest.fixture
    def model_file(self, tmp_path):
        from repro.data.transactions import Transaction
        from repro.serve import RockModel

        theta = 0.4
        model = RockModel(
            labeling_sets=[
                [Transaction({1, 2, 3}), Transaction({1, 2, 4})],
                [Transaction({7, 8, 9}), Transaction({7, 8, 10})],
            ],
            theta=theta,
            f_theta=(1 - theta) / (1 + theta),
        )
        path = tmp_path / "model.json"
        model.save(path)
        return path

    def free_port(self):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_serve_answers_requests_then_shuts_down(
        self, model_file, capsys
    ):
        import http.client
        import json as jsonlib
        import threading
        import time

        port = self.free_port()
        exit_code = []
        runner = threading.Thread(
            target=lambda: exit_code.append(main([
                "serve", "--model", str(model_file),
                "--port", str(port), "--shutdown-after", "2.5",
                "--poll-seconds", "10",
            ]))
        )
        runner.start()

        label = None
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and label is None:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                conn.request(
                    "POST", "/assign",
                    body=jsonlib.dumps({"point": [1, 2, 3]}),
                )
                response = conn.getresponse()
                label = jsonlib.loads(response.read())["label"]
                conn.close()
            except OSError:
                time.sleep(0.05)
        runner.join(30)

        assert label == 0
        assert exit_code == [0]
        out = capsys.readouterr().out
        assert f"on http://127.0.0.1:{port}" in out
        assert "shutting down: draining in-flight requests" in out
        assert "served 1 requests (1 points, 0 reloads)" in out

    def test_serve_missing_model_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "serve", "--model", str(tmp_path / "nope.json"),
                "--port", "0", "--shutdown-after", "0.1",
            ])


# baskets over the items of basket_model's two clusters: a comment and a
# blank line are skipped, "a b x y" ties and "q", "c d" are outliers
FIXTURE_BASKETS = "a b c\nx y z\na b d e\nq\n# note\n\nx y w v\na b x y\nc d\ny z w\n"


def basket_model(path):
    from repro.data.transactions import Transaction
    from repro.serve import RockModel

    theta = 0.4
    RockModel(
        labeling_sets=[
            [Transaction({"a", "b", "c"}), Transaction({"a", "b", "d"})],
            [Transaction({"x", "y", "z"}), Transaction({"x", "y", "w"})],
        ],
        theta=theta,
        f_theta=(1 - theta) / (1 + theta),
    ).save(path)
    return path


# basket lines: the model's items, and arbitrary bytes (often not UTF-8)
basket_bytes = st.lists(
    st.one_of(
        st.lists(st.sampled_from([b"a", b"b", b"c", b"x", b"y", b"z", b"#"]),
                 max_size=4).map(b" ".join),
        st.binary(max_size=8),
    ),
    max_size=12,
).map(b"\n".join)


def run_quietly(argv):
    """``main(argv)``'s exit: 0, or the ``SystemExit`` it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv), None
        except SystemExit as exc:
            return exc.code, exc


def assert_one_line_error(code, exc, name):
    assert code not in (0, None)
    message = str(code)
    assert message.startswith(f"{name}: ") and "\n" not in message
    # raised "from None": nothing chained prints under the message
    assert exc.__cause__ is None and exc.__suppress_context__


class TestBasketInputFuzz:
    """Arbitrary bytes through ``repro assign`` and ``repro stream``: each
    run either succeeds on exactly what ``read_transactions`` reads from
    the same text, or fails in one line naming the input."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=basket_bytes)
    def test_assign_file(self, data):
        from repro.serve import AssignmentEngine, RockModel

        with tempfile.TemporaryDirectory() as tmp:
            model = basket_model(Path(tmp) / "model.json")
            source = Path(tmp) / "held.txt"
            source.write_bytes(data)
            output = Path(tmp) / "labels.txt"
            code, exc = run_quietly([
                "assign", "--model", str(model), "--input", str(source),
                "--output", str(output), "--chunk-size", "4",
            ])
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                assert_one_line_error(code, exc, str(source))
                assert "not UTF-8" in str(code)
                assert not output.exists()
                return
            assert code == 0
            engine = AssignmentEngine(RockModel.load(model))
            expected = engine.assign_all(list(read_transactions(source)))
            assert [int(v) for v in output.read_text().split()] == \
                expected.tolist()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=basket_bytes, from_stdin=st.booleans())
    def test_stream(self, data, from_stdin):
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp) / "arrivals.txt"
            source.write_bytes(data)
            argv = ["stream", "--input", "-" if from_stdin else str(source),
                    "--theta", "0.3", "-k", "2", "--reservoir", "8",
                    "--batch-size", "4"]
            with pytest.MonkeyPatch.context() as mp:
                # latin-1 decodes any byte: the command itself must insist
                # on UTF-8, as it does for a file
                mp.setattr(sys, "stdin", io.TextIOWrapper(
                    io.BytesIO(data), encoding="latin-1"
                ))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    try:
                        code, exc = main(argv), None
                    except SystemExit as raised:
                        code, exc = raised.code, raised
            name = "<stdin>" if from_stdin else str(source)
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                assert_one_line_error(code, exc, name)
                assert "not UTF-8" in str(code)
                return
            if code != 0:
                # arrivals too sparse to cluster: every sampled point
                # has no neighbor
                assert_one_line_error(code, exc, name)
                assert "pruned as an outlier" in str(code)
                return
            rows = [" ".join(line.split()) for line in out.getvalue().splitlines()]
            assert f"arrivals | {len(read_transactions(source))}" in rows


@pytest.mark.parametrize("command", ["assign", "stream"])
def test_non_utf8_input_exits_in_one_line(tmp_path, command):
    """In a real process: exit status 1, one stderr line, no traceback."""
    root = Path(__file__).resolve().parent.parent
    bad = b"a b c\nx \xff y\n"
    if command == "assign":
        source = tmp_path / "held.txt"
        source.write_bytes(bad)
        argv = ["assign", "--model", str(basket_model(tmp_path / "m.json")),
                "--input", str(source), "--output", str(tmp_path / "out.txt")]
        name, stdin = str(source), None
    else:
        argv = ["stream", "--input", "-", "--theta", "0.3", "-k", "2"]
        name, stdin = "<stdin>", bad
    run = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        input=stdin, capture_output=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert run.returncode == 1
    assert run.stderr.decode().splitlines() == [
        f"{name}: not UTF-8 text (invalid start byte: byte 0xff)"
    ]
    assert not (tmp_path / "out.txt").exists()
