"""Tests for the command-line interface."""

import pytest

from repro.cli import main


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


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["generate", "galaxy", "--out", "x"])

    @pytest.mark.parametrize("command", ["cluster", "fit-model", "stream"])
    @pytest.mark.parametrize(
        "mode", ["dense", "blocked", "parallel", "fused", "native"]
    )
    def test_removed_fit_modes_rejected(self, command, mode, capsys):
        """``--fit-mode`` takes only the planner's ``auto`` and ``sharded``."""
        argv = [command, "--input", "x.txt", "-k", "2", "--theta", "0.5",
                "--fit-mode", mode]
        if command == "fit-model":
            argv += ["--model", "m.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

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
        ],
        ids=["neighbor-method", "merge-method", "assign-backend",
             "serve-assign-backend", "assign-workers", "serve-batch-wait-us"],
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
