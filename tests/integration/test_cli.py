"""Command-line interface smoke tests."""

import argparse
import json

import pytest

from repro.cli import build_parser, main

#: One representative invocation per subcommand, with the parsed
#: attribute values it must round-trip to.
SUBCOMMAND_ARGS = {
    "run": (["run", "--method", "SimGRACE", "--weight", "0.5",
             "--epochs", "3", "--checkpoint-every", "2",
             "--run-dir", "runs/x"],
            {"method": "SimGRACE", "weight": 0.5, "epochs": 3,
             "checkpoint_every": 2, "run_dir": "runs/x", "resume": None,
             "list_methods": False}),
    "datasets": (["datasets", "--family", "tu", "--scale", "tiny"],
                 {"family": "tu", "scale": "tiny"}),
    "spectrum": (["spectrum", "--dataset", "IMDB-B", "--weight", "0.5"],
                 {"dataset": "IMDB-B", "weight": 0.5, "epochs": 60}),
    "flow": (["flow", "--weight", "0.5", "--steps", "20"],
             {"weight": 0.5, "steps": 20, "samples": 32}),
    "report": (["report", "runs/x", "--spectrum-top", "4"],
               {"run_dir": "runs/x", "spectrum_top": 4}),
    "serve": (["serve", "--run-dir", "runs/x", "--port", "8123",
               "--max-batch-size", "32"],
              {"run_dir": "runs/x", "port": 8123, "host": "127.0.0.1",
               "max_batch_size": 32, "queue_size": 128,
               "dtype": "float32"}),
    "embed": (["embed", "--run-dir", "runs/x", "--out", "emb.npz",
               "--batch-size", "64", "--dtype", "float64"],
              {"run_dir": "runs/x", "out": "emb.npz", "batch_size": 64,
               "dtype": "float64", "dataset": None, "scale": None}),
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        from repro.run import RunConfig

        args = build_parser().parse_args(["run"])
        assert args.method is None and args.weight is None
        config = RunConfig().resolve()
        assert config.method == "SimGRACE"
        assert config.weight == 0.0

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "Nope"])

    def test_subcommand_set(self):
        # ``run`` is the only training entry point; anything else is an
        # argparse error.
        parser = build_parser()
        (sub,) = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
        assert set(sub.choices) == {"run", "datasets", "spectrum", "flow",
                                    "report", "serve", "embed"}
        with pytest.raises(SystemExit):
            parser.parse_args(["train"])

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
    def test_round_trip(self, command):
        argv, expected = SUBCOMMAND_ARGS[command]
        args = build_parser().parse_args(argv)
        assert args.command == command
        for attr, value in expected.items():
            assert getattr(args, attr) == value, attr

    def test_serve_has_no_wait_window_flag(self, capsys):
        # The micro-batcher runs whatever is queued; the retired window
        # flag is an unknown argument, so ``repro serve`` exits 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--run-dir", "runs/x", "--max-wait-ms", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_flags_default_to_none(self):
        # ``repro run`` must distinguish "flag not passed" from "flag at
        # its default" so config-file fields survive unless overridden.
        args = build_parser().parse_args(["run"])
        for attr in ("method", "dataset", "level", "scale", "weight",
                     "epochs", "batch_size", "lr", "grad_clip", "patience",
                     "seed", "hidden_dim", "out_dim", "layers", "workers",
                     "run_dir", "checkpoint_every", "save"):
            assert getattr(args, attr) is None, attr

    def test_run_registry_choices(self):
        from repro.run import method_names

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "Nope"])
        # registry superset: RGCL and the pretrain baselines are runnable
        for name in method_names():
            build_parser().parse_args(["run", "--method", name])


class TestCommands:
    def test_datasets_tu(self, capsys):
        assert main(["datasets", "--family", "tu", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "MUTAG" in out

    def test_datasets_all(self, capsys):
        assert main(["datasets", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "Table III" in out

    def test_train_graph_with_gradgcl_and_save(self, tmp_path, capsys):
        ckpt = tmp_path / "enc.npz"
        code = main(["run", "--method", "GraphCL", "--dataset",
                     "MUTAG", "--weight", "0.5", "--epochs", "2",
                     "--scale", "tiny", "--hidden-dim", "8",
                     "--save", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert ckpt.exists()

    def test_train_node(self, capsys):
        code = main(["run", "--method", "GRACE", "--dataset",
                     "Cora", "--epochs", "2", "--scale", "tiny",
                     "--hidden-dim", "16", "--out-dim", "8"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_spectrum(self, capsys):
        code = main(["spectrum", "--dataset", "IMDB-B", "--epochs", "2",
                     "--scale", "tiny"])
        assert code == 0
        assert "effective-rank" in capsys.readouterr().out

    def test_flow(self, capsys):
        code = main(["flow", "--weight", "0.5", "--steps", "20",
                     "--samples", "10", "--dim", "5"])
        assert code == 0
        assert "gradient flow" in capsys.readouterr().out


class TestRunCommand:
    def test_list_methods(self, capsys):
        assert main(["run", "--list-methods"]) == 0
        out = capsys.readouterr().out
        for name in ("GraphCL", "SimGRACE", "RGCL", "GRACE", "DGI"):
            assert name in out

    def test_run_then_report_end_to_end(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(["run", "--method", "GraphCL", "--dataset", "MUTAG",
                     "--scale", "tiny", "--weight", "0.5", "--epochs", "2",
                     "--hidden-dim", "8", "--run-dir", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "effective-rank" in out
        assert (run_dir / "config.json").exists()
        assert main(["report", str(run_dir)]) == 0
        report = capsys.readouterr().out
        assert "Run config" in report
        assert "Epochs" in report
        assert "Evaluation" in report

    def test_run_journal_carries_eval_telemetry(self, tmp_path, capsys):
        from repro.obs import events_of, read_journal

        run_dir = tmp_path / "run"
        code = main(["run", "--method", "GraphCL", "--dataset", "MUTAG",
                     "--scale", "tiny", "--epochs", "1", "--hidden-dim",
                     "8", "--eval-workers", "2", "--run-dir",
                     str(run_dir)])
        assert code == 0
        capsys.readouterr()
        (event,) = events_of(read_journal(str(run_dir)), "eval")
        assert event["eval_workers"] == 2
        assert event["eval_folds"] == 50
        assert event["eval_solver"] in ("lockstep", "batched", "reference")
        assert len(event["eval_repeat_seconds"]) == 5
        assert main(["report", str(run_dir)]) == 0
        assert "eval" in capsys.readouterr().out

    def test_run_from_config_file_with_override(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"method": "SimGRACE", "dataset": "MUTAG", "scale": "tiny",
             "weight": 0.5, "epochs": 1, "hidden_dim": 8}))
        assert main(["run", str(config_path), "--weight", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "SimGRACE(a=0.0)" in out

    def test_run_then_embed_offline(self, tmp_path, capsys):
        import numpy as np

        run_dir = tmp_path / "run"
        out = tmp_path / "emb.npz"
        assert main(["run", "--method", "GraphCL", "--dataset", "MUTAG",
                     "--scale", "tiny", "--epochs", "2", "--hidden-dim",
                     "8", "--checkpoint-every", "2", "--run-dir",
                     str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["embed", "--run-dir", str(run_dir), "--out",
                     str(out)]) == 0
        assert "embedded" in capsys.readouterr().out
        with np.load(out) as archive:
            embeddings = archive["embeddings"]
            labels = archive["labels"]
        assert embeddings.dtype == np.float32
        assert embeddings.shape[0] == labels.shape[0] > 0

    @pytest.mark.parametrize("flags,message", [
        # A 1-graph batch has no in-batch negatives (every batch would be
        # skipped); the check runs in the step strategy, inside execute_run.
        (["--batch-size", "1"], "batch_size must be >= 2"),
        (["--weight", "2"], "weight must be in [0, 1]"),
        (["--checkpoint-every", "1"], "checkpoint_every requires run_dir"),
        # Training views are generated in-process; only 0 is accepted.
        (["--workers", "2"], "workers must be 0"),
        (["--cache-entries", "0"], "cache_entries must be >= 1"),
    ], ids=["batch-size-1", "weight-2", "checkpoint-without-run-dir",
            "workers-2", "cache-entries-0"])
    def test_run_config_error_is_usage_error(self, tmp_path, capsys, flags,
                                             message):
        run_dir = tmp_path / "run"
        dir_flags = ([] if "--checkpoint-every" in flags
                     else ["--run-dir", str(run_dir)])
        code = main(["run", "--method", "GraphCL", "--dataset", "MUTAG",
                     "--scale", "tiny", "--epochs", "1", *flags, *dir_flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro run: error: ") and message in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not run_dir.exists()

    def test_run_workers_zero_trains(self, tmp_path, capsys):
        # The benchmark's training path passes ``--workers 0`` explicitly.
        run_dir = tmp_path / "run"
        code = main(["run", "--method", "GraphCL", "--dataset", "MUTAG",
                     "--scale", "tiny", "--epochs", "1", "--hidden-dim",
                     "8", "--workers", "0", "--eval-workers", "0",
                     "--run-dir", str(run_dir)])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out
        assert json.loads((run_dir / "config.json").read_text())[
            "workers"] == 0

    def test_run_error_during_training_propagates(self, monkeypatch):
        from repro.run import Trainer

        def broken_fit(self):
            raise ValueError("raised while training")

        monkeypatch.setattr(Trainer, "fit", broken_fit)
        with pytest.raises(ValueError, match="raised while training"):
            main(["run", "--method", "GraphCL", "--dataset", "MUTAG",
                  "--scale", "tiny", "--epochs", "1"])

    def test_run_stop_after_prints_resume_hint(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(["run", "--method", "GraphCL", "--dataset", "MUTAG",
                     "--scale", "tiny", "--epochs", "4", "--hidden-dim",
                     "8", "--checkpoint-every", "2", "--run-dir",
                     str(run_dir), "--stop-after", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "interrupted after 2/4 epochs" in out
        assert "--resume" in out
        assert main(["run", "--resume", str(run_dir)]) == 0
        assert "accuracy" in capsys.readouterr().out
