"""Runner eval telemetry: journal ``eval``/``note`` events, trace filtering."""

from types import SimpleNamespace

import repro.eval.protocol as protocol
from repro.eval import EvalStats
from repro.obs import RunJournal, events_of, read_journal
from repro.run.config import RunConfig
from repro.run.runner import _RunContext, _log_eval


def _ctx(journal, spans=None):
    tracer = SimpleNamespace(snapshot=lambda: spans or {})
    trainer = SimpleNamespace(tracer=tracer)
    return _RunContext(config=RunConfig(method="GraphCL", dataset="MUTAG"),
                       trainer=trainer, method=None, dataset=None,
                       journal=journal)


def _install_stats(monkeypatch, **overrides):
    stats = EvalStats(seconds=1.5, solver="lockstep", workers=0, repeats=5,
                      folds_total=50, folds_batched=50, **overrides)
    monkeypatch.setattr(protocol, "_last_stats", stats)
    return stats


class TestLogEval:
    def test_eval_event_carries_engine_fields(self, tmp_path, monkeypatch):
        _install_stats(monkeypatch, fit_iterations=1234)
        with RunJournal(tmp_path) as journal:
            _log_eval(_ctx(journal), accuracy=87.5, accuracy_std=1.25)
        (event,) = events_of(read_journal(tmp_path), "eval")
        assert event["dataset"] == "MUTAG"
        assert event["accuracy"] == 87.5
        assert event["eval_solver"] == "lockstep"
        assert event["eval_folds"] == 50
        assert event["eval_fit_iterations"] == 1234

    def test_skipped_folds_surface_as_note_event(self, tmp_path,
                                                 monkeypatch):
        _install_stats(monkeypatch, folds_skipped=2)
        with RunJournal(tmp_path) as journal:
            _log_eval(_ctx(journal), accuracy=50.0)
        events = read_journal(tmp_path)
        (note,) = events_of(events, "note")
        assert "2 degenerate fold(s)" in note["message"]
        assert note["folds_skipped"] == 2
        assert events_of(events, "eval")[0]["eval_folds_skipped"] == 2

    def test_no_note_without_skips(self, tmp_path, monkeypatch):
        _install_stats(monkeypatch)
        with RunJournal(tmp_path) as journal:
            _log_eval(_ctx(journal), accuracy=50.0)
        assert events_of(read_journal(tmp_path), "note") == []

    def test_trace_event_restricted_to_evaluate_spans(self, tmp_path,
                                                      monkeypatch):
        _install_stats(monkeypatch)
        spans = {"evaluate": {"count": 1}, "evaluate/eval/graph":
                 {"count": 1}, "train/epoch": {"count": 2}}
        with RunJournal(tmp_path) as journal:
            _log_eval(_ctx(journal, spans=spans), accuracy=50.0)
        (trace_event,) = events_of(read_journal(tmp_path), "trace")
        assert sorted(trace_event["spans"]) == ["evaluate",
                                               "evaluate/eval/graph"]

    def test_no_journal_is_a_noop(self, monkeypatch):
        _install_stats(monkeypatch)
        _log_eval(_ctx(None), accuracy=50.0)  # must not raise

    def test_reference_path_stats_still_logged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            protocol, "_last_stats",
            EvalStats(seconds=0.5, solver="reference", repeats=5,
                      folds_total=50, folds_fallback=50))
        with RunJournal(tmp_path) as journal:
            _log_eval(_ctx(journal), accuracy=50.0)
        (event,) = events_of(read_journal(tmp_path), "eval")
        assert event["eval_solver"] == "reference"
        assert event["eval_folds_fallback"] == 50
