"""Tests for the builtin sweep, the findings machinery and `repro lint`."""

import pytest

from repro.analysis import (
    FAMILIES,
    RULES,
    Finding,
    Report,
    Severity,
    check_all_builtin_programs,
    ensure_all_registered,
    rule_table,
)
from repro.cli import main


class TestFindings:
    def test_rule_ids_are_stable(self):
        expected = {
            "W001", "W002", "W003", "W004", "W005", "W006", "W007",
            "W008", "W009",
            "P001", "P002", "P003", "P004", "P005",
            "F001", "F002", "F003", "F004", "F005",
            "M001", "M002", "M003", "M004", "M005", "M006",
            "T001", "T002", "T003", "T004", "T005",
            "K001", "K002", "K003", "K004", "K005",
            "O001", "O002", "O003", "O004",
            "D001", "D002", "D003", "D004",
            "R001", "R002", "R003", "R004", "R005",
            "C001", "C002", "C003", "C004", "C005",
            "Q001", "Q002", "Q003", "Q004",
            "A001", "A002", "A003", "A004", "A005",
            "S001", "S002", "S003", "S004", "S005", "S006",
            "H001", "H002", "H003", "H004", "H005",
        }
        ensure_all_registered()
        assert expected == set(RULES)

    def test_every_family_has_a_gate_and_rules(self):
        ensure_all_registered()
        assert set(FAMILIES) == {
            "W", "P", "F", "M", "T", "K", "O", "D", "R", "C", "Q", "S",
            "H", "A",
        }
        for fam in FAMILIES.values():
            assert fam.gate.startswith("--")
            assert fam.rule_ids
            for rid in fam.rule_ids:
                assert rid in RULES

    def test_rule_table_covers_all_rules(self):
        ensure_all_registered()
        rows = rule_table()
        assert [r["rule_id"] for r in rows] == sorted(RULES)
        for row in rows:
            assert row["family"] == row["rule_id"][0]
            assert row["gate"]

    def test_unregistered_rule_rejected(self):
        with pytest.raises(KeyError):
            Finding("W999", "nope")

    def test_default_severity_from_registry(self):
        assert Finding("W006", "m").severity == Severity.INFO
        assert Finding("W001", "m").severity == Severity.ERROR

    def test_render_contains_id_and_location(self):
        f = Finding("P003", "boom", subject="pipeline:db", location=4)
        text = f.render()
        assert "P003" in text and "pipeline:db@4" in text

    def test_report_gate_ignores_warnings_and_notes(self):
        r = Report()
        r.extend([Finding("W003", "w"), Finding("W006", "i")])
        assert r.ok
        r.extend([Finding("W001", "e")])
        assert not r.ok
        assert len(r.errors) == 1
        assert len(r.by_rule("W003")) == 1

    def test_report_render_counts(self):
        r = Report(checked=3)
        r.extend([Finding("F001", "x")])
        out = r.render()
        assert "checked 3 object(s)" in out
        assert "1 error(s)" in out


class TestBuiltinSweep:
    def test_all_builtin_clean(self):
        report = check_all_builtin_programs()
        assert report.ok, report.render()
        assert report.checked > 30  # programs + traces + formats

    def test_sweep_covers_all_three_layers(self):
        from repro.analysis import (
            builtin_formats,
            builtin_pipeline_traces,
            builtin_warp_programs,
        )
        assert sum(1 for _ in builtin_warp_programs()) >= 8
        assert sum(1 for _ in builtin_pipeline_traces()) >= 8
        assert sum(1 for _ in builtin_formats()) == 9


class TestLintCommand:
    def test_lint_all_builtin_exits_zero(self, capsys):
        rc = main(["lint", "--all-builtin"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_verbose(self, capsys):
        rc = main(["lint", "--verbose"])
        assert rc == 0
        assert "object(s)" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("W001", "H005", "S006", "C005"):
            assert rid in out

    def test_lint_failure_exit_code(self, capsys, monkeypatch):
        import repro.cli as cli_mod

        def broken():
            r = Report(checked=1)
            r.extend([Finding("W007", "seeded redundant popcount")])
            return r

        import repro.analysis

        monkeypatch.setattr(
            repro.analysis, "check_all_builtin_programs", broken
        )
        rc = cli_mod.main(["lint", "--all-builtin"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "W007" in captured.out
        assert "lint FAILED" in captured.err
