"""Tests for ``repro.lint`` — the AST-based contract checker.

Three layers:

* **Fixture corpus** — every rule runs against one firing and one
  clean snippet under ``tests/lint_fixtures/`` (loaded as text, never
  imported), pinning exactly which shapes fire and which are
  sanctioned.
* **Machinery** — suppressions (valid / malformed / stale), the
  baseline round-trip, the runner over a throwaway tree, and the
  ``python -m repro lint`` CLI surface.
* **Acceptance + regressions** — the repo itself lints clean, and the
  violations the rules originally surfaced (host-clock reads in
  serving/session, unguarded flush telemetry, bare ``ValueError`` in
  constants) stay fixed.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.errors import ConfigurationError, ReproError, UnitConversionError
from repro.lint import (
    BASELINE_FILE,
    RULES,
    ModuleUnderLint,
    Severity,
    all_rules,
    load_baseline,
    run_lint,
    scan_suppressions,
    write_baseline,
)
from repro.lint.runner import PARSE_ERROR, UNUSED_SUPPRESSION, discover_files
from repro.lint.suppressions import SUPPRESSION_SYNTAX

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

EXPECTED_RULES = (
    "hot-path-telemetry-guard",
    "no-unseeded-rng",
    "modelled-clock-purity",
    "mutate-must-invalidate",
    "report-accounting-completeness",
    "error-taxonomy",
    "unused-import",
)

#: rule name -> (fixture stem, fake relpath inside the rule's scope,
#: line numbers the firing fixture must produce).
FIXTURE_TABLE = {
    "hot-path-telemetry-guard": (
        "telemetry_guard",
        "src/repro/runtime/fixture_mod.py",
        [10, 13, 18, 23],
    ),
    "no-unseeded-rng": ("unseeded_rng", "src/repro/fixture_mod.py", [10, 11, 12, 13]),
    "modelled-clock-purity": (
        "clock_purity",
        "src/repro/fixture_mod.py",
        [9, 10, 11, 12],
    ),
    "mutate-must-invalidate": (
        "mutate_invalidate",
        "src/repro/fixture_mod.py",
        [15, 18, 21, 24, 27, 39, 51],
    ),
    "report-accounting-completeness": (
        "report_accounting",
        "src/repro/fixture_mod.py",
        [10, 24],
    ),
    "error-taxonomy": ("error_taxonomy", "src/repro/fixture_mod.py", [6, 8, 10]),
    "unused-import": ("unused_import", "src/repro/fixture_mod.py", [3, 5, 6]),
}


def _module(relpath: str, source: str) -> ModuleUnderLint:
    return ModuleUnderLint(
        relpath=relpath,
        dotted=relpath.removeprefix("src/").removesuffix(".py").replace("/", "."),
        source=source,
        tree=ast.parse(source),
    )


def _run_rule(rule_name: str, relpath: str, source: str):
    all_rules()  # ensure the rule modules are imported/registered
    rule = RULES[rule_name]
    module = _module(relpath, source)
    assert rule.applies_to(module), f"{rule_name} should apply to {relpath}"
    return rule.check(module)


# --------------------------------------------------------------------------
# fixture corpus: one firing and one clean snippet per rule
# --------------------------------------------------------------------------


@pytest.mark.parametrize("rule_name", sorted(FIXTURE_TABLE))
def test_rule_fires_on_fixture(rule_name):
    stem, relpath, expected_lines = FIXTURE_TABLE[rule_name]
    source = (FIXTURES / f"{stem}_firing.py").read_text()
    findings = _run_rule(rule_name, relpath, source)
    assert sorted(f.line for f in findings) == expected_lines
    assert all(f.rule == rule_name for f in findings)
    assert all(f.path == relpath for f in findings)


@pytest.mark.parametrize("rule_name", sorted(FIXTURE_TABLE))
def test_rule_quiet_on_clean_fixture(rule_name):
    stem, relpath, _ = FIXTURE_TABLE[rule_name]
    source = (FIXTURES / f"{stem}_clean.py").read_text()
    findings = _run_rule(rule_name, relpath, source)
    assert findings == [], [f.render() for f in findings]


def test_registry_has_exactly_the_documented_rules():
    names = tuple(rule.name for rule in all_rules())
    assert sorted(names) == sorted(EXPECTED_RULES)
    for rule in all_rules():
        assert rule.contract and rule.rationale


def test_mutate_rule_counts_mutator_calls():
    """``self._drained.add(core)`` changes the rotation as surely as an
    assignment: without the hook it is flagged, with it it is clean."""
    firing = (FIXTURES / "route_invalidate_firing.py").read_text()
    findings = _run_rule("mutate-must-invalidate", "src/repro/fixture_mod.py", firing)
    assert sorted(f.line for f in findings) == [15, 18, 21, 22]
    assert all("invalidate_routes" in f.message for f in findings)
    clean = (FIXTURES / "route_invalidate_clean.py").read_text()
    assert _run_rule("mutate-must-invalidate", "src/repro/fixture_mod.py", clean) == []


def test_cluster_rotation_changes_must_invalidate_routes():
    """The cluster's own drain/restore/add_core, stripped of their
    invalidate_routes() calls, are each flagged."""
    relpath = "src/repro/api/cluster.py"
    source = (REPO_ROOT / relpath).read_text()
    assert _run_rule("mutate-must-invalidate", relpath, source) == []
    stripped = source.replace("self.invalidate_routes()", "pass")
    findings = _run_rule("mutate-must-invalidate", relpath, stripped)
    assert {f.message.split(" ")[0] for f in findings} == {
        "PhotonicCluster.drain",
        "PhotonicCluster.restore",
        "PhotonicCluster.add_core",
    }


def test_mutate_contract_lists_exactly_the_registered_attributes():
    """The contract ``repro lint --catalog`` prints names the registry's
    keys, so a renamed key cannot leave stale text behind."""
    from repro.lint.rules_telemetry import INVALIDATION_REGISTRY

    all_rules()
    contract = RULES["mutate-must-invalidate"].contract
    listed = contract[contract.index("(") + 1 : contract.index(")")]
    assert listed.split(", ") == list(INVALIDATION_REGISTRY)


def test_rule_scoping():
    all_rules()
    out_of_scope = _module("src/repro/core/tensor_core.py", "x = 1\n")
    assert not RULES["hot-path-telemetry-guard"].applies_to(out_of_scope)
    traffic = _module("src/repro/traffic/engine.py", "x = 1\n")
    assert RULES["hot-path-telemetry-guard"].applies_to(traffic)
    profiling = _module("src/repro/telemetry/profiling.py", "x = 1\n")
    assert not RULES["modelled-clock-purity"].applies_to(profiling)
    package_init = _module("src/repro/api/__init__.py", "x = 1\n")
    assert not RULES["unused-import"].applies_to(package_init)
    outside_tree = _module("tests/test_something.py", "x = 1\n")
    assert not RULES["error-taxonomy"].applies_to(outside_tree)
    # ... but the determinism rules see everything they are pointed at.
    assert RULES["no-unseeded-rng"].applies_to(outside_tree)


def test_findings_render_and_roundtrip():
    source = (FIXTURES / "error_taxonomy_firing.py").read_text()
    finding = _run_rule("error-taxonomy", "src/repro/fixture_mod.py", source)[0]
    assert finding.render().startswith("src/repro/fixture_mod.py:6:9: error")
    assert "[error-taxonomy]" in finding.render()
    assert finding.key == f"error-taxonomy::src/repro/fixture_mod.py::{finding.message}"
    payload = finding.to_dict()
    assert payload["rule"] == "error-taxonomy"
    assert payload["severity"] == "error"
    assert payload["line"] == 6


# --------------------------------------------------------------------------
# suppressions
# --------------------------------------------------------------------------

_MARKER_COMMENT = "# repro-lint: disable={rules} -- {reason}"


def test_valid_suppression_covers_and_marks_used():
    line = "x = 1  " + _MARKER_COMMENT.format(
        rules="no-unseeded-rng,error-taxonomy", reason="fixture reason"
    )
    scanned = scan_suppressions("src/repro/x.py", line + "\n")
    assert scanned.syntax_findings == []
    marker = scanned.by_line[1]
    assert marker.rules == ("no-unseeded-rng", "error-taxonomy")
    assert marker.reason == "fixture reason"
    assert not marker.used
    assert scanned.covers(1, "error-taxonomy")
    assert marker.used
    assert not scanned.covers(1, "unused-import")
    assert not scanned.covers(2, "error-taxonomy")


def test_suppression_without_reason_is_a_syntax_finding():
    scanned = scan_suppressions(
        "src/repro/x.py", "x = 1  # repro-lint: disable=no-unseeded-rng\n"
    )
    assert scanned.by_line == {}
    (finding,) = scanned.syntax_findings
    assert finding.rule == SUPPRESSION_SYNTAX
    assert finding.severity == Severity.ERROR
    assert "reason" in finding.message


def test_malformed_marker_is_a_syntax_finding():
    scanned = scan_suppressions("src/repro/x.py", "x = 1  # repro-lint: enable=foo\n")
    (finding,) = scanned.syntax_findings
    assert finding.rule == SUPPRESSION_SYNTAX
    assert "malformed" in finding.message


def test_docstring_describing_the_marker_does_not_activate():
    source = '"""Use repro-lint: disable=no-unseeded-rng -- like this."""\nx = 1\n'
    scanned = scan_suppressions("src/repro/x.py", source)
    assert scanned.by_line == {}
    assert scanned.syntax_findings == []


# --------------------------------------------------------------------------
# runner end-to-end over a throwaway tree
# --------------------------------------------------------------------------

_VIOLATING = "import numpy as np\n\n\ndef draw():\n    return np.random.rand(4)\n"
_CLEAN = (
    "import numpy as np\n\n\ndef draw(seed):\n"
    "    return np.random.default_rng(seed).normal(0.0, 1.0, 4)\n"
)


def _tmp_repo(tmp_path: Path, source: str) -> Path:
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(source)
    return tmp_path


def test_run_lint_finds_violation(tmp_path):
    root = _tmp_repo(tmp_path, _VIOLATING)
    run = run_lint(root)
    assert run.failed
    assert run.files_checked == 1
    (finding,) = run.findings
    assert finding.rule == "no-unseeded-rng"
    assert finding.path == "src/pkg/mod.py"
    assert "-> 1 finding" in run.render()


def test_run_lint_clean_tree(tmp_path):
    root = _tmp_repo(tmp_path, _CLEAN)
    run = run_lint(root)
    assert not run.failed
    assert run.findings == []
    assert "-> 0 findings" in run.render()


def test_inline_suppression_silences_and_stale_marker_warns(tmp_path):
    suppressed = _VIOLATING.replace(
        "np.random.rand(4)",
        "np.random.rand(4)  # repro-lint: disable=no-unseeded-rng -- fixture",
    )
    run = run_lint(_tmp_repo(tmp_path, suppressed))
    assert run.findings == [] and not run.failed

    stale = _CLEAN.replace(
        "normal(0.0, 1.0, 4)",
        "normal(0.0, 1.0, 4)  # repro-lint: disable=no-unseeded-rng -- fixture",
    )
    run = run_lint(_tmp_repo(tmp_path / "stale", stale))
    (finding,) = run.findings
    assert finding.rule == UNUSED_SUPPRESSION
    assert finding.severity == Severity.WARNING
    assert run.failed  # stale exemptions fail the run too


def test_baseline_roundtrip_grandfathers_findings(tmp_path):
    root = _tmp_repo(tmp_path, _VIOLATING)
    baseline = root / BASELINE_FILE
    first = run_lint(root, baseline_path=baseline)
    assert first.failed
    assert write_baseline(baseline, first) == 1
    assert load_baseline(baseline) == {first.findings[0].key}
    second = run_lint(root, baseline_path=baseline)
    assert not second.failed
    assert second.findings == []
    assert [f.key for f in second.baselined] == [first.findings[0].key]
    assert "(baselined)" in second.render()


def test_baseline_rejects_garbage(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_baseline(bad)


def test_unparseable_file_is_a_parse_error_finding(tmp_path):
    root = _tmp_repo(tmp_path, "def broken(:\n")
    run = run_lint(root)
    (finding,) = run.findings
    assert finding.rule == PARSE_ERROR
    assert run.failed


def test_discover_files_explicit_paths(tmp_path):
    root = _tmp_repo(tmp_path, _CLEAN)
    assert discover_files(root) == [root / "src" / "pkg" / "mod.py"]
    assert discover_files(root, ["src/pkg/mod.py"]) == [root / "src" / "pkg" / "mod.py"]
    assert discover_files(root, ["src"]) == [root / "src" / "pkg" / "mod.py"]
    with pytest.raises(ConfigurationError):
        discover_files(root, ["no/such/file.py"])


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------


def test_cli_lint_reports_and_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(_tmp_repo(tmp_path, _VIOLATING))
    assert main(["lint"]) == 1
    out = capsys.readouterr().out
    assert "no-unseeded-rng" in out and "-> 1 finding" in out


def test_cli_lint_json_format(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(_tmp_repo(tmp_path, _VIOLATING))
    assert main(["lint", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True
    assert payload["counts_by_rule"] == {"no-unseeded-rng": 1}
    assert payload["findings"][0]["path"] == "src/pkg/mod.py"


def test_cli_write_baseline_then_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(_tmp_repo(tmp_path, _VIOLATING))
    assert main(["lint", "--write-baseline"]) == 0
    assert "baseline written" in capsys.readouterr().out
    assert (tmp_path / BASELINE_FILE).exists()
    assert main(["lint"]) == 0
    assert "(baselined)" in capsys.readouterr().out


def test_cli_catalog_lists_every_rule(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "--catalog"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_RULES:
        assert name in out


def test_cli_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(_tmp_repo(tmp_path, _CLEAN))
    assert main(["lint", "--format", "yaml"]) == 2
    assert main(["lint", "--no-such-flag"]) == 2
    assert main(["lint", "no/such/file.py"]) == 2
    capsys.readouterr()


# --------------------------------------------------------------------------
# acceptance: the repo itself is lint-clean
# --------------------------------------------------------------------------


def test_repo_is_lint_clean(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint"]) == 0
    assert "-> 0 findings" in capsys.readouterr().out


# --------------------------------------------------------------------------
# regressions for the violations the rules originally surfaced
# --------------------------------------------------------------------------


def test_previously_violating_modules_stay_clean():
    # session.py read the host clock directly and used telemetry
    # unguarded; constants.py raised bare ValueError.
    run = run_lint(
        REPO_ROOT,
        paths=["src/repro/api/session.py", "src/repro/constants.py"],
    )
    assert run.findings == [], [f.render() for f in run.findings]


def test_wall_clock_is_the_sanctioned_host_clock():
    from repro.telemetry import wall_clock

    first, second = wall_clock(), wall_clock()
    assert isinstance(first, float)
    assert second >= first


def test_unit_conversion_error_stays_in_both_hierarchies():
    from repro.constants import watts_to_dbm

    with pytest.raises(UnitConversionError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):  # pre-taxonomy callers keep working
        watts_to_dbm(-1.0)
    assert issubclass(UnitConversionError, ReproError)


def test_flush_telemetry_is_a_noop_without_a_binding():
    from repro.api.session import PhotonicSession

    class _Uninstrumented:
        telemetry = None

    # With telemetry=None the path must return before touching the
    # report/future arguments at all — that is the zero-overhead deal.
    PhotonicSession._emit_flush_telemetry(_Uninstrumented(), None, [])
