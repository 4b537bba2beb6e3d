"""Documentation hygiene: links resolve, CLI examples parse.

Wraps ``tools/check_docs.py`` (the CI ``docs`` job) so a stale flag or
broken link fails the test suite too, and pins that the checker itself
actually detects problems.
"""

import importlib.util
from pathlib import Path

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestRepositoryDocs:
    def test_all_docs_clean(self):
        errors = check_docs.run_checks(REPO_ROOT)
        assert errors == []

    def test_checks_cover_the_doc_set(self):
        names = {p.name for p in check_docs.doc_files(REPO_ROOT)}
        assert {"README.md", "EXPERIMENTS.md", "architecture.md",
                "observability.md"} <= names


class TestCheckerDetects:
    def test_broken_link_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](nope/absent.md)\n")
        errors = check_docs.check_links(doc, tmp_path)
        assert len(errors) == 1 and "absent.md" in errors[0]

    def test_external_links_skipped(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[a](https://example.com) [b](#anchor)\n")
        assert check_docs.check_links(doc, tmp_path) == []

    def test_bad_invocation_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```bash\nrepro run ra --no-such-flag\n```\n")
        errors = check_docs.check_cli_invocations(doc, tmp_path,
                                                  build_parser)
        assert len(errors) == 1 and "--no-such-flag" in errors[0]

    def test_good_invocation_passes(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```bash\n"
                       "PYTHONPATH=src python -m repro run ra --oversub 1.5"
                       "  # comment\n"
                       "repro inspect ev.jsonl --top 3\n"
                       "```\n")
        assert check_docs.check_cli_invocations(doc, tmp_path,
                                                build_parser) == []

    def test_non_repro_lines_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```bash\npip install -e .\nmake lint\n```\n")
        assert check_docs.check_cli_invocations(doc, tmp_path,
                                                build_parser) == []

    def test_missing_example_script_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```bash\npython examples/ghost.py\n```\n")
        errors = check_docs.check_example_scripts(doc, tmp_path)
        assert len(errors) == 1 and "ghost.py" in errors[0]


class TestYamlBlocks:
    def test_invalid_scenario_block_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```yaml\nworkload: ra\nbogus_key: 1\n```\n")
        errors = check_docs.check_yaml_blocks(doc, tmp_path)
        assert len(errors) == 1 and "bogus_key" in errors[0]

    def test_valid_scenario_block_passes(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```yaml\nworkload: ra\noversubscription: 1.4\n```\n")
        assert check_docs.check_yaml_blocks(doc, tmp_path) == []

    def test_broken_inherits_target_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```yaml\ninherits: no_such_base\nworkload: ra\n```\n")
        errors = check_docs.check_yaml_blocks(doc, tmp_path)
        assert len(errors) == 1 and "no_such_base" in errors[0]

    def test_inherits_resolves_against_configs_library(self, tmp_path):
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs" / "base.yaml").write_text(
            "workload: ra\nscale: tiny\n")
        doc = tmp_path / "doc.md"
        doc.write_text("```yaml\ninherits: base\nseed: 1\n```\n")
        assert check_docs.check_yaml_blocks(doc, tmp_path) == []

    def test_skip_marker_exempts_block(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```yaml\n# not-a-scenario\nanything: goes\n```\n")
        assert check_docs.check_yaml_blocks(doc, tmp_path) == []

    def test_non_yaml_blocks_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```json\n{\"bogus\": 1}\n```\n")
        assert check_docs.check_yaml_blocks(doc, tmp_path) == []


class TestKeyReference:
    def test_repo_table_covers_schema(self):
        assert check_docs.check_key_reference(REPO_ROOT) == []

    def test_missing_key_detected(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "scenarios.md").write_text(
            "## Key reference\n\n| key |\n|---|\n| `workload` |\n")
        errors = check_docs.check_key_reference(tmp_path)
        assert any("missing" in e for e in errors)

    def test_stale_row_detected(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        from repro.scenario import SCHEMA
        rows = "\n".join(f"| `{k}` |" for k in SCHEMA)
        (docs / "scenarios.md").write_text(
            f"## Key reference\n\n| key |\n|---|\n{rows}\n"
            "| `policy.retired_knob` |\n")
        errors = check_docs.check_key_reference(tmp_path)
        assert errors == ["docs/scenarios.md: key reference row "
                          "`policy.retired_knob` is not in the schema"]

    def test_reworded_row_detected(self, tmp_path):
        """Every byte of the table is the schema's: a reworded meaning
        fails, and the error carries the table to paste in."""
        docs = tmp_path / "docs"
        docs.mkdir()
        table = check_docs.render_key_table()
        reworded = table.replace("root RNG seed", "the seed")
        assert reworded != table
        (docs / "scenarios.md").write_text(
            f"## Key reference\n\n{reworded}\n## Next\n")
        (error,) = check_docs.check_key_reference(tmp_path)
        assert "differs from the schema" in error
        assert error.endswith(table)
