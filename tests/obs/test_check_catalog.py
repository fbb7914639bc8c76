"""Tests for tools/check_metric_catalog.py (catalog drift gate)."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_metric_catalog", TOOLS / "check_metric_catalog.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _source_tree(tmp_path, registrations):
    src = tmp_path / "src"
    src.mkdir()
    body = "\n".join(
        f'registry.{kind}(\n    "{name}", "help text."\n)'
        for kind, name in registrations
    )
    (src / "mod.py").write_text(body + "\n")
    return src


def _catalog(tmp_path, names, kind="counter", where="`mod.py`"):
    doc = tmp_path / "observability.md"
    rows = "\n".join(f"| `{n}` | {kind} | {where} | something |" for n in names)
    doc.write_text(
        "# Obs\n\n### Catalog\n\n| metric | kind | where | meaning |\n"
        "| --- | --- | --- | --- |\n" + rows + "\n"
    )
    return doc


class TestScanners:
    def test_finds_multiline_registrations(self, checker, tmp_path):
        src = _source_tree(
            tmp_path,
            [
                ("counter", "repro_a_total"),
                ("gauge", "repro_b"),
                ("histogram", "repro_c_seconds"),
            ],
        )
        found = checker.registered_metrics(src)
        assert set(found) == {"repro_a_total", "repro_b", "repro_c_seconds"}
        assert found["repro_a_total"]  # carries the registering file

    def test_catalog_rows_with_and_without_labels(self, checker, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "| `repro_plain_total` | counter | x | y |\n"
            "| `repro_labelled_total{kind,tier}` | counter | x | y |\n"
            "not a table line with `repro_red_herring_total` mention\n"
        )
        assert checker.catalogued_metrics(doc) == {
            "repro_plain_total": ("counter", "x"),
            "repro_labelled_total": ("counter", "x"),
        }


class TestGate:
    def test_in_sync_passes(self, checker, tmp_path):
        src = _source_tree(tmp_path, [("counter", "repro_x_total")])
        doc = _catalog(tmp_path, ["repro_x_total"])
        assert checker.main(["--source", str(src), "--catalog", str(doc)]) == 0

    def test_unregistered_row_fails(self, checker, tmp_path, capsys):
        src = _source_tree(tmp_path, [("counter", "repro_x_total")])
        doc = _catalog(tmp_path, ["repro_x_total", "repro_gone_total"])
        rc = checker.main(["--source", str(src), "--catalog", str(doc)])
        assert rc == 1
        assert "repro_gone_total" in capsys.readouterr().err

    def test_uncatalogued_metric_fails(self, checker, tmp_path, capsys):
        src = _source_tree(
            tmp_path,
            [("counter", "repro_x_total"), ("gauge", "repro_new_gauge")],
        )
        doc = _catalog(tmp_path, ["repro_x_total"])
        rc = checker.main(["--source", str(src), "--catalog", str(doc)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "repro_new_gauge" in err
        assert "no catalog row" in err


    def test_kind_mismatch_fails(self, checker, tmp_path, capsys):
        src = _source_tree(tmp_path, [("histogram", "repro_peak_bytes")])
        doc = _catalog(tmp_path, ["repro_peak_bytes"], kind="gauge")
        rc = checker.main(["--source", str(src), "--catalog", str(doc)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "repro_peak_bytes is catalogued as 'gauge'" in err
        assert "registered as histogram" in err

    def test_kind_is_first_word_of_cell(self, checker, tmp_path):
        src = _source_tree(tmp_path, [("histogram", "repro_peak_bytes")])
        doc = _catalog(
            tmp_path, ["repro_peak_bytes"], kind="histogram (byte buckets)"
        )
        assert checker.main(["--source", str(src), "--catalog", str(doc)]) == 0

    def test_where_mismatch_fails(self, checker, tmp_path, capsys):
        src = _source_tree(tmp_path, [("counter", "repro_x_total")])
        doc = _catalog(tmp_path, ["repro_x_total"], where="`hgpt/dp.py`")
        rc = checker.main(["--source", str(src), "--catalog", str(doc)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "repro_x_total is catalogued in 'hgpt/dp.py'" in err

    def test_where_matches_path_suffix(self, checker, tmp_path):
        """``where`` names a path under the package: it must match the
        end of the registering file's path, whole components only."""
        pkg = tmp_path / "src" / "pkg" / "core"
        pkg.mkdir(parents=True)
        (pkg / "engine.py").write_text('reg.counter("repro_x_total", "h")\n')
        src = tmp_path / "src"
        ok = _catalog(tmp_path, ["repro_x_total"], where="`core/engine.py`")
        assert checker.main(["--source", str(src), "--catalog", str(ok)]) == 0
        bad = _catalog(tmp_path, ["repro_x_total"], where="`re/engine.py`")
        assert checker.main(["--source", str(src), "--catalog", str(bad)]) == 1


class TestRealRepo:
    def test_checked_in_catalog_is_in_sync(self, checker):
        """The gate CI runs: source registrations match docs rows."""
        assert checker.main([]) == 0
