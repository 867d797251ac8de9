"""Documentation invariants: architecture and modeling coverage.

These keep the docs honest in CI: `docs/ARCHITECTURE.md` must mention
every `src/repro` subpackage, and MODELING.md must document the
cache-key scheme.  Link integrity is lint rule DOC001.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class TestArchitectureDoc:
    def test_every_subpackage_documented(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        packages = sorted(
            p.name for p in (ROOT / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists())
        assert packages  # sanity: the source tree is where we think
        missing = [pkg for pkg in packages if f"`{pkg}/`" not in text]
        assert not missing, f"ARCHITECTURE.md misses packages: {missing}"

    def test_data_flow_names_the_pipeline(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for stage in ("RunKey", "Characterizer", "SweepResult",
                      "JobResult", "ResultCache"):
            assert stage in text


class TestModelingDoc:
    def test_documents_cache_scheme(self):
        text = (ROOT / "docs" / "MODELING.md").read_text()
        for needle in ("fingerprint", "cache", "RunKey", "JobConf",
                       "--no-cache", "cache clear"):
            assert needle in text, f"MODELING.md lacks {needle!r}"

    def test_readme_links_modeling_section(self):
        text = (ROOT / "README.md").read_text()
        assert "docs/MODELING.md" in text
        assert "docs/ARCHITECTURE.md" in text
        assert "--jobs" in text and "--no-cache" in text
