"""Documentation guardrails: docstrings, the docs/ tree, links, freshness.

Runs the same checkers CI uses so documentation failures surface in the
tier-1 suite locally:

* ``tools/check_docstrings.py`` — public-surface docstring presence;
* ``tools/check_docs_links.py`` — every internal link/anchor in README and
  ``docs/*.md`` resolves;
* ``tools/gen_api_docs.py --check`` — the committed ``docs/api.md`` equals
  a fresh render of the public API;

and pins the docs site together: the pages exist, are non-trivial, cover
every CLI subcommand (in both directions: every subcommand is documented
AND every documented subcommand exists), and are linked from the README.
"""

import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_checker():
    return _load_tool("check_docstrings")


class TestDocstringPresence:
    def test_public_surface_is_documented(self):
        checker = _load_checker()
        problems = checker.check_paths(checker.DEFAULT_ROOTS)
        assert problems == [], "\n".join(problems)

    def test_checker_flags_missing_docstrings(self, tmp_path):
        checker = _load_checker()
        bad = tmp_path / "bad.py"
        bad.write_text("def foo():\n    pass\n")
        problems = checker.check_paths([bad])
        assert any("D100" in problem for problem in problems)
        assert any("'foo'" in problem for problem in problems)

    def test_checker_ignores_private_names(self, tmp_path):
        checker = _load_checker()
        ok = tmp_path / "ok.py"
        ok.write_text('"""Module."""\n\ndef _helper():\n    pass\n')
        assert checker.check_paths([ok]) == []


class TestDocsLinks:
    def test_all_internal_links_and_anchors_resolve(self):
        checker = _load_tool("check_docs_links")
        problems = checker.check_paths(checker.default_files())
        assert problems == [], "\n".join(problems)

    def test_checker_flags_broken_file_links(self, tmp_path):
        checker = _load_tool("check_docs_links")
        page = tmp_path / "page.md"
        page.write_text("# Title\n\nsee [other](missing.md) for more\n")
        problems = checker.check_paths([page])
        assert len(problems) == 1 and "missing.md" in problems[0]

    def test_checker_flags_broken_anchors(self, tmp_path):
        checker = _load_tool("check_docs_links")
        target = tmp_path / "target.md"
        target.write_text("# Real Heading (with punctuation!)\n")
        page = tmp_path / "page.md"
        page.write_text(
            "[ok](target.md#real-heading-with-punctuation)\n"
            "[bad](target.md#no-such-heading)\n"
        )
        problems = checker.check_paths([page])
        assert len(problems) == 1 and "no-such-heading" in problems[0]

    def test_checker_ignores_links_inside_code_fences(self, tmp_path):
        checker = _load_tool("check_docs_links")
        page = tmp_path / "page.md"
        page.write_text("```\n[not a link](nowhere.md)\n```\n")
        assert checker.check_paths([page]) == []


class TestApiReference:
    def test_committed_api_page_is_fresh(self):
        generator = _load_tool("gen_api_docs")
        committed = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        assert committed == generator.generate(), (
            "docs/api.md is stale; run `python tools/gen_api_docs.py` and commit"
        )

    def test_api_page_covers_all_four_layers(self):
        page = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        for module in ("repro.store", "repro.engine", "repro.service", "repro.server"):
            assert f"## `{module}`" in page, f"docs/api.md misses {module}"
        for name in ("QueryEngine", "IncrementalEngine", "SACService", "SACServer",
                     "SACClient", "ArtifactStore", "AnswerCache", "BatchResult"):
            assert f"`{name}`" in page, f"docs/api.md misses {name}"


class TestDocsSite:
    PAGES = ("architecture.md", "algorithms.md", "cli.md", "serving.md", "api.md")

    def test_docs_pages_exist_and_are_substantial(self):
        for page in self.PAGES:
            path = REPO_ROOT / "docs" / page
            assert path.is_file(), f"docs/{page} missing"
            assert len(path.read_text().splitlines()) > 30, f"docs/{page} is a stub"

    def test_readme_links_docs_tree(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for page in self.PAGES:
            assert f"docs/{page}" in readme, f"README does not link docs/{page}"

    def test_cli_page_covers_every_subcommand(self):
        from repro.cli import build_parser

        page = (REPO_ROOT / "docs" / "cli.md").read_text()
        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        for name in subparsers.choices:
            assert re.search(rf"`+(repro-sac )?{name}`*", page), (
                f"docs/cli.md does not document the {name!r} subcommand"
            )

    def test_every_documented_subcommand_exists(self):
        """Docs may only name real subcommands — the stale-manual guard.

        Scans every ``repro-sac <word>`` usage across the README and docs
        pages and requires the word to be a subcommand the parser actually
        knows (so renaming or removing a subcommand fails here until every
        mention is updated).
        """
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        known = set(subparsers.choices)
        command = re.compile(r"repro-sac\s+([a-z][a-z0-9-]*)")
        pages = [REPO_ROOT / "README.md"]
        pages.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
        for path in pages:
            text = path.read_text(encoding="utf-8")
            mentions = []
            # Command lines inside fenced blocks...
            fenced = False
            for line in text.splitlines():
                stripped = line.strip()
                if stripped.startswith("```"):
                    fenced = not fenced
                    continue
                if fenced:
                    match = command.match(stripped.lstrip("$ "))
                    if match:
                        mentions.append(match.group(1))
            # ...and inline code spans that are invocations.
            for span in re.findall(r"`([^`\n]+)`", text):
                match = command.match(span.strip())
                if match:
                    mentions.append(match.group(1))
            for name in mentions:
                assert name in known, (
                    f"{path.relative_to(REPO_ROOT)} documents nonexistent "
                    f"subcommand {name!r}"
                )

    def test_architecture_page_names_every_package(self):
        page = (REPO_ROOT / "docs" / "architecture.md").read_text()
        packages = sorted(
            child.name
            for child in (REPO_ROOT / "src" / "repro").iterdir()
            if child.is_dir() and (child / "__init__.py").exists()
        )
        for package in packages:
            assert f"repro.{package}" in page or f"`{package}`" in page, (
                f"docs/architecture.md does not mention package {package!r}"
            )
