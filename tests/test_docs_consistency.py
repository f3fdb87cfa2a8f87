"""Documentation consistency guards.

Every module, benchmark, test file, and example that DESIGN.md /
README.md / EXPERIMENTS.md reference must actually exist, and the README's
embedded quickstart snippet must run.
"""

import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name):
    with open(os.path.join(REPO, name)) as handle:
        return handle.read()


class TestReferencedPathsExist:
    @pytest.mark.parametrize("doc", ["DESIGN.md", "README.md",
                                     "EXPERIMENTS.md"])
    def test_benchmark_files_exist(self, doc):
        text = read(doc)
        for match in re.findall(r"benchmarks/test_[a-z0-9_]+\.py", text):
            assert os.path.exists(os.path.join(REPO, match)), match

    @pytest.mark.parametrize("doc", ["DESIGN.md", "README.md",
                                     "EXPERIMENTS.md"])
    def test_test_files_exist(self, doc):
        text = read(doc)
        for match in re.findall(
            r"(?<![\w/])tests/(?:[a-z0-9_]+/)*test_[a-z0-9_]+\.py", text
        ):
            assert os.path.exists(os.path.join(REPO, match)), match

    @pytest.mark.parametrize("doc", ["DESIGN.md", "README.md"])
    def test_modules_exist(self, doc):
        text = read(doc)
        for match in set(re.findall(r"repro\.[a-z_.]+[a-z]", text)):
            parts = match.split(".")
            # Resolve to a module path; tolerate attribute references
            # by checking successively shorter prefixes.
            for depth in range(len(parts), 1, -1):
                candidate = os.path.join(REPO, "src", *parts[:depth])
                if os.path.exists(candidate + ".py") or os.path.isdir(candidate):
                    break
            else:
                pytest.fail(f"{doc} references missing module {match}")

    def test_examples_listed_exist(self):
        text = read("README.md") + read("DESIGN.md")
        for match in set(re.findall(r"examples/[a-z_]+\.py", text)):
            assert os.path.exists(os.path.join(REPO, match)), match

    def test_docs_language_reference_exists(self):
        assert os.path.exists(os.path.join(REPO, "docs", "LANGUAGE.md"))


class TestReadmeQuickstart:
    def test_embedded_snippet_runs(self):
        """Extract the README's first python code block and exec it."""
        text = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README must contain a python quickstart"
        snippet = blocks[0]
        namespace = {}
        exec(compile(snippet, "README-quickstart", "exec"), namespace)
        system = namespace["system"]
        assert system.agent.iterations == 1

    def test_cli_commands_documented_match_parser(self):
        """Every subcommand is shown as ``mantis <cmd>`` in the README,
        and every ``mantis <cmd>`` there is a real subcommand."""
        from repro.cli import build_parser

        parser = build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                subcommands |= set(action.choices)
        documented = set(re.findall(
            r"(?:^|`)mantis ([a-z][\w-]*)", read("README.md"), re.MULTILINE
        ))
        assert documented == subcommands
