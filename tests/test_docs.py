"""The documentation's code blocks must actually run.

Extracts every ```python block from README.md and docs/TUTORIAL.md and
executes them — README blocks independently, TUTORIAL blocks cumulatively
in one namespace (the tutorial is a REPL session).  Every
``python -m repro …`` line of their ```bash blocks must parse against
the CLI's argument parser.  Documentation that drifts from the API or
the CLI fails the suite.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def python_blocks(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def cli_invocations(path: Path) -> list[tuple[str, list[str]]]:
    """``(line, argv)`` for every ``python -m repro …`` command in the
    ```bash blocks of ``path``: ``\\`` continuations joined, and the
    argv cut at a trailing ``# comment``, pipe or redirection."""
    text = path.read_text(encoding="utf-8")
    found = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            _, marker, command = line.partition("python -m repro")
            if not marker:
                continue
            lexer = shlex.shlex(command, posix=True,
                                punctuation_chars="|&;<>")
            lexer.whitespace_split = True
            argv = []
            for token in lexer:
                if token[0] in "|&;<>":
                    break
                argv.append(token)
            found.append((line.strip(), argv))
    return found


class TestReadme:
    def test_readme_exists_and_has_blocks(self):
        blocks = python_blocks(ROOT / "README.md")
        assert blocks, "README must contain python examples"

    @pytest.mark.parametrize("index,block", list(enumerate(
        python_blocks(ROOT / "README.md"))))
    def test_readme_block_runs(self, index, block):
        namespace: dict = {}
        exec(compile(block, f"README.md[{index}]", "exec"), namespace)


class TestTutorial:
    def test_tutorial_runs_cumulatively(self, capsys):
        blocks = python_blocks(ROOT / "docs" / "TUTORIAL.md")
        assert len(blocks) >= 5
        namespace: dict = {}
        for index, block in enumerate(blocks):
            exec(compile(block, f"TUTORIAL.md[{index}]", "exec"), namespace)
        # the tutorial's assertions are inside the blocks; also sanity-
        # check the narrative claims it prints
        output = capsys.readouterr().out
        assert "a_out" in output or "41" in output


class TestShellInvocations:
    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md"])
    def test_cli_invocations_parse(self, doc, capsys):
        invocations = cli_invocations(ROOT / doc)
        assert invocations, f"{doc} must contain python -m repro examples"
        parser = build_parser()
        rejected = []
        for line, argv in invocations:
            try:
                parser.parse_args(argv)
            except SystemExit:
                error = capsys.readouterr().err.strip().splitlines()[-1]
                rejected.append(f"{line}\n    {error}")
        assert not rejected, "\n".join(rejected)


class TestDocsMentionRealFiles:
    def test_design_md_examples_exist(self):
        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for match in re.findall(r"benchmarks/bench_\w+\.py", text):
            assert (ROOT / match).exists(), match

    def test_readme_examples_exist(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        for match in re.findall(r"examples/\w+\.py", text):
            assert (ROOT / match).exists(), match

    def test_experiments_md_references_harness(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert "bench_output.txt" in text
