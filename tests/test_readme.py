import argparse
import re
import shlex
from pathlib import Path

import entrocut.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_python_blocks_run(capsys):
    # the library examples run in order, in one namespace, as a reader would paste them
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["db"].C_delta > 0.0


def test_readme_cli_examples_run(capsys):
    block = re.search(r"^```\n(.*?)^```", _command_line_section(),
                      flags=re.MULTILINE | re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("entrocut ")]
    assert len(lines) >= 5
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        capsys.readouterr()
        assert code == 0, line


def test_readme_cli_flag_lists_match_the_parser():
    # the parser is built from a table; a flag it drops or gains shows here
    documented = {cmd: set(re.findall(r"`(--[\w-]+)`", flags)) | {"--config", "--out"}
                  for cmd, flags in re.findall(r"^- `([\w-]+)`: (.*)$", _command_line_section(),
                                               flags=re.MULTILINE)}
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    offered = {cmd: {s for a in p._actions for s in a.option_strings if s.startswith("--")}
               - {"--help"} for cmd, p in sub.choices.items()}
    assert documented == offered
