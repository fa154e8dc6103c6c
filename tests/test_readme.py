"""README's examples hold: each `$ circ-elgamal ...` line of the CLI
section runs in process, in order, in one temporary directory, and
prints every `key=value` line shown under it (the `*_ms` timings
aside) with exit code 0, or N where a `# exits N` comment says so; the
Library example runs as it is.
"""

import re
import shlex
from pathlib import Path

from test_cli import kv, run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def cli_examples():
    """(argv, expected exit code, expected key=value pairs) per command."""
    examples = []
    for block in section("CLI").split("```")[1::2]:
        for line in block.splitlines():
            if line.startswith("$ circ-elgamal "):
                exits = re.search(r"# exits (\d+)", line)
                argv = shlex.split(line[len("$ circ-elgamal "):], comments=True)
                examples.append((argv, int(exits[1]) if exits else 0, {}))
            elif examples and "=" in line:
                key, _, value = line.partition("=")
                if not key.endswith("_ms"):
                    examples[-1][2][key] = value
    return examples


def test_readme_cli_examples(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) == 11
    for argv, exits, shown in examples:
        code, stdout, stderr = run_cli(argv)
        assert code == exits, (argv, stderr)
        got = kv(stdout)
        assert {k: got.get(k) for k in shown} == shown, argv


def test_readme_library_example():
    (code,) = re.findall(r"```python\n(.*?)```", section("Library example"), re.S)
    exec(code, {})
