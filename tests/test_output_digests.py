"""The output digest script: its lines repeat, and it covers every subcommand."""

import importlib.util
from pathlib import Path

from qrationals import cli

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def test_digests_repeat_and_name_every_subcommand_but_verify():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    lines = digests.digest_lines(6)
    assert lines == digests.digest_lines(6)
    commands = {line.split()[0] for line in lines} - {"refusals"}
    assert commands == set(cli._COMMANDS) - {"verify"}
    assert all(int(line.split("\t")[1]) > 0 for line in lines)
