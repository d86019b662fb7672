"""The output digest script: its lines repeat, it covers every subcommand,
and at bound 30 it prints the lines committed in `output_digests_30.txt`."""

import importlib.util
from pathlib import Path
import re
import sys

import pytest

from qrationals import cli

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
COMMITTED = Path(__file__).with_name("output_digests_30.txt")


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_and_name_every_subcommand_but_verify(digests):
    lines = digests.digest_lines(6)
    assert lines == digests.digest_lines(6)
    commands = {line.split()[0] for line in lines} - {"refusals"}
    assert commands == set(cli._COMMANDS) - {"verify"}
    assert all(int(line.split("\t")[1]) > 0 for line in lines)


def test_output_bytes_equal_the_committed_digests(digests, monkeypatch):
    # A change of output on purpose regenerates the file, by the command in
    # its header, and names the families it changed.
    text = COMMITTED.read_text()
    header = "".join(line for line in text.splitlines() if line.startswith("#"))
    bound = int(re.search(r"--bound (\d+)", header).group(1))
    made_on = re.search(r"Python (\d+\.\d+)", header).group(1)
    running = "%d.%d" % sys.version_info[:2]
    assert running == made_on, "%s was made on Python %s, and this is Python %s" % (COMMITTED.name, made_on, running)
    want = dict(line.split("\t", 1) for line in text.splitlines() if not line.startswith("#"))
    monkeypatch.setenv("COLUMNS", "80")  # as the script's main sets it
    got = dict(line.split("\t", 1) for line in digests.digest_lines(bound))
    differ = [family for family in {**want, **got} if want.get(family) != got.get(family)]
    assert not differ, "output bytes differ from %s in: %s" % (COMMITTED.name, "; ".join(differ))
