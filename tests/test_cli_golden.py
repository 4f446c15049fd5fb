"""Replay the recorded CLI corpus in-process: exit codes and stdout bytes.

covbench/golden/cli.json holds one list of variants per command slot; each
variant records the argv, the exit code and the sha256 of stdout.  Every
variant must reproduce both exactly.
"""

import hashlib
import json
import os

import pytest

from covercalc import cli

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "covbench", "golden", "cli.json")


def _variants():
    with open(GOLDEN) as f:
        slots = json.load(f)["items"]
    return [v for slot in slots for v in slot]


@pytest.mark.parametrize("variant", _variants(),
                         ids=lambda v: " ".join(v["argv"]))
def test_cli_golden(capsys, variant):
    code = cli.main(list(variant["argv"]))
    out = capsys.readouterr().out.encode()
    assert code == variant["exit"]
    assert hashlib.sha256(out).hexdigest() == variant["stdout_sha256"]
