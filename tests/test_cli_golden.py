"""Byte-identity of the shipped command line output.

tests/cli_golden.json holds the sha256 of the --no-timestamp JSON report,
and of the CSV where the command has one, for every command on every
shipped config, plus example1.  A change that alters any of these bytes
fails here; when the change of output is intended, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from filtmult import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
COMMANDS = ("colength", "multiplicity", "mixed", "okounkov", "verify")


def cases():
    """(key, argv) for each command, config and output format."""
    out = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        for cmd in COMMANDS:
            for fmt in ("json",) if cmd == "verify" else ("json", "csv"):
                argv = [cmd, "--config", str(path), "--no-timestamp", "--format", fmt]
                out.append((f"{cmd} {path.name} {fmt}", argv))
    out.append(("example1 json", ["example1", "--no-timestamp"]))
    return out


def digest(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, f"{argv} exited {rc}"
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(k for k, _ in cases())


@pytest.mark.parametrize("key,argv", cases(), ids=[k for k, _ in cases()])
def test_output_is_byte_identical(key, argv):
    assert digest(argv) == json.loads(GOLDEN.read_text())[key]


if __name__ == "__main__":
    table = {key: digest(argv) for key, argv in cases()}
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
