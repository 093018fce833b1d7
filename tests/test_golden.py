"""Byte-for-byte CLI outputs for the sample posets.

Each case runs one subcommand in-process on every file in sample_posets/
and compares stdout, stderr, the exit code and any DOT file with the
copies under tests/golden/. To rewrite them from the current source:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import tempfile
from pathlib import Path

import pytest

from posetdual import run_cli

SAMPLES = Path(__file__).resolve().parent.parent / "sample_posets"
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (subcommand, arguments after the file, whether it writes --dot)
CASES = {
    "dual": ("dual", [], False),
    "irreducibles": ("irreducibles", [], False),
    "primes": ("primes", [], False),
    "second-dual-brute-force": ("second-dual", ["--brute-force"], False),
    "verify-brute-force": ("verify", ["--brute-force"], False),
    "hasse": ("hasse", [], False),
    "verify-dot": ("verify", [], True),
    "dual-dot-label-embeddings": ("dual", ["--label-embeddings"], True),
}


def run_case(sample, case):
    """(stdout, stderr, exit code, DOT text or None) of one case."""
    command, extra, writes_dot = CASES[case]
    argv = [command, str(sample), *extra]
    with tempfile.TemporaryDirectory() as tmp:
        dot_path = Path(tmp) / "out.dot"
        if writes_dot:
            argv += ["--dot", str(dot_path)]
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(argv, out=out, err=err)
        dot = dot_path.read_text() if writes_dot else None
    return out.getvalue(), err.getvalue(), code, dot


def write_goldens():
    manifest = {}
    for sample in sorted(SAMPLES.glob("*.poset")):
        folder = GOLDEN / sample.stem
        folder.mkdir(parents=True, exist_ok=True)
        for case in CASES:
            stdout, stderr, code, dot = run_case(sample, case)
            (folder / f"{case}.stdout").write_text(stdout)
            if dot is not None:
                (folder / f"{case}.dot").write_text(dot)
            manifest[f"{sample.stem}/{case}"] = {"exit": code, "stderr": stderr}
    (GOLDEN / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    )


@pytest.mark.parametrize("stem", sorted(p.stem for p in SAMPLES.glob("*.poset")))
def test_cli_outputs_match_golden(stem):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    folder = GOLDEN / stem
    for case in CASES:
        stdout, stderr, code, dot = run_case(SAMPLES / f"{stem}.poset", case)
        expected = manifest[f"{stem}/{case}"]
        assert (code, stderr) == (expected["exit"], expected["stderr"]), case
        assert stdout == (folder / f"{case}.stdout").read_text(), case
        if dot is not None:
            assert dot == (folder / f"{case}.dot").read_text(), case


if __name__ == "__main__":
    write_goldens()
