import io
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import posetdual
from posetdual import LemmaViolationError, run_cli
from posetdual import cli as cli_mod
from posetdual import dual as dual_mod

SAMPLES = Path(__file__).resolve().parent.parent / "sample_posets"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_verify_chain_passes():
    code, out, err = run(["verify", str(SAMPLES / "chain2.poset"), "--brute-force"])
    assert code == 0
    assert "result: pass" in out
    assert "second_dual_brute_force: pass" in out
    assert err == ""


def test_verify_reports_are_byte_identical():
    argv = ["verify", str(SAMPLES / "diamond.poset"), "--brute-force"]
    assert run(argv) == run(argv)


def test_dual_emits_dot(tmp_path):
    dot = tmp_path / "out.dot"
    code, out, _ = run(
        ["dual", str(SAMPLES / "antichain2.poset"), "--dot", str(dot)]
    )
    assert code == 0
    assert "members: 4" in out
    text = dot.read_text()
    assert text.count("->") == 4


def test_corruption_harness_exits_one():
    code, out, _ = run(["verify", str(SAMPLES / "chain2.poset"), "--corrupt"])
    assert code == 1
    assert "result: fail" in out
    assert "counterexamples:" in out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("not a poset file\n")
    code, _, err = run(["verify", str(bad)])
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_code():
    code, _, err = run(["verify", "does-not-exist.poset"])
    assert code == 2


def test_non_ascii_file_exit_code(tmp_path):
    f = tmp_path / "accent.poset"
    f.write_text("poset caf\u00e9\nelements: a\nrelations:\n", encoding="utf-8")
    code, out, err = run(["verify", str(f)])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_size_cap_exit_code(tmp_path):
    f = tmp_path / "anti.poset"
    names = " ".join(f"e{i}" for i in range(10))
    f.write_text(f"poset big\nelements: {names}\nrelations:\n")
    code, _, err = run(["dual", str(f), "--max-members", "100"])
    assert code == 3


def test_size_cap_error_names_the_count(tmp_path):
    f = tmp_path / "anti.poset"
    names = " ".join(f"e{i}" for i in range(40))
    f.write_text(f"poset big\nelements: {names}\nrelations:\n")
    code, out, err = run(["dual", str(f), "--max-members", "100"])
    assert code == 3
    assert out == ""
    assert err == "error: dual lattice has 1099511627776 members, cap 100\n"


def test_second_dual_honours_size_cap(tmp_path):
    f = tmp_path / "anti.poset"
    names = " ".join(f"e{i}" for i in range(5))
    f.write_text(f"poset anti\nelements: {names}\nrelations:\n")
    code, out, err = run(["second-dual", str(f), "--max-members", "10"])
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_subcommands_reject_flags_they_do_not_read():
    with pytest.raises(SystemExit) as exc:
        run(["hasse", str(SAMPLES / "chain2.poset"), "--brute-force"])
    assert exc.value.code == 2


def test_parser_is_reused_without_leaking_state(tmp_path, monkeypatch):
    seen = []
    real = cli_mod._COMMANDS["dual"]

    def spy(args, out):
        seen.append(args.dot)
        return real(args, out)

    monkeypatch.setitem(cli_mod._COMMANDS, "dual", spy)
    dot = tmp_path / "out.dot"
    chain2 = str(SAMPLES / "chain2.poset")
    assert run(["dual", chain2, "--dot", str(dot)])[0] == 0
    assert run(["dual", chain2])[0] == 0
    assert seen == [str(dot), None]
    assert cli_mod._build_parser() is cli_mod._build_parser()

    with pytest.raises(SystemExit) as exc:
        run(["hasse", chain2, "--brute-force"])
    assert exc.value.code == 2
    code, out, err = run(["verify", chain2])
    assert code == 0 and "result: pass" in out and err == ""


def test_random_subcommand_deterministic(tmp_path):
    a = run(["random", "5", "--seed", "7", "--density", "0.5"])
    b = run(["random", "5", "--seed", "7", "--density", "0.5"])
    assert a == b and a[0] == 0
    out_file = tmp_path / "r.poset"
    code, _, _ = run(
        ["random", "5", "--seed", "7", "--density", "0.5", "--out", str(out_file)]
    )
    assert code == 0
    assert out_file.read_text() == a[1]
    # the emitted file is itself a valid input
    code, out, _ = run(["verify", str(out_file), "--brute-force"])
    assert code == 0


@pytest.mark.parametrize(
    "argv", [["random", "-3"], ["random", "3", "--density", "7"]]
)
def test_random_rejects_out_of_range_arguments(argv, capsys):
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, out=out, err=io.StringIO())
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["my poset", "a#b", "caf\u00e9", "a\n"])
def test_random_rejects_names_the_parser_rejects(name, tmp_path, capsys):
    out_file = tmp_path / "f.poset"
    with pytest.raises(SystemExit) as exc:
        run(["random", "2", "--name", name, "--out", str(out_file)])
    assert exc.value.code == 2
    assert not out_file.exists()
    assert "--name" in capsys.readouterr().err


def test_random_name_round_trips(tmp_path):
    out_file = tmp_path / "r.poset"
    code, _, _ = run(["random", "3", "--name", "my_poset_9", "--out", str(out_file)])
    assert code == 0
    code, out, _ = run(["verify", str(out_file)])
    assert code == 0 and "name: my_poset_9" in out


@pytest.mark.parametrize("command", ["dual", "irreducibles"])
def test_lemma_violation_exits_one(command, monkeypatch):
    def broken(lattice):
        raise LemmaViolationError("meet-irreducible member has no witness")

    monkeypatch.setattr(dual_mod, "irreducibles", broken)
    code, out, err = run([command, str(SAMPLES / "vee.poset")])
    assert code == 1
    assert out == ""
    assert err == "error: meet-irreducible member has no witness\n"


def test_hasse_to_stdout():
    code, out, _ = run(["hasse", str(SAMPLES / "chain3.poset")])
    assert code == 0
    assert '"a" -> "b";' in out and '"b" -> "c";' in out


def test_second_dual_subcommand():
    code, out, _ = run(
        ["second-dual", str(SAMPLES / "vee.poset"), "--brute-force"]
    )
    assert code == 0
    assert "round_trip: true" in out
    assert "brute_force: true" in out


def test_irreducibles_and_primes_subcommands():
    code, out, _ = run(["irreducibles", str(SAMPLES / "antichain2.poset")])
    assert code == 0
    assert "meet_irreducibles:" in out
    code, out, _ = run(["primes", str(SAMPLES / "antichain2.poset")])
    assert code == 0
    assert "pair_count: 2" in out


def run_module(module):
    # The child gets src on its path too, however the session found it.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", module, "verify",
         str(SAMPLES / "singleton.poset"), "--brute-force"],
        capture_output=True,
        text=True,
        env=env,
    )


def test_console_entry_point():
    result = run_module("posetdual.cli")
    assert result.returncode == 0
    assert "result: pass" in result.stdout


def test_module_entry_point():
    result = run_module("posetdual")
    assert result.returncode == 0
    assert "result: pass" in result.stdout
    assert result.stderr == ""


def test_package_exports_no_modules():
    for name in posetdual.__all__:
        assert not isinstance(getattr(posetdual, name), types.ModuleType), name
