import io
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import posetdual
from posetdual import (
    BaseMismatchError,
    LemmaViolationError,
    NoWitnessError,
    PosetDualError,
    build_poset,
    emit_lattice_dot,
    enumerate_dual,
    parse_poset,
    run_cli,
)
from posetdual import cli as cli_mod
from posetdual import dot as dot_mod
from posetdual import dual as dual_mod
from posetdual import report as report_mod

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


def test_verify_counts_the_up_sets_once(monkeypatch):
    # enumerate_dual checks its walk against the count, and the report's
    # closure check reads the count the lattice kept.
    calls = []
    count_upsets = dual_mod._count_upsets

    def counted(poset, limit):
        calls.append(limit)
        return count_upsets(poset, limit)

    monkeypatch.setattr(dual_mod, "_count_upsets", counted)
    code, out, _ = run(["verify", str(SAMPLES / "diamond.poset")])
    assert code == 0 and "  dual_lattice_closure: pass\n" in out
    assert calls == [dual_mod.DEFAULT_MAX_MEMBERS]


@pytest.mark.parametrize(
    "command, scans",
    [
        ("dual", 0),
        ("irreducibles", 0),
        ("primes", 0),
        ("verify", 0),
        ("second-dual", 1),
    ],
)
def test_only_evaluation_homs_scan_rows_backward(command, scans, monkeypatch):
    # λ_p and υ_p are read off the strict-bounds walk; last_without serves
    # only the evaluation homs, which verify and second-dual build. verify
    # has built the columns by then and reads it off them, so only
    # second-dual scans the rows backward, once per lattice.
    calls = []
    last_without = dual_mod._last_without

    def counted(rows, n):
        calls.append(n)
        return last_without(rows, n)

    monkeypatch.setattr(dual_mod, "_last_without", counted)
    code, _, _ = run([command, str(SAMPLES / "diamond.poset")])
    assert code == 0 and len(calls) == scans


@pytest.mark.parametrize(
    "command, transposes",
    [
        ("dual", 1),
        ("irreducibles", 1),
        ("primes", 1),
        ("verify", 1),
        ("second-dual", 0),
    ],
)
def test_lattice_commands_transpose_rows_once(
    command, transposes, tmp_path, monkeypatch
):
    # The member columns are the rows transposed, built once per lattice
    # and read by every later step, verify's kernel tops included.
    rand = tmp_path / "r12.poset"
    argv = ["random", "12", "--seed", "4", "--density", "0.2", "--out", str(rand)]
    assert run(argv)[0] == 0
    calls = []
    transpose_rows = dual_mod._transpose_rows

    def counted(rows, n):
        calls.append(n)
        return transpose_rows(rows, n)

    monkeypatch.setattr(dual_mod, "_transpose_rows", counted)
    for path in (SAMPLES / "diamond.poset", rand):
        calls.clear()
        code, _, _ = run([command, str(path)])
        assert code == 0 and len(calls) == transposes


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


@pytest.mark.parametrize("block", [3, 1 << 12])
def test_dot_files_are_the_lattice_dot_text(tmp_path, monkeypatch, block):
    rand = tmp_path / "r9.poset"
    assert run(["random", "9", "--density", "0.2", "--out", str(rand)])[0] == 0
    monkeypatch.setattr(dot_mod, "_BLOCK_LINES", block)
    for path in [rand] + sorted(SAMPLES.glob("*.poset")):
        doc = parse_poset(path.read_text())
        lattice = enumerate_dual(build_poset(doc))
        dot = tmp_path / "out.dot"
        for argv, labels in (
            (["verify"], True),
            (["dual", "--label-embeddings"], True),
            (["dual"], False),
        ):
            argv += [str(path), "--dot", str(dot)]
            assert run(argv)[0] == 0
            expected = emit_lattice_dot(lattice, doc.name, labels)
            assert dot.read_bytes() == expected.encode("utf-8"), argv


def test_corruption_harness_exits_one(monkeypatch):
    # A forced check failure takes the exit-1 path.
    monkeypatch.setattr(
        report_mod, "_check_upset_closure", lambda lattice: (False, "forced")
    )
    code, out, _ = run(["verify", str(SAMPLES / "chain2.poset")])
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


def one_error_line(err):
    return err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["dual", "verify"])
def test_directory_as_file_exit_code(command, tmp_path):
    code, out, err = run([command, str(tmp_path)])
    assert (code, out) == (2, "")
    assert one_error_line(err), err


@pytest.mark.parametrize("command", ["dual", "verify"])
def test_dot_into_missing_directory_exits_after_the_report(command, tmp_path):
    diamond = str(SAMPLES / "diamond.poset")
    dot = tmp_path / "missing" / "out.dot"
    code, out, err = run([command, diamond, "--dot", str(dot)])
    assert code == 2
    assert one_error_line(err), err
    # The report is complete on stdout before the DOT file is opened.
    assert out == run([command, diamond])[1]
    assert not dot.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["hasse", str(SAMPLES / "diamond.poset"), "--dot"],
        ["random", "3", "--out"],
    ],
)
def test_hasse_and_random_into_missing_directory_exit_two(argv, tmp_path):
    target = tmp_path / "missing" / "out"
    code, out, err = run(argv + [str(target)])
    assert (code, out) == (2, "")
    assert one_error_line(err), err
    assert not target.parent.exists()


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


def test_zero_member_cap_refuses_every_lattice():
    code, out, err = run(["dual", str(SAMPLES / "chain2.poset"), "--max-members", "0"])
    assert (code, out) == (3, "")
    assert err == "error: dual lattice has more than 0 members, cap 0\n"


def test_random_over_element_cap_refused_before_drawing(monkeypatch):
    def no_draws(self):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(random.Random, "random", no_draws)
    code, out, err = run(["random", "65"])
    assert (code, out) == (3, "")
    assert err == "error: poset has 65 elements, cap is 64\n"


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


def test_random_density_zero_is_an_antichain():
    # 0 is a density in range: an antichain, with no relation line.
    code, out, err = run(["random", "4", "--density", "0"])
    assert (code, err) == (0, "")
    assert out == "poset random\nelements: e0 e1 e2 e3\nrelations:\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "-3"],
        ["random", "3", "--density", "7"],
        ["dual", str(SAMPLES / "chain2.poset"), "--max-members", "-1"],
    ],
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


class _LaterError(PosetDualError):
    pass


@pytest.mark.parametrize("error", [BaseMismatchError, NoWitnessError, _LaterError])
def test_other_package_errors_exit_two(error, monkeypatch):
    # run_cli maps errors by class, so a package error no arm names
    # exits 2 instead of escaping as a traceback.
    def broken(lattice):
        raise error("no base element for this kernel")

    monkeypatch.setattr(dual_mod, "irreducibles", broken)
    code, out, err = run(["dual", str(SAMPLES / "vee.poset")])
    assert (code, out) == (2, "")
    assert err == "error: no base element for this kernel\n"


def test_hasse_to_stdout():
    code, out, _ = run(["hasse", str(SAMPLES / "chain3.poset")])
    assert code == 0
    assert '"a" -> "b";' in out and '"b" -> "c";' in out


def test_hasse_to_dot_file(tmp_path):
    dot = tmp_path / "hasse.dot"
    code, out, _ = run(["hasse", str(SAMPLES / "chain3.poset"), "--dot", str(dot)])
    assert code == 0
    assert out == ""
    assert dot.read_text() == run(["hasse", str(SAMPLES / "chain3.poset")])[1]


def test_second_dual_subcommand():
    code, out, _ = run(
        ["second-dual", str(SAMPLES / "vee.poset"), "--brute-force"]
    )
    assert code == 0
    assert "round_trip: true" in out
    assert "brute_force: true" in out
    code, out, _ = run(["second-dual", str(SAMPLES / "vee.poset")])
    assert code == 0
    assert "brute_force: skipped" in out


def test_second_dual_round_trip_failure_exits_one(monkeypatch):
    # Without the up-set {b}, the evaluation hom at a has the empty
    # kernel, which is the down-set of b: the round trip sends a to b.
    monkeypatch.setattr(
        dual_mod,
        "enumerate_dual",
        lambda poset, max_members: dual_mod.DualLattice(poset, [0, 0b11]),
    )
    code, out, err = run(["second-dual", str(SAMPLES / "chain2.poset")])
    assert code == 1
    assert "round_trip: false" in out
    assert err == ""


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


def test_import_loads_no_dataclasses_inspect_or_random():
    # A fresh interpreter without site-packages (-S) imports the CLI from
    # src alone; the value classes are named tuples and slotted classes,
    # and random_poset imports random itself, so none of these load.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, posetdual.cli; "
         "print(*sorted({'dataclasses', 'inspect', 'random'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "\n"
