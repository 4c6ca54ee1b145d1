import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kneser_tverberg import cli
from kneser_tverberg.cli import build_parser, main
from kneser_tverberg.experiments import ExperimentReport
from kneser_tverberg.simplicial import GROUND_LIMIT


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kneser_tverberg", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_module_entry_point():
    proc = run_cli("chi", "--subsets", "2", "--ground", "5")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["chi"] == 3
    assert data["n_vertices"] == 10


def test_verify_exit_zero_on_match():
    proc = run_cli("verify", "kneser", "2", "5")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["verdict"] == "match"
    assert data["experiment"].startswith("kneser")


def test_bad_instance_params_exit_two():
    proc = run_cli("verify", "kneser", "2", "5", "9")
    assert proc.returncode == 2
    assert "parameter" in proc.stderr


def test_unknown_subcommand_exit_two():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_complex_subcommand(capsys):
    code = main(["complex", "--forbidden", "1,3 2,4", "--ground", "4"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4
    assert sorted(map(sorted, data["minimal_nonfaces"])) == [[1, 3], [2, 4]]


def test_complex_subcommand_at_the_ground_limit(capsys):
    code = main(["complex", "--forbidden", "1,2 3,4,5", "--ground", str(GROUND_LIMIT)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    ground = set(range(1, GROUND_LIMIT + 1))
    assert data["facets"] == sorted(sorted(ground - {a, b}) for a in (1, 2) for b in (3, 4, 5))
    assert data["minimal_nonfaces"] == [[1, 2], [3, 4, 5]]
    assert (data["n"], data["dim"]) == (GROUND_LIMIT, GROUND_LIMIT - 3)


def test_complex_requires_one_source(capsys):
    code = main(["complex", "--simplex", "3", "--facets", "1,2", "--ground", "3"])
    assert code == 2


def test_kneser_subcommand(capsys):
    code = main(["kneser", "--subsets", "2", "--ground", "5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_vertices"] == 10 and data["n_edges"] == 15


def test_kneser_stable_subcommand(capsys):
    code = main(["kneser", "--subsets", "2", "--ground", "5", "--stable", "2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_vertices"] == 5 and data["n_edges"] == 5


def test_bounds_subcommand(capsys):
    code = main(["bounds", "--simplex", "5", "--skeleton", "0", "-r", "3", "-d", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["width"] == 3
    assert data["kriz"] == "3/2"
    assert data["kriz_ceiling"] == 2
    assert data["floor_formula"] == 1


def test_bounds_runs_the_width_search_once(monkeypatch, capsys):
    """kriz and kriz_ceiling come from the reported width, not a second search."""
    from kneser_tverberg import cli, coloring
    from kneser_tverberg.hypergraphs import width

    calls = []

    def counting_width(K, r):
        calls.append(r)
        return width(K, r)

    monkeypatch.setattr(cli, "width", counting_width)
    monkeypatch.setattr(coloring, "width", counting_width)
    code = main(["bounds", "--simplex", "5", "--skeleton", "0", "-r", "3"])
    assert code == 0 and calls == [3]
    data = json.loads(capsys.readouterr().out)
    assert (data["width"], data["kriz"], data["kriz_ceiling"]) == (3, "3/2", 2)


def test_bounds_greedy_flag(capsys):
    code = main(["bounds", "--simplex", "5", "--skeleton", "0", "-r", "2", "--greedy"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["greedy_proper"] is True


def test_gale_oracle_agreement(capsys):
    code = main(["gale", "-n", "6", "-d", "2", "--oracle"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["oracle_agrees"] is True
    assert len(data["facets"]) == 6


def test_tverberg_moment_certificate(capsys):
    code = main(["tverberg", "--moment", "1,2,3,4,5", "-d", "1", "-r", "3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"] is True
    assert data["parts"] == [[1, 4], [2, 5], [3]]


def test_tverberg_absence(capsys):
    code = main(["tverberg", "--points", "0,0;1,0;0,1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is False


def test_tverberg_restricted(capsys):
    code = main(
        [
            "tverberg",
            "--points",
            "2,0;1,2;-1,2;-2,0;-1,-2;1,-2;0,0",
            "--facets",
            "1,2 2,3 3,4 4,5 5,6 1,6",
            "--ground",
            "6",
            "--cone",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is False and data["restricted"] is True


def test_tverberg_cap_refusal(capsys):
    code = main(
        ["tverberg", "--moment", ",".join(map(str, range(1, 13))), "-d", "2", "-r", "3", "--cap", "10"]
    )
    assert code == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tverberg", "--moment", "1,2,3,4,5", "-d", "1", "--skeleton", "0"], "exactly one of"),
        (["tverberg", "--points", "0,0;1,0;0,1", "-d", "5"], "-d is for --moment"),
        (["chi", "--subsets", "2", "--ground", "5", "--simplex", "3"], "--simplex"),
        (["kneser", "--subsets", "2", "--ground", "5", "--cone"], "--cone"),
        (["chi", "--simplex", "4", "--stable", "2"], "--stable needs --subsets"),
    ],
    ids=[
        "tverberg-skeleton",
        "tverberg-points-dimension",
        "chi-subsets-simplex",
        "kneser-subsets-cone",
        "chi-stable",
    ],
)
def test_ignored_flags_are_refused(capsys, argv, message):
    """A flag the command would not use is a usage error, not dropped in silence."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_all_matches_the_pinned_stream(verify_all_run):
    """`kntv verify all`, runtime_s removed, byte for byte against tests/data/verify_all.jsonl."""
    code, reports = verify_all_run
    assert code == 0
    got = [{k: v for k, v in rep.items() if k != "runtime_s"} for rep in reports]
    pinned = (Path(__file__).resolve().parent / "data" / "verify_all.jsonl").read_text()
    assert "".join(json.dumps(rep) + "\n" for rep in got) == pinned


def test_table_format(capsys):
    code = main(["chi", "--subsets", "2", "--ground", "5", "--table"])
    assert code == 0
    out = capsys.readouterr().out
    assert not out.lstrip().startswith("{")
    assert "chi" in out


def test_verify_all_rejects_params(capsys):
    assert main(["verify", "all", "3"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "schrijver", "2", "5", "7"], "0 or 1"),
        (["verify", "schrijver", "2", "5", "-1"], "0 or 1"),
        (["verify", "roundtrip", "-3"], "nonnegative"),
        (["verify", "dismantle", "-1"], "nonnegative"),
    ],
    ids=["schrijver-flag-7", "schrijver-flag-minus-1", "roundtrip-negative", "dismantle-negative"],
)
def test_bad_instance_values_exit_two(capsys, argv, message):
    """A criticality flag other than 0 or 1, or a negative count, is a usage error, not a verdict."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_mismatch_exit_one(monkeypatch, capsys):
    stub = ExperimentReport(
        "kneser-stub", {}, {"chi": 99}, {"chi": 3}, "mismatch", 0.0
    )
    monkeypatch.setattr(
        "kneser_tverberg.experiments.verify_kneser", lambda *a, **kw: stub
    )
    code = main(["verify", "kneser", "2", "5"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "mismatch"


@pytest.mark.parametrize(
    "exc",
    [
        ArithmeticError("witness search failed at the established chromatic number"),
        RecursionError("maximum recursion depth exceeded"),
    ],
    ids=["arithmetic", "recursion"],
)
def test_internal_error_exit_three(monkeypatch, capsys, exc):
    """An internal failure gets its own code, never a verdict (1) or a usage error (2)."""

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("kneser_tverberg.cli.chromatic_number", broken)
    assert main(["chi", "--subsets", "2", "--ground", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {type(exc).__name__}: {exc}")


def test_verify_mismatch_table_shows_diff(monkeypatch, capsys):
    stub = ExperimentReport(
        "kneser-stub", {}, {"chi": 99}, {"chi": 3}, "mismatch", 0.0
    )
    monkeypatch.setattr(
        "kneser_tverberg.experiments.verify_kneser", lambda *a, **kw: stub
    )
    code = main(["verify", "kneser", "2", "5", "--table"])
    assert code == 1
    out = capsys.readouterr().out
    assert "claimed chi=99" in out


def test_verify_jobs_do_not_change_output(capsys):
    def reports(jobs):
        assert main(["verify", "stable-faces", "--jobs", jobs]) == 0
        lines = capsys.readouterr().out.splitlines()
        out = []
        for line in lines:
            d = json.loads(line)
            d.pop("runtime_s", None)
            out.append(d)
        return out

    assert reports("1") == reports("4")


COMMAND_OPTIONS = {
    "complex": "--cone --facets --forbidden --format --ground --simplex --skeleton --table",
    "kneser": "--cone --facets --forbidden --format --ground --parts --simplex --skeleton "
    "--stable --subsets --table -r",
    "chi": "--cone --facets --forbidden --format --ground --max-vertices --parts --simplex "
    "--skeleton --stable --subsets --table -r",
    "bounds": "--cone --dimension --facets --forbidden --format --greedy --ground --parts "
    "--simplex --skeleton --table -d -r",
    "gale": "--dimension --format --oracle --table -d -n",
    "tverberg": "--cap --cone --dimension --facets --forbidden --format --ground --moment "
    "--parts --points --simplex --skeleton --table -d -r",
    "verify": "--cap --format --jobs --max-vertices --seed --table",
}
SHARED_DESTS = {"format", "jobs", "seed", "cap", "max_vertices"}


def _commands(parser: argparse.ArgumentParser) -> dict:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return sorted(s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help"))


def test_each_command_takes_only_the_options_it_reads():
    """The top level takes only -h; the shared flags sit on the commands that read them.

    --format and --table set one value, so the 8 parsers hold 13 settable
    shared values: --format on all 7 commands, --max-vertices on chi,
    --cap on tverberg, and --cap, --max-vertices, --seed, --jobs on verify.
    """
    parser = build_parser()
    assert _options(parser) == []
    commands = _commands(parser)
    assert {name: _options(p) for name, p in commands.items()} == {
        name: sorted(opts.split()) for name, opts in COMMAND_OPTIONS.items()
    }
    shared = [
        dest
        for p in [parser, *commands.values()]
        for dest in {a.dest for a in p._actions} & SHARED_DESTS
    ]
    assert len(shared) == 13


@pytest.mark.parametrize(
    "argv",
    [
        "--cap 10 tverberg --moment 1,2,3,4,5,6,7 -d 2 -r 3",
        "--max-vertices 5 chi --subsets 2 --ground 5",
        "--seed 1 verify kneser 2 5",
        "--jobs 4 verify kneser 2 5",
        "--table chi --subsets 2 --ground 5",
        "gale -n 5 -d 2 --seed 3",
        "gale -n 5 -d 2 --cap 1",
        "chi --subsets 2 --ground 5 --cap 10",
        "tverberg --moment 1,2,3,4,5 -d 1 --max-vertices 5",
        "tverberg --moment 1,2,3,4,5 -d 1 --seed 3",
        "tverberg --sgp --moment 1,2,3,4,5,6 -d 4",
        "complex --simplex 2 --jobs 2",
    ],
)
def test_an_option_the_command_would_not_read_is_a_usage_error(monkeypatch, capsys, argv):
    """Exit 2 from argparse before any computation, never a silently dropped guard."""
    assert "usage: kntv" in usage_error(monkeypatch, capsys, argv)


def usage_error(monkeypatch, capsys, argv):
    """Standard error of a run that must exit 2 with no output and nothing computed."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        raise AssertionError("computed despite a usage error")

    for name in ("tverberg_search", "chromatic_number", "run_tasks", "gale_facets", "simplex_complex"):
        monkeypatch.setattr(cli, name, recording)
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2 and calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize(
    "argv, option, readers",
    [
        ("--cap 10 tverberg --moment 1,2,3,4,5,6,7 -d 2 -r 3", "--cap", "(tverberg, verify)"),
        ("--max-vertices 5 chi --subsets 2 --ground 5", "--max-vertices", "(chi, verify)"),
        ("--seed 1 verify kneser 2 5", "--seed", "(verify)"),
        ("--jobs=4 verify kneser 2 5", "--jobs", "(verify)"),
    ],
    ids=["cap", "max-vertices", "seed", "jobs"],
)
def test_an_option_before_the_command_is_named_in_the_error(monkeypatch, capsys, argv, option, readers):
    """The error names the misplaced option and the commands that read it, not its value."""
    err = usage_error(monkeypatch, capsys, argv)
    assert "usage: kntv" in err
    assert f"error: {option} belongs after the command {readers}" in err
    assert "invalid choice" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "complex --forbidden '1,3 2,4' --ground 4",
        "kneser --subsets 2 --ground 5",
        "chi --subsets 2 --ground 5",
        "bounds --simplex 5 --skeleton 0 -r 3 -d 1",
        "gale -n 6 -d 2",
        "tverberg --moment 1,2,3,4,5 -d 1 -r 3",
        "verify kneser 2 5",
    ],
    ids=lambda argv: argv.split()[0],
)
def test_every_command_takes_the_table_shorthand(capsys, argv):
    assert main([*shlex.split(argv), "--table"]) == 0
    out = capsys.readouterr().out
    assert out and not out.lstrip().startswith("{")


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("kntv ")]


@pytest.mark.parametrize(
    "line",
    [line for line in _readme_commands() if shlex.split(line, comments=True)[1:] != ["verify", "all"]],
)
def test_readme_command_line_examples_run(capsys, line):
    """Each README example exits 0 and prints JSON lines; `verify all` runs in its own fixture."""
    argv = shlex.split(line, comments=True)
    assert argv[0] == "kntv"
    assert main(argv[1:]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(isinstance(json.loads(out), dict) for out in lines)


def test_readme_command_block_is_found():
    """The parametrized README test above would collect nothing if the block moved."""
    assert "kntv verify all" in [" ".join(shlex.split(line, comments=True)) for line in _readme_commands()]
