"""``cli.main`` parses with the invoked subcommand's parser alone, as the full tree would.

Every argv below goes through ``cli._parse_args`` and through
``_build_parser().parse_args``; both must print the same bytes to stdout and
stderr, exit with the same code, and return the same Namespace fields.
"""

import sys

import pytest

from kltangent import cli

VALID = {
    "tangent": ["tangent", "A2", "--x", "1 2 1", "--w", "1", "--parabolic", "2",
                "--type-a-oracle", "--cone-evidence", "--json"],
    "kclass": ["kclass", "A2", "--x", "1 2 1", "--w", "1", "--json"],
    "demazure": ["demazure", "A2", "1 1"],
    "subword-complex": ["subword-complex", "A2", "1 2 1", "1"],
    "cominuscule": ["cominuscule", "D4", "--x", "2 1 3 4 2", "--json"],
    "verify": ["verify", "A2", "G2", "--random-cases", "50", "--seed", "3", "--json"],
}


def _without_x(argv):
    if "--x" not in argv:
        return argv[:2]  # the positional subcommands miss their word instead
    k = argv.index("--x")
    return argv[:k] + argv[k + 2 :]


ARGVS = [
    argv
    for name, valid in VALID.items()
    for argv in (
        valid,
        [name, "-h"],
        valid + ["--help"],
        [name],
        _without_x(valid),
        valid + ["--bogus"],
        valid[:2] + ["--bogus=1"] + valid[2:],
        valid + ["extra"],
    )
] + [
    ["tangent", "A2", "--x", "1 2", "--w", "", "--parabolic", "x"],
    ["tangent", "A2", "--x", "1", "--w", "", "--js", "--cone"],  # abbreviated options
    ["demazure", "--", "A2", "1"],
    ["verify", "A2", "--random-cases", "-5"],
    ["verify", "A2", "--random-cases", "many"],
    ["verify", "A2", "--seed", "x"],
    ["no-such-command"],
    ["tang", "A2"],
    ["--json", "tangent"],
    [],
    ["-h"],
    ["--help"],
]


def _outcome(parse, argv, capsys):
    try:
        fields, code = vars(parse(list(argv))), None
    except SystemExit as exc:
        fields, code = None, exc.code
    captured = capsys.readouterr()
    return fields, code, captured.out, captured.err


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_per_command_parse_matches_full_tree(argv, capsys):
    full = _outcome(lambda a: cli._build_parser().parse_args(a), argv, capsys)
    assert _outcome(cli._parse_args, argv, capsys) == full
    assert full[0] is not None or full[1] in (0, 2)


@pytest.mark.parametrize("name", VALID)
def test_valid_call_builds_no_full_tree(name, monkeypatch):
    def refuse():
        raise AssertionError("the full tree was built")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    args = cli._parse_args(VALID[name])
    assert args.command == name and args.func is cli._COMMANDS[name][2]


def test_console_script_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["kltangent", "demazure", "A2", "1 1"])
    assert cli.main() == 0
    assert '"excess": 1' in capsys.readouterr().out
