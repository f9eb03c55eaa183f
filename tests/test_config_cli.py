"""Config loading, strict validation, and the command-line front end."""

import argparse
import errno
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

from k3acm import ConfigError, WorkbenchError
from k3acm.cli import main
from k3acm.config import (config_from_json, config_to_json, data_path,
                          load_config, loads_config, shipped_config_names,
                          shipped_quartic_names)

BASE = {
    "rank": 2,
    "gram": [[4, 1], [1, -2]],
    "labels": ["h", "B"],
    "ample": [1, 0],
    "k3": True,
    "assumptions": [],
}


def _doc(**overrides):
    doc = {k: json.loads(json.dumps(v)) for k, v in BASE.items()}
    doc.update(overrides)
    return doc


# ---- config files ---------------------------------------------------------------


def test_shipped_configs_round_trip():
    names = shipped_config_names()
    assert len(names) == 8
    assert shipped_quartic_names() == tuple(n for n in names
                                            if n.startswith("quartic_"))
    assert len(shipped_quartic_names()) == 7
    for name in names:
        lat, assumps = load_config(data_path(name))
        text = json.dumps(config_to_json(lat, assumps))
        lat2, assumps2 = loads_config(text)
        assert lat2 == lat
        assert assumps2 == assumps


def test_shipped_configs_have_expected_shapes():
    lat, assumps = load_config(data_path("delpezzo_cover.json"))
    assert lat.rank == 8
    assert lat.signature() == (1, 7)
    assert len(assumps) == 4
    lat, assumps = load_config(data_path("quartic_b2_4.json"))
    assert (lat.gram[1][1], lat.gram[0][1]) == (4, 6)
    assert len(assumps) == 2
    for name in shipped_quartic_names():
        lat, _ = load_config(data_path(name))
        assert lat.rank == 2
        assert lat.gram[0][0] == 4
        assert lat.k3 is True
        assert lat.signature() == (1, 1)


def test_data_path_rejects_unknown_names():
    # a path outside the shipped data directory is no shipped name, even
    # when it names an existing file
    for name in ("no_such_config.json", "/etc/hostname", "../cli.py"):
        with pytest.raises(ConfigError) as err:
            data_path(name)
        assert str(err.value).startswith(f"no shipped config named {name!r}")
        assert "quartic_b2_4.json" in str(err.value)


def test_config_validation_rejects_bad_documents():
    bad = [
        _doc(extra="?"),
        {k: v for k, v in _doc().items() if k != "k3"},
        _doc(rank=True),
        _doc(rank=0),
        _doc(gram=[[4, 1]]),
        _doc(gram=[[4, 1], [1, "x"]]),
        _doc(labels=["h"]),
        _doc(labels=["h", 2]),
        _doc(ample=[1, 0, 0]),
        _doc(ample=[1, True]),
        _doc(k3=1),
        _doc(assumptions={}),
        _doc(assumptions=["?"]),
        _doc(assumptions=[{"subject": [0, 1]}]),
        _doc(assumptions=[{"subject": [0, 1], "kind": "Sparkly"}]),
        _doc(assumptions=[{"subject": [0], "kind": "Empty"}]),
        _doc(assumptions=[{"subject": [0, 1], "kind": "Empty", "note": 3}]),
        _doc(assumptions=[{"subject": [0, 1], "kind": "Empty", "why": ""}]),
        "not even an object",
    ]
    for doc in bad:
        with pytest.raises(ConfigError):
            config_from_json(doc)


def test_unknown_kind_message_lists_the_alternatives():
    with pytest.raises(ConfigError) as err:
        config_from_json(_doc(assumptions=[{"subject": [0, 1],
                                            "kind": "Sparkly"}]))
    assert "Effective" in str(err.value)
    assert "EllipticPencil" in str(err.value)


def _diagonal_doc(rank):
    """diag(2, -2, ..., -2): even, signature (1, rank - 1)."""
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 if i == 0 else -2
    return _doc(rank=rank, gram=gram, labels=[f"e{i}" for i in range(rank)],
                ample=[1] + [0] * (rank - 1))


def test_config_rank_is_at_most_the_rank_of_h2():
    lat, _ = config_from_json(_diagonal_doc(22))
    assert lat.signature() == (1, 21)
    # refused before the gram matrix is read, whatever it holds
    for doc in (_diagonal_doc(23), _doc(rank=23, gram="?"),
                _diagonal_doc(300)):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"rank \d+ exceeds 22"):
            config_from_json(doc)
        assert time.perf_counter() - start < 0.1


def test_lattice_level_errors_still_surface():
    # the document is well-formed JSON; the gram itself is wrong
    with pytest.raises(WorkbenchError):
        config_from_json(_doc(gram=[[4, 1], [2, -2]]))


def test_loads_and_load_error_paths(tmp_path):
    with pytest.raises(ConfigError):
        loads_config("{ truncated")
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    target = tmp_path / "cfg.json"
    target.write_text(json.dumps(_doc()))
    lat, assumps = load_config(target)
    assert lat.rank == 2
    assert assumps == ()


def test_config_to_json_round_trips_assumptions():
    lat, assumps = load_config(data_path("quartic_b2_4.json"))
    doc = config_to_json(lat, assumps)
    lat2, assumps2 = config_from_json(json.loads(json.dumps(doc)))
    assert (lat2, assumps2) == (lat, assumps)
    kinds = [a.kind.value for a in assumps2]
    assert kinds == ["Empty", "Empty"]


# ---- command line ---------------------------------------------------------------


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_lattice_info(capsys):
    cfg = str(data_path("quartic_b2neg2_bh1.json"))
    code, out, err = _run(capsys, "lattice-info", "-c", cfg)
    assert code == 0
    assert "rank: 2" in out
    assert "signature: (1, 1)" in out
    code, out, _ = _run(capsys, "lattice-info", "-c", cfg, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gram"] == [[4, 1], [1, -2]]
    assert payload["signature"] == [1, 1]
    assert payload["even"] is True


def test_cli_lattice_info_lists_the_config_assumptions(capsys):
    cfg = str(data_path("quartic_b2_4.json"))
    code, out, err = _run(capsys, "lattice-info", "-c", cfg)
    assert (code, err) == (0, "")
    assert out.endswith(
        "even: yes\n"
        "assumptions:\n"
        "  Empty (-1, 1): Ulrich window input: |B-h| is empty\n"
        "  Empty (2, -1): Ulrich window input: |2h-B| is empty\n"), out


def test_cli_lattice_info_reports_a_degenerate_form(capsys, tmp_path):
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps(_doc(gram=[[4, 2], [2, 1]], k3=False)))
    code, out, err = _run(capsys, "lattice-info", "-c", str(cfg))
    assert (code, err) == (0, "")
    assert "signature: degenerate\neven: no\nassumptions: none\n" in out
    code, out, err = _run(capsys, "lattice-info", "-c", str(cfg), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["signature"] is None and payload["even"] is False


def test_cli_classify_not_acm_first_line(capsys, tmp_path):
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(_doc(gram=[[4, 5], [5, -2]])))
    code, out, err = _run(capsys, "classify", "-c", str(cfg),
                          "--class", "0,1")
    assert code == 0
    assert out.splitlines()[0] == "NotAcm"


def test_cli_classify_shipped_and_json(capsys):
    cfg = str(data_path("quartic_b2neg2_bh1.json"))
    code, out, _ = _run(capsys, "classify", "-c", cfg, "--class", "0,1")
    assert code == 0
    assert out.splitlines()[0] == "Acm"
    code, out, _ = _run(capsys, "classify", "-c", cfg, "--class", "0,1",
                        "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"class": [0, 1], "status": "Acm", "case": "a",
                       "missing": []}


def test_cli_classify_ulrich_assumptions_come_from_the_file(capsys):
    cfg = str(data_path("quartic_b2_4.json"))
    code, out, _ = _run(capsys, "classify", "-c", cfg, "--class", "0,1")
    assert code == 0
    assert out.splitlines()[0] == "AcmUlrich"


def test_cli_classify_lists_the_facts_it_needs(capsys, tmp_path):
    # the (4, 6) presentation with no facts: the Ulrich window needs both
    # emptiness facts that quartic_b2_4.json asserts
    cfg = tmp_path / "b46.json"
    cfg.write_text(json.dumps(_doc(gram=[[4, 6], [6, 4]])))
    code, out, err = _run(capsys, "classify", "-c", str(cfg),
                          "--class", "0,1")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "NeedsAssumption",
        "case: d",
        "square: 4, degree: 6",
        "needs: Empty (-1, 1) (emptiness needed for the Ulrich window)",
        "needs: Empty (2, -1) (emptiness needed for the Ulrich window)",
    ]


def test_cli_classify_bad_class_argument(capsys):
    cfg = str(data_path("quartic_b2neg2_bh1.json"))
    code, _, err = _run(capsys, "classify", "-c", cfg, "--class", "0,x")
    assert code == 2
    assert "error:" in err
    code, _, err = _run(capsys, "classify", "-c", cfg, "--class", "0,1,2")
    assert code == 2


def test_cli_class_with_a_negative_first_coordinate(capsys):
    # "-1,2" looks like an option to argparse; it must still reach --class
    cfg = str(data_path("quartic_b2neg2_bh3.json"))
    commands = {"classify": ([], 0, "NotAcm"),
                "companions": ([], 2, "companions need an Acm/AcmUlrich"),
                "destabilize": (["--d", "3"], 2, "C^2 = -16 < 4")}
    for command, (extra, want_code, want_text) in commands.items():
        spaced = _run(capsys, command, "-c", cfg, "--class", "-1,2", *extra)
        joined = _run(capsys, command, "-c", cfg, "--class=-1,2", *extra)
        assert spaced == joined, command
        code, out, err = spaced
        assert code == want_code and want_text in out + err, spaced
        for bad in (["--class", "-1,x"], ["--class=-1,x"], ["--class", "1,x"]):
            code, _, err = _run(capsys, command, "-c", cfg, *bad, *extra)
            assert code == 2 and "error:" in err, (command, bad)


def test_cli_abbreviated_class_takes_a_negative_first_coordinate(capsys):
    # argparse reads --cl, --cla and --clas as --class on these commands,
    # so they take "-1,2" as --class=-1,2 does; --c could be --config
    cfg = str(data_path("quartic_b2neg2_bh3.json"))
    for command, extra in (("classify", []), ("companions", ["--json"]),
                           ("destabilize", ["--d", "3"])):
        want = _run(capsys, command, "-c", cfg, "--class=-1,2", *extra)
        for flag in ("--cl", "--cla", "--clas"):
            got = _run(capsys, command, "-c", cfg, flag, "-1,2", *extra)
            assert got == want, (command, flag)
        code, out, err = _run(capsys, command, "-c", cfg, "--c", "-1,2",
                              *extra)
        assert code == 2 and not out, (command, err)
        assert "ambiguous option: --c could match --config, --class" in err
    # a command without --class refuses the tokens as they were typed
    from k3acm import cli
    for flag in ("--cl", "--class"):
        line = ["verify", "--script", "case-B24", flag, "-1,2"]
        assert cli._join_class_values(line) == line
        code, _, err = _run(capsys, *line)
        assert code == 2, err
        assert f"unrecognized arguments: {flag} -1,2\n" in err, err


def test_cli_class_option_is_on_exactly_the_class_commands():
    from k3acm import cli
    with_class = {name for name, p in cli.build_parser().commands.items()
                  if "--class" in p.format_usage()}
    assert with_class == set(cli._CLASS_COMMANDS) == {
        "classify", "companions", "destabilize"}


@pytest.mark.parametrize("args", [
    ["--class", "0_0,1"], ["--class= 0, 1"], ["--class", "0,1 "],
    ["--class", "\u0660,\u0661"], ["--class", "-\u0661,\u0662"],
    ["--class=-\u0661,\u0662"], ["--class", "+0,1"],
], ids=["underscore", "spaces", "trailing-space", "arabic-indic",
        "arabic-indic-negative", "arabic-indic-joined", "plus-sign"])
def test_cli_class_text_is_comma_separated_ascii_integers(capsys, args):
    cfg = str(data_path("quartic_b2neg2_bh3.json"))
    code, out, err = _run(capsys, "classify", "-c", cfg, *args)
    assert code == 2 and "error:" in err and not out, (code, out, err)
    for good in (["--class", "-1,2"], ["--class=-1,2"]):
        code, out, _ = _run(capsys, "classify", "-c", cfg, *good)
        assert code == 0 and out.startswith("NotAcm"), (good, out)


def test_cli_companions(capsys):
    cfg = str(data_path("quartic_b2neg2_bh1.json"))
    code, out, _ = _run(capsys, "companions", "-c", cfg, "--class", "0,1",
                        "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["companions"] == [
        {"class": [0, -1], "rule": "dual-acm-not-initialized"},
        {"class": [1, -1], "rule": "complement-in-h"},
    ]
    code, out, err = _run(capsys, "companions", "-c", cfg, "--class", "0,1")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "(0, 1) classifies Acm (case a)",
        "  (0, -1)  dual-acm-not-initialized",
        "  (1, -1)  complement-in-h",
    ]


@pytest.mark.parametrize("gram, k3, h2", [
    ([[6, 3], [3, -2]], True, 6),   # a K3 config; B would read as window (a)
    ([[2, 3], [3, 0]], False, 2),   # B would read as window (b)
], ids=["sextic-k3", "h2-2"])
def test_cli_classify_and_companions_refuse_a_polarization_of_other_degree(
        capsys, tmp_path, gram, k3, h2):
    # the windows are written for h^2 = 4: another ample degree is bad
    # input, not a classification and not an inconsistent companion
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps(_doc(gram=gram, k3=k3)))
    for command in ("classify", "companions"):
        for flags in ([], ["--json"]):
            code, out, err = _run(capsys, command, "-c", str(cfg), "--class",
                                  "0,1", *flags)
            assert (code, out) == (2, ""), (command, flags, out, err)
            assert err == (f"error: the aCM windows are written for a "
                           f"quartic, h^2 = 4, but the ample class has "
                           f"h^2 = {h2}\n"), (command, flags)


def test_cli_enumerate_json_is_exactly_the_solution_set(capsys):
    code, out, _ = _run(capsys, "enumerate", "--preset", "i-a", "--json")
    assert code == 0
    assert json.loads(out) == {"solutions": [[3, -2]]}


def test_cli_enumerate_config_cross_check(capsys):
    good = str(data_path("quartic_b2neg2_bh1.json"))
    code, out, _ = _run(capsys, "enumerate", "--preset", "i-a", "-c", good)
    assert code == 0
    assert "1 solution(s)" in out
    wrong = str(data_path("quartic_b20_bh4.json"))
    code, _, err = _run(capsys, "enumerate", "--preset", "i-a", "-c", wrong)
    assert code == 2
    assert "error:" in err


def test_cli_enumerate_rejects_tiny_box(capsys):
    code, _, err = _run(capsys, "enumerate", "--preset", "i-a", "--box", "4")
    assert code == 2


def test_cli_rejects_an_oversized_box_quickly(capsys):
    for argv in (("enumerate", "--preset", "i-a", "--box", "100000"),
                 ("theorem", "--box", "100000")):
        start = time.perf_counter()
        code, out, err = _run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert "between 16 and 256" in err and not out, argv


def test_cli_verify_contradiction(capsys):
    code, out, _ = _run(capsys, "verify", "--script", "case-B2neg2-Bh2")
    assert code == 0
    assert out.rstrip().endswith("CONTRADICTION ESTABLISHED")
    assert "[FAILED]" not in out


def test_cli_verify_json(capsys):
    code, out, _ = _run(capsys, "verify", "--script", "case-B24", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Success"
    assert payload["tag"] == "case-B24"


def test_cli_verify_against_matching_config(capsys):
    cfg = str(data_path("quartic_b2neg2_bh2.json"))
    code, out, _ = _run(capsys, "verify", "--script", "case-B2neg2-Bh2",
                        "-c", cfg)
    assert code == 0
    assert out.rstrip().endswith("CONTRADICTION ESTABLISHED")


def test_cli_verify_against_mismatched_config_fails(capsys):
    cfg = str(data_path("quartic_b20_bh4.json"))
    code, out, _ = _run(capsys, "verify", "--script", "case-B2neg2-Bh2",
                        "-c", cfg)
    assert code == 1
    assert "VERIFICATION FAILED" in out


@pytest.mark.parametrize("tag, config, ranks", [
    ("delpezzo-cover", "quartic_b2_4.json", (2, 8)),
    ("case-B24", "delpezzo_cover.json", (8, 2)),
], ids=["rank-8-script-rank-2-config", "rank-2-script-rank-8-config"])
def test_cli_verify_against_a_config_of_another_rank_is_bad_input(
        capsys, tag, config, ranks):
    for extra in ((), ("--json",)):
        code, out, err = _run(capsys, "verify", "--script", tag,
                              "-c", str(data_path(config)), *extra)
        assert code == 2
        assert not out
        assert err.startswith("error:")
        assert f"rank {ranks[0]}" in err and f"rank-{ranks[1]}" in err


def test_cli_verify_unknown_tag(capsys):
    code, _, err = _run(capsys, "verify", "--script", "no-such-tag")
    assert code == 2


def test_cli_verify_and_example_build_only_their_script_lattice(
        capsys, monkeypatch):
    from k3acm.lattice import Lattice
    cfg = str(data_path("quartic_b2_4.json"))
    cases = ((("verify", "--script", "case-B24", "--json"), 1),
             (("verify", "--script", "case-B24", "--json", "-c", cfg), 2),
             (("example-delpezzo",), 1),
             (("example-delpezzo", "--json"), 1))
    for argv, _ in cases:  # warm the shared row scripts
        assert _run(capsys, *argv)[0] == 0, argv
    built = []
    original = Lattice.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Lattice, "__init__", counting)
    for argv, most in cases:
        built.clear()
        assert _run(capsys, *argv)[0] == 0, argv
        assert len(built) <= most, argv


def test_cli_verify_of_every_builtin_script_is_fast(capsys):
    from k3acm.casework.casebook import CASES
    argvs = [("verify", "--script", case.tag) for case in CASES]
    passes = []
    for _ in range(4):  # the first pass builds the shared row scripts
        start = time.perf_counter()
        for argv in argvs:
            assert _run(capsys, *argv)[0] == 0, argv
        passes.append(time.perf_counter() - start)
    assert min(passes[1:]) < 0.03, passes


def test_cli_shared_parser_carries_no_state_between_calls(capsys,
                                                         monkeypatch):
    from k3acm import cli
    assert cli.build_parser() is cli.build_parser()
    cfg = str(data_path("quartic_b2neg2_bh3.json"))
    query = ("destabilize", "-c", cfg, "--class", "4,-2", "--d", "2")
    pairs = ((query + ("--mode", "general"), query),
             (("enumerate", "--preset", "iii", "--box", "64"),
              ("enumerate", "--preset", "iii")),
             (("verify", "--script", "case-B24", "--json"),
              ("verify", "--script", "case-B24")),
             (("enumerate", "--preset", "no-such-preset"),
              ("enumerate", "--preset", "i-a")))
    shared = []
    for first, later in pairs:
        shared.append((_run(capsys, *first)[0], _run(capsys, *later)))
    assert [code for code, _ in shared] == [0, 0, 0, 2]
    # the same later calls, each through a parser built afresh
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_run(capsys, *later) for _, later in pairs]
    assert [result for _, result in shared] == fresh
    assert fresh[3][0] == 0



def _oracle_main(argv):
    """main as it was before a subcommand line skipped the top-level
    parser: every line through the top-level parse_args."""
    from k3acm import cli
    from k3acm.errors import BoxTooSmallError, EngineError
    try:
        args = cli.build_parser().parse_args(cli._join_class_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BoxTooSmallError as exc:
        print(f"boundary touch: {exc}", file=sys.stderr)
        return 1
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_cases():
    cfg = str(data_path("quartic_b2neg2_bh3.json"))
    query = ["destabilize", "-c", cfg, "--class", "4,-2", "--d", "2"]
    from k3acm import cli
    return [[command, flag] for command in cli.build_parser().commands
            for flag in ("-h", "--help")] + [
        # no arguments, top-level help, unknown and mistyped commands, --
        [], ["-h"], ["--help"], ["-h", "verify"], ["--help", "frobnicate"],
        ["frobnicate"], ["verif", "--script", "case-B24"], ["VERIFY"],
        ["--"], ["--", "verify", "--script", "case-B24"],
        ["verify", "--", "--script", "case-B24"],
        ["verify", "--script", "case-B24", "--", "extra"],
        ["--json", "verify", "--script", "case-B24"],
        # missing required options and values
        ["verify"], ["verify", "--script"], ["classify", "-c", cfg],
        ["enumerate"], ["destabilize", "-c", cfg, "--class", "4,-2"],
        ["classify", "--class", "0,1"],
        # unknown options and extra positionals
        ["verify", "--script", "case-B24", "--bogus"],
        ["verify", "--bogus", "--script", "case-B24", "-x"],
        ["theorem", "--bogus=1"], ["theorem", "-c", cfg],
        ["verify", "--script", "case-B24", "extra"],
        ["example-delpezzo", "extra", "more"],
        ["verify", "extra", "--script", "case-B24", "--json"],
        # bad choices and non-int values
        ["enumerate", "--preset", "no-such-preset"],
        query + ["--mode", "wild"], query[:-1] + ["two"],
        ["enumerate", "--preset", "i-a", "--box", "x"],
        ["theorem", "--box", "1.5"],
        # abbreviated options, --class with a negative first coordinate
        ["verify", "--scr", "case-B24", "--js"],
        ["classify", "-c", cfg, "--cl", "0,1"],
        ["classify", "-c", cfg, "--cl", "-1,2"],
        ["classify", "-c", cfg, "--class", "-1,2", "--json"],
        ["companions", "-c", cfg, "--class", "-1,2"],
        ["destabilize", "-c", cfg, "--class", "-1,2", "--d", "2"],
        ["destabilize", "-c", cfg, "--class", "-1,x", "--d", "2"],
        ["verify", "--he"], ["verify", "--script", "case-B24", "-h"],
        # well-formed lines and failures past parsing
        ["verify", "--script", "case-B24", "--json"],
        ["verify", "--script", "case-B24"], ["verify", "--script", "nope"],
        ["enumerate", "--preset", "i-a", "--box", "8"],
        query + ["--mode", "general", "--json"],
        ["lattice-info", "-c", cfg, "--json"],
        ["example-delpezzo", "--json"],
    ]


def test_cli_reads_every_line_as_the_top_level_parse_args_did(
        capsys, monkeypatch):
    # a subcommand line is parsed by its subcommand's parser alone; the
    # exit code, stdout and stderr must be those of parse_args on the
    # whole line, help and usage errors included
    monkeypatch.setenv("COLUMNS", "80")
    for argv in _parse_cases():
        assert _run(capsys, *argv) == (_oracle_main(argv),
                                       *capsys.readouterr()), argv


def test_cli_parses_a_subcommand_line_without_the_top_level_parser(
        capsys, monkeypatch):
    from k3acm import cli
    parser = cli.build_parser.__wrapped__()
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return type(parser).parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", spy)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    code, out, _ = _run(capsys, "verify", "--script", "case-B24", "--json")
    assert code == 0 and json.loads(out)["status"] == "Success"
    assert calls == []
    # a line that names no subcommand is the top-level parser's
    assert _run(capsys, "frobnicate")[0] == 2
    assert len(calls) == 1


def test_cli_destabilize(capsys):
    cfg = str(data_path("quartic_b2neg2_bh3.json"))
    code, out, _ = _run(capsys, "destabilize", "-c", cfg, "--class", "4,-2",
                        "--d", "2", "--mode", "exact")
    assert code == 0
    assert "ALL BRANCHES RESOLVED" in out
    assert "window-infeasible" in out
    code, out, _ = _run(capsys, "destabilize", "-c", cfg, "--class", "4,-2",
                        "--d", "2", "--mode", "exact", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["resolved"] is True
    assert len(payload["records"]) == 3
    # a branch the engine cannot close is a verification failure, not an
    # internal fault reported as bad input
    cfg = str(data_path("quartic_b2neg2_bh2.json"))
    code, out, err = _run(capsys, "destabilize", "-c", cfg, "--class", "2,1",
                          "--d", "7")
    assert code == 1, err
    assert "UNRESOLVED BRANCHES REMAIN" in out
    # C = 2(h + B) at d = 8 dies by the self-dual twist, before any branch
    code, out, err = _run(capsys, "destabilize", "-c", cfg, "--class", "2,2",
                          "--d", "8")
    assert code == 0, err
    assert out.splitlines()[1] == "  whole query: self-dual-twist"
    assert "n^2" not in out and "ALL BRANCHES RESOLVED" in out


def test_cli_destabilize_refuses_conflicting_facts(capsys, tmp_path):
    # B asserted both effective and empty: bad input, exit 2
    cfg = tmp_path / "conflict.json"
    facts = [{"subject": [0, 1], "kind": kind, "note": ""}
             for kind in ("Effective", "Empty")]
    cfg.write_text(json.dumps(_doc(gram=[[4, 3], [3, -2]],
                                   assumptions=facts)))
    for extra in ((), ("--json",)):
        code, out, err = _run(capsys, "destabilize", "-c", str(cfg),
                              "--class", "4,-2", "--d", "2", *extra)
        assert code == 2 and not out
        assert "both effective and empty" in err


def test_cli_refuses_a_class_asserted_base_point_free_and_empty(
        capsys, tmp_path):
    # a base-point-free system is nonempty: bad input, exit 2, in the
    # classifier and in the engine alike
    cfg = tmp_path / "conflict.json"
    facts = [{"subject": [3, -1], "kind": kind}
             for kind in ("BasePointFree", "Empty")]
    cfg.write_text(json.dumps(_doc(gram=[[4, 2], [2, -2]],
                                   assumptions=facts)))
    for command in (("classify", "--class", "0,1"),
                    ("destabilize", "--class", "2,1", "--d", "7")):
        for extra in ((), ("--json",)):
            code, out, err = _run(capsys, *command, "-c", str(cfg), *extra)
            assert (code, out) == (2, ""), command
            assert err == ("error: classes asserted both effective and "
                           "empty: [(3, -1)]\n"), command


def test_cli_destabilize_reads_nothing_into_an_effective_zero_class(
        capsys, tmp_path):
    # O has a section, which is true and bounds no pairing of N: the query
    # stays open, with the records it has without the fact
    shipped = data_path("quartic_b20_bh3.json")
    doc = json.loads(shipped.read_text())
    doc["assumptions"].append({"subject": [0, 0], "kind": "Effective"})
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(doc))
    runs = [_run(capsys, "destabilize", "-c", str(path), "--class", "3,-1",
                 "--d", "6") for path in (shipped, cfg)]
    assert runs[0] == runs[1]
    assert runs[1][0] == 1 and "UNRESOLVED BRANCHES REMAIN" in runs[1][1]


def test_cli_destabilize_refuses_a_nonpositive_class_asserted_nonempty(
        capsys, tmp_path):
    # -h asserted base point free contradicts AX-AMPLE-POSITIVE: bad input
    doc = json.loads(data_path("quartic_b2neg2_bh2.json").read_text())
    doc["assumptions"].append({"subject": [-1, 0], "kind": "BasePointFree"})
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps(doc))
    for extra in ((), ("--json",)):
        code, out, err = _run(capsys, "destabilize", "-c", str(cfg),
                              "--class", "2,1", "--d", "7", *extra)
        assert code == 2 and not out
        assert err.startswith("error: ") and "AX-AMPLE-POSITIVE" in err


def test_cli_destabilize_rejects_a_query_outside_the_c2_window_quickly(
        capsys):
    cfg = str(data_path("quartic_b20_bh4.json"))
    for curve, d in (("1,2", "1000000"), ("1000,0", "10")):
        start = time.perf_counter()
        code, out, err = _run(capsys, "destabilize", "-c", cfg, "--class",
                              curve, "--d", d, "--mode", "general")
        assert time.perf_counter() - start < 1.0, curve
        assert code == 2, curve
        assert "c2 window" in err and not out, curve


def test_cli_destabilize_reports_an_unbounded_window_as_a_boundary_touch(
        capsys, monkeypatch):
    # C = 2h on (0, 3): C.N does not bind B.N, the Hodge index on <h, B, N>
    # does, so the sweep ends with records and an open branch at d = 8 in
    # general mode, the first degree the self-dual twist (d < K^2 + 4 = 8)
    # leaves to the sweep
    cfg = str(data_path("quartic_b20_bh3.json"))
    query = ("destabilize", "-c", cfg, "--class", "2,0", "--d", "8",
             "--mode", "general")
    code, out, err = _run(capsys, *query)
    assert code == 1 and not err
    assert "profile (h.N, B.N)" in out
    assert out.rstrip().endswith("UNRESOLVED BRANCHES REMAIN")
    code, out, err = _run(capsys, *query, "--json")
    assert code == 1 and not err
    payload = json.loads(out)
    assert payload["resolved"] is False and payload["records"]
    # C.N = 2 h.N leaves B.N free: one (n^2, h.N) carries several B.N
    profiles = Counter((r["n_square"], r["profile"][0])
                       for r in payload["records"] if r["profile"])
    assert max(profiles.values()) > 1
    # a search-box boundary touch is a verification failure, not bad input
    from k3acm import cli
    from k3acm.errors import BoxTooSmallError

    def touch(spec):
        raise BoxTooSmallError("solution on the box boundary")

    monkeypatch.setattr(cli, "enumerate_case", touch)
    code, out, err = _run(capsys, "enumerate", "--preset", "i-a")
    assert code == 1
    assert err.startswith("boundary touch: solution on the box boundary")
    assert "Traceback" not in err and not out


def test_cli_destabilize_refuses_a_non_hyperbolic_presentation(capsys,
                                                              tmp_path):
    # (h.B)^2 = 1 <= 4 B^2 = 8: no Hodge window on <h, B, N> exists
    cfg = tmp_path / "definite.json"
    cfg.write_text(json.dumps(_doc(gram=[[4, 1], [1, 2]], k3=False)))
    code, out, err = _run(capsys, "destabilize", "-c", str(cfg), "--class",
                          "2,1", "--d", "8", "--mode", "general")
    assert code == 2
    assert err.startswith("error: ") and "hyperbolic" in err
    assert "Traceback" not in err and not out


def test_cli_reports_a_false_engine_claim_as_an_internal_error(
        capsys, monkeypatch):
    from k3acm.casework import destabilize
    monkeypatch.setattr(destabilize, "check_rel", lambda rel, lhs, rhs: False)
    cfg = str(data_path("quartic_b2neg2_bh3.json"))
    code, out, err = _run(capsys, "destabilize", "-c", cfg, "--class", "4,-2",
                          "--d", "2")
    assert code == 3
    assert err.startswith("internal error: engine produced a false claim")
    assert "Traceback" not in err and not out


def test_cli_destabilize_ulrich_config(capsys):
    cfg = str(data_path("quartic_b2_4.json"))
    code, out, _ = _run(capsys, "destabilize", "-c", cfg, "--class", "0,2",
                        "--d", "4", "--mode", "gonality", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["resolved"] is True
    assert [r["outcome"] for r in payload["records"]] == [
        "window-infeasible", "window-infeasible", "window-infeasible",
        "beyond-hodge-cap"]


def test_cli_theorem(capsys):
    code, out, _ = _run(capsys, "theorem")
    assert code == 0
    assert "THEOREM NECESSITY: VERIFIED over 7 configs" in out
    code, out, _ = _run(capsys, "theorem", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "VERIFIED"
    assert len(payload["configs"]) == 7
    assert all(c["status"] == "VERIFIED" for c in payload["configs"])


@pytest.mark.parametrize("names, note", [
    ([n for n in shipped_quartic_names() if n != "quartic_b20_bh3.json"],
     "theorem: the configs miss the presentations [(0, 3)] and repeat []\n"),
    ([*shipped_quartic_names(), "quartic_b2_4.json"],
     "theorem: the configs miss the presentations [] and repeat [(4, 6)]\n")],
    ids=["dropped", "repeated"])
def test_cli_theorem_checks_it_covers_the_seven_presentations(
        capsys, monkeypatch, names, note):
    import k3acm.cli as cli
    monkeypatch.setattr(cli, "shipped_quartic_names", lambda: tuple(names))
    code, out, err = _run(capsys, "theorem")
    assert code == 1
    assert err == note
    assert out.endswith(
        f"THEOREM NECESSITY: INCOMPLETE over {len(names)} configs\n")
    # every config that did replay still verifies on its own
    assert out.count(": VERIFIED\n") == len(names)
    code, out, err = _run(capsys, "theorem", "--json")
    assert code == 1
    assert err == note
    payload = json.loads(out)
    assert payload["status"] == "INCOMPLETE"
    assert [c["config"] for c in payload["configs"]] == names
    assert all(c["status"] == "VERIFIED" for c in payload["configs"])


def test_cli_example_delpezzo(capsys):
    code, out, _ = _run(capsys, "example-delpezzo")
    assert code == 0
    assert out.splitlines()[0] == "rank 8, even: yes, signature (1, 7)"
    assert "ESTABLISHED" in out
    code, out, _ = _run(capsys, "example-delpezzo", "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["rank", "even", "signature", "report"]
    assert payload["rank"] == 8 and payload["even"] is True
    assert payload["signature"] == [1, 7]
    assert payload["report"]["status"] == "Success"


@pytest.mark.parametrize("command", ["theorem", "example-delpezzo"])
def test_cli_commands_that_read_no_config_refuse_one(capsys, tmp_path,
                                                     command):
    # -c is registered only on the commands that read it, so a lattice
    # passed here is a usage error instead of being silently ignored
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps(_doc(gram=[[4, 2], [2, 1]], k3=False)))
    for path in (degenerate, data_path("quartic_b2_4.json"),
                 tmp_path / "missing.json"):
        for flag in ("-c", "--config"):
            code, out, err = _run(capsys, command, flag, str(path))
            assert (code, out) == (2, ""), (flag, path)
            assert "unrecognized arguments" in err
    code, out, _ = _run(capsys, command, "--help")
    assert code == 0 and "--config" not in out


def test_cli_bad_input_paths(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"rank": 2,')
    code, _, err = _run(capsys, "lattice-info", "-c", str(broken))
    assert code == 2
    code, _, err = _run(capsys, "classify", "--class", "0,1")
    assert code == 2  # config required
    code, _, _ = _run(capsys)
    assert code == 2  # argparse usage error, not a traceback
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2
    code, _, _ = _run(capsys, "--help")
    assert code == 0


def _over_the_cap():
    from k3acm.config import _MAX_CONFIG_BYTES
    text = json.dumps(_doc())
    return text + " " * (_MAX_CONFIG_BYTES + 1 - len(text))


def _limit_memory():
    # a reader that reads /dev/zero without bound fails here instead of
    # taking the machine's memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("content", [
    pytest.param(b'{"labels": ["\xff"]}', id="not-utf8"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    pytest.param('{"rank": ' + "1" * 5000 + "}", id="5000-digit-int"),
    pytest.param(_over_the_cap, id="one-byte-over-the-cap"),
    pytest.param("/dev/zero", id="dev-zero"),
])
def test_cli_refuses_unreadable_config_files_as_bad_input(tmp_path,
                                                          content):
    if content == "/dev/zero":
        if not os.path.exists(content):
            pytest.skip("no /dev/zero here")
        path = content
    else:
        if callable(content):
            content = content()
        if isinstance(content, str):
            content = content.encode()
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "k3acm", "lattice-info", "-c", str(path)],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_memory if os.name == "posix" else None)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert elapsed < 10, elapsed


def test_a_config_at_the_byte_cap_loads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(_over_the_cap()[:-1])
    assert load_config(path)[0].rank == 2


@pytest.mark.parametrize("module", ["k3acm", "k3acm.cli"])
def test_cli_entry_point_subprocess(module):
    proc = subprocess.run(
        [sys.executable, "-m", module,
         "enumerate", "--preset", "i-a", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"solutions": [[3, -2]]}


# ---- refused configs: the exact text of each refusal ------------------------

# each malformed config: what -c names and the error line (after "error: ")
# that lattice-info and verify both print for it; {dir} is its directory
_REFUSALS = {
    "missing-file": "cannot read config {dir}/cfg.json: [Errno 2] No such "
                    "file or directory: '{dir}/cfg.json'",
    "directory": "cannot read config {dir}/cfg.json: [Errno 21] Is a "
                 "directory: '{dir}/cfg.json'",
    "empty-path": "cannot read config .: [Errno 21] Is a directory: '.'",
    "dev-zero": "config /dev/zero is longer than 4194304 bytes",
    "empty-file": "config is not valid JSON: Expecting value: line 1 "
                  "column 1 (char 0)",
    "not-utf8": "config {dir}/cfg.json is not UTF-8: 'utf-8' codec can't "
                "decode byte 0xff in position 13: invalid start byte",
    "invalid-json": "config is not valid JSON: Expecting property name "
                    "enclosed in double quotes: line 1 column 12 (char 11)",
    "unknown-key": "unknown config keys: ['extra']",
    "bool-in-gram": "gram row 0 must contain only ints",
    "float-in-ample": "ample must contain only ints",
    "short-row": "gram row 1 must be a list of 2 ints",
    "non-int-subject": "assumption subject must contain only ints",
    "duplicate-labels": "basis labels must be distinct",
    "odd-k3-diagonal": "K3 lattice needs an even diagonal; gram[1][1]=-3",
    "wrong-signature": "K3 lattice needs signature (1, 1), got (2, 0)",
    "nonpositive-ample": "ample class (0, 1) has self-intersection -2 <= 0",
}

_MALFORMED = {
    "empty-file": b"",
    "not-utf8": b'{"labels": ["\xff"]}',
    "invalid-json": b'{"rank": 2,',
    "unknown-key": _doc(extra=1),
    "bool-in-gram": _doc(gram=[[4, True], [1, -2]]),
    "float-in-ample": _doc(ample=[1.0, 0]),
    "short-row": _doc(gram=[[4, 1], [1]]),
    "non-int-subject": _doc(assumptions=[{"subject": [0, "1"],
                                          "kind": "Empty"}]),
    "duplicate-labels": _doc(labels=["h", "h"]),
    "odd-k3-diagonal": _doc(gram=[[4, 1], [1, -3]]),
    "wrong-signature": _doc(gram=[[4, 0], [0, 2]]),
    "nonpositive-ample": _doc(ample=[0, 1]),
}


def _malformed_config(tmp_path, case) -> str:
    """The -c argument of a refused config, its file written first."""
    path = tmp_path / "cfg.json"
    if case == "empty-path":
        return ""
    if case == "dev-zero":
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero here")
        return "/dev/zero"
    if case == "directory":
        path.mkdir()
    elif case != "missing-file":
        content = _MALFORMED[case]
        path.write_bytes(content if isinstance(content, bytes)
                         else json.dumps(content).encode())
    return str(path)


@pytest.mark.parametrize("command", [
    ["lattice-info"], ["lattice-info", "--json"],
    ["verify", "--script", "case-B24"],
], ids=["lattice-info", "lattice-info-json", "verify"])
@pytest.mark.parametrize("case", _REFUSALS)
def test_cli_refuses_a_malformed_config_with_its_own_text(capsys, tmp_path,
                                                          command, case):
    argv = [*command, "-c", _malformed_config(tmp_path, case)]
    expected = "error: " + _REFUSALS[case].format(dir=tmp_path) + "\n"
    assert _run(capsys, *argv) == (2, "", expected)


# ---- a closed stdout ------------------------------------------------------------

# what the k3acm console script (k3acm.cli:main) runs
_CONSOLE_ENTRY = "import sys; from k3acm.cli import main; sys.exit(main())"


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def _argparse_drops_a_failed_help_write() -> bool:
    """Whether this Python's argparse ignores an OSError from writing its
    help text.  Some releases do (ArgumentParser._print_message holds a
    try); others let it out of parse_args, to main's closed-pipe path."""
    try:
        argparse.ArgumentParser(prog="probe").print_help(_ClosedStdout())
    except BrokenPipeError:
        return False
    return True


@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["example-delpezzo"], ["example-delpezzo", "--json"], ["--help"],
], ids=["text", "json", "help"])
@pytest.mark.parametrize("entry", [
    ["-m", "k3acm"], ["-m", "k3acm.cli"], ["-c", _CONSOLE_ENTRY],
], ids=["python-m-k3acm", "python-m-k3acm-cli", "console-entry"])
def test_a_closed_stdout_ends_the_run_quietly(entry, argv, unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child starts
    try:
        proc = subprocess.run([sys.executable, *entry, *argv], stdout=write,
                              stderr=subprocess.PIPE, timeout=120,
                              env={**os.environ,
                                   "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    # an unbuffered help write fails inside argparse: it exits 0 where
    # argparse drops that error, else the error reaches main; a buffered
    # one fails only at main's flush
    unbuffered_help = argv == ["--help"] and unbuffered
    dropped = unbuffered_help and _argparse_drops_a_failed_help_write()
    code = 0 if dropped else 141
    # no traceback and no exit-time "Exception ignored" line
    assert (proc.returncode, proc.stderr) == (code, b"")


@pytest.mark.parametrize("argv", [
    ["example-delpezzo"], ["example-delpezzo", "--json"],
    ["verify", "--script", "case-B24", "--json"],
    ["lattice-info", "-c", str(data_path("quartic_b2_4.json"))],
], ids=["text", "json", "verify", "lattice-info"])
def test_main_returns_141_when_a_write_to_stdout_fails(capsys, monkeypatch,
                                                       argv):
    stdout = _ClosedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 141
    assert sys.stdout is stdout
    assert capsys.readouterr().err == ""
