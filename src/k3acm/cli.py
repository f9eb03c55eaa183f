"""Command-line front end for the lattice workbench.

Exit codes: 0 = success / everything verified; 1 = a verification
failure (a failed claim, an unresolved branch, a search-box boundary
touch); 2 = bad input (unreadable config, malformed class argument,
conflicting assumptions, a search box outside 16..256, a config lattice
that is not a quartic presentation <h, B> of rank 2 with ample
h = (1, 0) and h^2 = 4 for destabilize or enumerate -c, a destabilizing
sweep on a presentation that is not hyperbolic); 3 = internal error (the
engine produced a false claim or left a shipped script with a gap); 141
(128 + SIGPIPE) = stdout was closed before the report was written.
Reports go to stdout, diagnostics to stderr.
"""

import argparse
import contextlib
import functools
import json
import os
import re
import sys

from .casework import (MODES, PRESET_IDS, PRESET_PRESENTATION,
                       elimination_to_json, engine_assumptions, enumerate_case,
                       enumerate_destabilizing, lemma_case, necessity_to_json,
                       report_to_json, run_script, script_by_tag,
                       verify_necessity)
from .casework.destabilize import QUERY_RULES
from .casework.presets import presentation
from .classifier import WINDOWS, acm_companions, is_initialized_acm
from .config import (assumption_to_json, config_to_json, data_path,
                     load_config, shipped_quartic_names)
from .errors import (BadParametersError, BoxTooSmallError,
                     DegenerateFormError, EngineError, WorkbenchError)
from .lattice import DivClass, Lattice


# the text of a class argument: comma-separated ASCII integers
_CLASS_TEXT = re.compile(r"-?[0-9]+(,-?[0-9]+)*")
# the commands whose parser has --class
_CLASS_COMMANDS = ("classify", "companions", "destabilize")


def _parse_class(text: str, lat: Lattice) -> DivClass:
    """Comma-separated basis coefficients in config label order, as
    _CLASS_TEXT spells them (int() alone takes spaces, '_' and non-ASCII
    digits; it still refuses a coordinate past Python's digit limit)."""
    try:
        if not _CLASS_TEXT.fullmatch(text):
            raise ValueError(text)
        coords = [int(part) for part in text.split(",")]
    except ValueError:
        raise BadParametersError(
            f"class argument must be comma-separated ints, got {text!r}") from None
    if len(coords) != lat.rank:
        raise BadParametersError(
            f"class argument has {len(coords)} coordinates, "
            f"the lattice has rank {lat.rank}")
    return DivClass(coords)


def _require_config(args) -> tuple:
    if args.config is None:
        raise BadParametersError(f"{args.command} needs -c/--config")
    return load_config(args.config)


def _replay(args, script, header, extra=None) -> int:
    """Run a derivation script and print its report: the JSON report,
    inside ``extra``'s keys when given, or the header, the steps and the
    verdict line."""
    report = run_script(script)
    if args.json:
        payload = report_to_json(report)
        print(json.dumps({**extra, "report": payload} if extra else payload))
        return 0 if report.success else 1
    if header:
        print(header)
    for st in report.steps:
        if st.kind == "axiom":
            line = f"  [axiom ] {st.label}"
            if st.detail:
                line += f": {st.detail}"
        else:
            mark = "ok    " if st.status == "Verified" else st.status
            line = f"  [{mark}] {st.label}: {st.detail}"
        print(line)
    print(report.summary())
    if not report.success:
        print("VERIFICATION FAILED")
    elif report.conclusion.kind == "contradiction":
        print("CONTRADICTION ESTABLISHED")
    else:
        print(f"ESTABLISHED: {report.conclusion.statement}")
    return 0 if report.success else 1


# ---- commands ------------------------------------------------------------------


def _cmd_lattice_info(args) -> int:
    lat, assumps = _require_config(args)
    try:
        signature = lat.signature()
    except DegenerateFormError:  # only a k3: false config can be degenerate
        signature = None
    if args.json:
        payload = config_to_json(lat, assumps)
        payload["signature"] = signature and list(signature)
        payload["even"] = lat.is_even()
        print(json.dumps(payload))
        return 0
    print(f"rank: {lat.rank}")
    print("labels: " + ", ".join(lat.labels))
    width = max(len(str(x)) for row in lat.gram for x in row)
    print("gram:")
    for row in lat.gram:
        print("  [" + " ".join(f"{x:>{width}}" for x in row) + "]")
    print(f"ample: {lat.ample}")
    print(f"k3 surface checks: {'on' if lat.k3 else 'off'}")
    print(f"signature: {signature or 'degenerate'}")
    print(f"even: {'yes' if lat.is_even() else 'no'}")
    if assumps:
        print("assumptions:")
        for a in assumps:
            print(f"  {a.kind.value} {a.subject}" + (f": {a.note}" if a.note else ""))
    else:
        print("assumptions: none")
    return 0


def _cmd_classify(args) -> int:
    lat, assumps = _require_config(args)
    b = _parse_class(args.class_arg, lat)
    cls = is_initialized_acm(lat, b, assumps)
    if args.json:
        print(json.dumps({
            "class": list(b.coords),
            "status": cls.status.value,
            "case": cls.case_tag,
            "missing": [assumption_to_json(m) for m in cls.missing],
        }))
        return 0
    print(cls.status.value)
    print(f"case: {cls.case_tag}")
    print(f"square: {lat.self_int(b)}, degree: {lat.deg(b)}")
    for m in cls.missing:
        print(f"needs: {m.kind.value} {m.subject} ({m.note})")
    return 0


def _cmd_companions(args) -> int:
    lat, assumps = _require_config(args)
    b = _parse_class(args.class_arg, lat)
    cls = is_initialized_acm(lat, b, assumps)
    companions = acm_companions(lat, b, cls, assumps)
    if args.json:
        print(json.dumps({
            "class": list(b.coords),
            "status": cls.status.value,
            "companions": [{"class": list(c.coords), "rule": rule}
                           for c, rule in companions],
        }))
        return 0
    print(f"{b} classifies {cls.status.value} (case {cls.case_tag})")
    for c, rule in companions:
        print(f"  {c}  {rule}")
    return 0


def _cmd_enumerate(args) -> int:
    spec = lemma_case(args.preset, box=args.box)
    if args.config is not None:
        lat, _ = load_config(args.config)
        want = PRESET_PRESENTATION[args.preset]
        if presentation(lat) != want:
            raise BadParametersError(
                f"config lattice does not present the preset {args.preset} "
                f"case (B^2, h.B) = {want}")
    solutions = enumerate_case(spec)
    if args.json:
        print(json.dumps({"solutions": [list(s) for s in solutions]}))
        return 0
    print(f"preset {args.preset}, box {args.box}: "
          f"{len(solutions)} solution(s)")
    for s, t in solutions:
        print(f"  s = {s}, t = {t}")
    return 0


def _cmd_destabilize(args) -> int:
    lat, assumps = _require_config(args)
    c = _parse_class(args.class_arg, lat)
    records = enumerate_destabilizing(lat, c, args.d,
                                      engine_assumptions(lat, assumps),
                                      mode=args.mode)
    resolved = all(r.resolved for r in records)
    if args.json:
        print(json.dumps({
            "curve": list(c.coords),
            "d": args.d,
            "mode": args.mode,
            "resolved": resolved,
            "records": [elimination_to_json(r) for r in records],
        }))
        return 0 if resolved else 1
    print(f"C = {c}, C^2 = {lat.self_int(c)}, d = {args.d}, mode = {args.mode}")
    for rec in records:
        where = (f"n^2 = {rec.n_square}, profile (h.N, B.N) = {rec.profile}"
                 if rec.profile is not None else "whole query"
                 if rec.outcome in QUERY_RULES
                 else f"n^2 = {rec.n_square}, whole branch")
        print(f"  {where}: {rec.outcome}"
              + (f" [len Z' = {rec.len_zprime}]" if rec.len_zprime else ""))
        for cl in rec.trace:
            print(f"      {cl.label}" + (f" ({cl.cite})" if cl.cite else ""))
    print("ALL BRANCHES RESOLVED" if resolved
          else "UNRESOLVED BRANCHES REMAIN")
    return 0 if resolved else 1


def _cmd_verify(args) -> int:
    script = script_by_tag(args.script)
    if args.config is not None:
        lat, _ = load_config(args.config)
        if lat.rank != script.lattice.rank:
            raise BadParametersError(
                f"config lattice has rank {lat.rank}, but script "
                f"{script.tag} replays on a rank-{script.lattice.rank} lattice")
        script = script.with_lattice(lat)
    return _replay(args, script, script.description)


def _cmd_theorem(args) -> int:
    rows = []
    all_ok = True
    for name in shipped_quartic_names():
        lat, assumps = load_config(data_path(name))
        report = verify_necessity(lat, DivClass((0, 1)), assumps, box=args.box)
        rows.append((name, report))
        all_ok = all_ok and report.verified
    # the verdict covers the seven presentations only if each replays once
    profiles = [r.profile for _, r in rows]
    missing = sorted(set(WINDOWS) - set(profiles))
    repeated = sorted({p for p in profiles if profiles.count(p) > 1})
    if missing or repeated:
        all_ok = False
        print(f"theorem: the configs miss the presentations {missing} and "
              f"repeat {repeated}", file=sys.stderr)
    if args.json:
        print(json.dumps({
            "configs": [dict(config=name, **necessity_to_json(r))
                        for name, r in rows],
            "status": "VERIFIED" if all_ok else "INCOMPLETE",
        }))
        return 0 if all_ok else 1
    for name, r in rows:
        line = (f"{name}: (B^2, h.B) = {r.profile} -> preset {r.preset_id}, "
                f"survivors {[list(s) for s in r.survivors]}: {r.status}")
        print(line)
        if r.substitution is not None:
            tag, target = r.substitution
            print(f"  reduced via {tag} to the presentation {target}")
        for m in r.matches:
            print(f"  survivor {m.survivor} -> {m.report.summary()}")
        for s in r.supports:
            print(f"  support -> {s.summary()}")
        for row in r.reductions:
            print(f"  tail t = {row.t}: {row.rule}")
    print(f"THEOREM NECESSITY: {'VERIFIED' if all_ok else 'INCOMPLETE'} "
          f"over {len(rows)} configs")
    return 0 if all_ok else 1


def _cmd_example_delpezzo(args) -> int:
    script = script_by_tag("delpezzo-cover")
    lat = script.lattice
    even, signature = lat.is_even(), lat.signature()
    return _replay(args, script,
                   f"rank {lat.rank}, even: {'yes' if even else 'no'}, "
                   f"signature {signature}",
                   {"rank": lat.rank, "even": even,
                    "signature": list(signature)})


# ---- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The k3acm argument parser, built on first use and shared after.
    ``commands`` maps each subcommand to its own parser (see main).

    Sharing is safe: a parse returns a fresh namespace on every call,
    and help text reads the terminal width each time it is formatted.
    """
    parser = argparse.ArgumentParser(
        prog="k3acm",
        description="Exact-arithmetic workbench for rank-2 aCM bundle "
                    "numerology on quartic K3 lattices.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add(name, func, help_text, *, config=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("-c", "--config", metavar="PATH",
                           help="lattice config file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable report")
        if name in _CLASS_COMMANDS:
            p.add_argument("--class", dest="class_arg", required=True,
                           metavar="S,T",
                           help="comma-separated basis coefficients")
        p.set_defaults(func=func)
        return p

    add("lattice-info", _cmd_lattice_info,
        "print rank, gram, signature and assumptions of a config")
    add("classify", _cmd_classify,
        "classify a divisor class against the initialized-aCM window")
    add("companions", _cmd_companions,
        "list the aCM companion classes of a classified divisor")
    enumerate_ = add("enumerate", _cmd_enumerate,
                     "solve one of the five bounded (s,t) constraint systems")
    enumerate_.add_argument("--preset", required=True, choices=PRESET_IDS)
    destabilize = add(
        "destabilize", _cmd_destabilize,
        "eliminate destabilizing subsheaf profiles for a curve class")
    destabilize.add_argument("--d", type=int, required=True,
                             help="length of the zero-scheme Z")
    destabilize.add_argument("--mode", choices=MODES, default="exact")
    verify = add("verify", _cmd_verify,
                 "replay a derivation script claim by claim")
    verify.add_argument("--script", required=True, metavar="TAG",
                        help="tag of a built-in derivation script")
    theorem = add(
        "theorem", _cmd_theorem,
        "replay the full classification over every shipped quartic config",
        config=False)
    add("example-delpezzo", _cmd_example_delpezzo,
        "verify the rank-8 double-cover lattice identities", config=False)
    for p in (enumerate_, theorem):
        p.add_argument("--box", type=int, default=32,
                       help="search box half-width, 16 to 256 (default 32)")
    return parser


def _join_class_values(argv: list[str]) -> list[str]:
    """``--class -1,2`` as ``--class=-1,2``.

    argparse reads a separate value that starts with '-' as an option, so
    a class with a negative first coordinate would never reach --class.
    Only a command that takes --class is joined, its unambiguous
    abbreviations --cl, --cla and --clas too (--c could be --config); on
    any other line argparse refuses the tokens as typed.  Only a token that
    is class text is joined; anything else is left for argparse to refuse.
    """
    if not argv or argv[0] not in _CLASS_COMMANDS:
        return argv
    names = ("--cl", "--cla", "--clas", "--class")
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in names and _CLASS_TEXT.fullmatch(arg):
            out[-1] = f"--class={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one command line.  The subcommand its first token names parses
    it alone, unless it holds ``--``; the top-level parser parses any other.
    A BrokenPipeError from stdout (``| head``) ends it with 141, nothing
    on stderr; some argparse releases drop one from their own help write."""
    parser = build_parser()
    argv = _join_class_values(sys.argv[1:] if argv is None else list(argv))
    command = argv and "--" not in argv and parser.commands.get(argv[0])
    try:
        try:
            if not command:
                args = parser.parse_args(argv)
            else:  # a leftover token is the top level's parse_args error
                args, extras = command.parse_known_args(argv[1:])
                if extras:
                    parser.error(f"unrecognized arguments: {' '.join(extras)}")
                args.command = argv[0]
            return args.func(args)
        except SystemExit as exc:
            # argparse exits 0 for --help, 2 for usage errors; never propagate
            return exc.code if isinstance(exc.code, int) else 2
        except EngineError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return 3
        except BoxTooSmallError as exc:
            print(f"boundary touch: {exc}", file=sys.stderr)
            return 1
        except WorkbenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:  # a closed pipe fails here, not at exit (no-op if no stdout)
            print(end="", flush=True)
    except BrokenPipeError:  # exit flushes stdout again: into devnull
        with contextlib.suppress(AttributeError, OSError):
            fd = sys.stdout.fileno()  # an in-memory stream has none
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 141


if __name__ == "__main__":
    sys.exit(main())
