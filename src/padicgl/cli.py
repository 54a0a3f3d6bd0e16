"""Command-line driver with deterministic JSON output.

Each subcommand is declared once, in ``_SUBCOMMANDS``: the module that holds
its handler and the flags that handler reads.  The handlers live in two
halves that share only ``common``: ``cli_langlands`` (the twelve
subcommands on classification data and Weil-Deligne representations, over
``qexact`` ... ``jsonio``) and ``cli_padic`` (``witt``, ``skewfield`` and
``dieudonne``, over ``wittring`` and ``cyclicalg``).  This module imports
neither; ``main`` imports the chosen subcommand's half after argparse has
read the command line, so a call compiles and runs only that half.

Exit codes: 0 on success, 1 on module errors
(structured {error, detail}), 2 on argparse usage errors and on a payload
that is not JSON or has a field that does not fit (the detail starts with
the field's JSON path).  Two runs on identical input are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module

from .common import PayloadError

_RINGS = {"Q": False, "Z": False, "Fp": False, "Zmod": True, "Fq": True}  # name: takes ":n"


def _ring(spec: str):
    """``--ring`` as (name, n or None): Q, Z, Fp, Zmod:m or Fq:r.  Only the
    spelling is checked here; the witt handler builds the ring, and the
    ring refuses an n out of range."""
    name, colon, n = spec.partition(":")
    if _RINGS.get(name) != bool(colon):
        raise argparse.ArgumentTypeError(f"unknown coefficient ring {spec!r}")
    if not colon:
        return name, None
    try:
        return name, int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{spec!r}: {n!r} is not an integer") from None


_FLAGS = {
    "--registry": dict(default=None, help="label registry JSON path"),
    "--p": dict(type=int, default=3),
    "--f": dict(type=int, default=1),
    "--d": dict(type=int, default=0),
    "--npsi": dict(type=int, default=0),
    "--precision": dict(type=int, default=4),
    "--input": dict(default="-", help="payload JSON path or - for stdin"),
    "--output": dict(default="-", help="output path or - for stdout"),
    "--mode": dict(choices=["artin", "epsDegree"], default="artin"),
    "--resolve": dict(action="store_true"),
    "--ring": dict(type=_ring, default="Q", help="Q, Z, Zmod:m, Fp or Fq:r"),
    "--length": dict(type=int, default=3),
    "--r": dict(type=int, required=True),
    "--s": dict(type=int, required=True),
    "--rank": dict(type=int, required=True),
    "--etale-height": dict(type=int, required=True),
    "--residue-degree": dict(type=int, default=1),
}
_LANGLANDS = ("--registry", "--p", "--f", "--d", "--npsi", "--input", "--output")

# name, the module that holds its handler run_<name> ("-" read as "_"),
# the flags the handler reads
_SUBCOMMANDS = (
    ("rec", "cli_langlands", _LANGLANDS),
    ("rec-inverse", "cli_langlands", _LANGLANDS),
    ("satake", "cli_langlands", _LANGLANDS),
    ("lfactor", "cli_langlands", _LANGLANDS),
    ("lfactor-pair", "cli_langlands", _LANGLANDS),
    ("eps", "cli_langlands", _LANGLANDS),
    ("conductor", "cli_langlands", _LANGLANDS + ("--mode",)),
    ("dictionary", "cli_langlands", _LANGLANDS),
    ("involution", "cli_langlands", _LANGLANDS + ("--resolve",)),
    ("dual", "cli_langlands", _LANGLANDS),
    ("classify-predicates", "cli_langlands", _LANGLANDS),
    ("verify", "cli_langlands", _LANGLANDS),
    ("witt", "cli_padic", ("--p", "--ring", "--length", "--input", "--output")),
    ("skewfield", "cli_padic", ("--p", "--f", "--r", "--s", "--precision", "--input", "--output")),
    ("dieudonne", "cli_padic",
     ("--p", "--f", "--rank", "--etale-height", "--residue-degree", "--precision", "--output")),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  Given a command, only that
    subcommand gets its flags: argparse parses the words after a subcommand
    with that subcommand's parser alone, so the others need none."""
    top = argparse.ArgumentParser(prog="padicgl")
    sub = top.add_subparsers(dest="command", required=True)
    for name, module, flags in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        if command in (None, name):
            for flag in flags:
                sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(module=module)
    return top


def _handler(args):
    """The chosen subcommand's handler.  Its module is imported only now, so
    a call loads the Langlands half or the p-adic half of padicgl, never both."""
    module = import_module(f".{args.module}", __package__)
    return getattr(module, "run_" + args.command.replace("-", "_"))


def _dump(result) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        # serialising inside the try: json.dumps itself can fail, e.g. on an
        # integer longer than Python's int-to-str digit limit
        text = _dump(_handler(args)(args))
        status = 0
    except (json.JSONDecodeError, PayloadError) as exc:
        text = _dump({"error": "parse", "detail": str(exc)})
        status = 2
    except (ValueError, ArithmeticError, OSError) as exc:
        text = _dump({"error": type(exc).__name__, "detail": str(exc)})
        status = 1
    except Exception as exc:  # never leak a stack trace
        text = _dump({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"})
        status = 1
    finally:  # witt raises Python's int-to-str digit limit for its result only
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)

    if args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            return status
        except OSError as exc:
            text = _dump({"error": type(exc).__name__, "detail": str(exc)})
            status = 1
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
