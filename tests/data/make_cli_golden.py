"""Write cli_golden.jsonl: argv, stdin, stdout and exit status of padicgl
calls over every subcommand but ``witt`` (which witt_golden.jsonl pins).

    PYTHONPATH=src python3 tests/data/make_cli_golden.py

Rows come from three sources:
- the cli-spawn benchmark generator (``perfbench/cli_spawn.py``), whose
  rounds cover the twelve Langlands subcommands, ``skewfield`` and
  ``dieudonne``, at seeds SEEDS;
- a grid of ``skewfield`` and ``dieudonne`` calls over small p, f, s, r and
  rank;
- calls that exit 1 (module errors) and 2 (payload errors).

Every call runs in-process through ``padicgl.cli.main``.  A ``--registry``
argument is written as REGISTRY_TOKEN; the replaying test substitutes
cli_golden_registry.json (a copy of the benchmark's registry) for it.
Rerunning this script rewrites the file from the code it imports, so run it
only to record an intended change of output, and list the changed rows.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT))

from padicgl.cli import main  # noqa: E402
from perfbench import cli_spawn  # noqa: E402
from perfbench.common import REGISTRY_PATH, make_registry  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from padicgl.qexact import LocalFieldContext  # noqa: E402

REGISTRY_TOKEN = "@registry"
SEEDS = (11, 12, 13)
ROUNDS = 8

SP = '{{"blocks":[{{"label":"1","x":[0,1],"m":{m}}}]}}'
ERROR_CALLS = [
    # exit 1: module errors
    (["rec", "--p", "4"], '{"form":"Q","segments":[{"label":"1","x":[0,1],"m":1}]}'),
    (["lfactor", "--p", "3", "--f", "0"], SP.format(m=2)),
    (["rec", "--p", "3"], '{"form":"Z","segments":[{"label":"1","x":[0,1],"m":2}]}'),
    (["rec", "--p", "3"], '{"form":"Q","segments":[{"label":"nope","x":[0,1],"m":1}]}'),
    (["involution", "--p", "3", "--resolve"],
     '{"form":"Z","segments":[{"label":"1","x":[0,1],"m":2},{"label":"1","x":[5,1],"m":1}]}'),
    (["lfactor", "--p", "3"], SP.format(m=10000)),
    (["skewfield", "--p", "2", "--r", "2", "--s", "4"], '{"op":"invariant"}'),
    (["skewfield", "--p", "2", "--r", "1", "--s", "2"], '{"op":"pi-power","e":-1}'),
    (["skewfield", "--p", "2", "--r", "1", "--s", "1", "--precision", "15000"],
     '{"op":"mul","x":[[-1]],"y":[[1]]}'),
    (["dieudonne", "--p", "2", "--rank", "2", "--etale-height", "3"], ""),
    (["dieudonne", "--p", "6", "--rank", "2", "--etale-height", "1"], ""),
    # exit 2: payload errors
    (["rec", "--p", "3"], "this is not json"),
    (["rec", "--p", "3"], ""),
    (["lfactor", "--p", "3"], '{"blocks":[{"label":"1","m":"abc"}]}'),
    (["eps", "--p", "3"], '{"blocks":5}'),
    (["satake", "--p", "3"], '{"direction":"sideways"}'),
    (["verify", "--p", "3"], '{"data":{"segments":[{"label":"1"}]},"chi":{"label":1}}'),
    (["lfactor-pair", "--p", "3"], '{"left":{"segments":[]}}'),
    (["skewfield", "--p", "2", "--r", "1", "--s", "2"], '{"op":"norm","x":[[1, "2"]]}'),
    (["skewfield", "--p", "2", "--r", "1", "--s", "2"], '{"op":"cube"}'),
]


def run(argv, stdin_text):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            status = main(list(argv))
    finally:
        sys.stdin = saved
    return status, out.getvalue()


def spawn_calls():
    contexts = []
    for p, f, d, n_psi in cli_spawn.CONTEXTS:
        ctx = LocalFieldContext(p, f, d, n_psi)
        contexts.append((ctx, make_registry(ctx)))
    quiet = Tracer(False)
    for seed in SEEDS:
        rng = random.Random(seed)
        for index in range(ROUNDS):
            for item in cli_spawn._round(rng, index, contexts):
                if item.argv[0] == "witt":
                    continue
                yield list(item.argv), cli_spawn._stdin_text(cli_spawn._encode(item, quiet))


def grid_calls():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for f in (1, 2):
            for s in (1, 2, 3, 4):
                precision = s + 1
                for r in [r for r in range(1, s + 1) if gcd(r, s) == 1]:
                    flags = ["--p", str(p), "--f", str(f), "--r", str(r), "--s", str(s),
                             "--precision", str(precision)]
                    x = [[rng.randrange(p ** precision) for _ in range(f * s)] for _ in range(s)]
                    y = [[rng.randrange(p ** precision) for _ in range(f * s)] for _ in range(s)]
                    for doc in ({"op": "mul", "x": x, "y": y}, {"op": "norm", "x": x},
                                {"op": "invariant"}, {"op": "embed", "x": x},
                                {"op": "pi-power", "e": rng.randint(0, 2 * s)}):
                        yield ["skewfield"] + flags, json.dumps(doc)
            for rank in range(1, 5):
                for etale in range(rank + 1):
                    for degree in (1, 2):
                        yield (["dieudonne", "--p", str(p), "--f", str(f), "--rank", str(rank),
                                "--etale-height", str(etale), "--residue-degree", str(degree),
                                "--precision", "3"], "")


def main_() -> None:
    registry = str(REGISTRY_PATH)
    rows = []
    for argv, stdin_text in [*spawn_calls(), *grid_calls(), *ERROR_CALLS]:
        status, stdout = run(argv, stdin_text)
        argv = [REGISTRY_TOKEN if a == registry else a for a in argv]
        rows.append(json.dumps({"argv": argv, "payload": stdin_text, "stdout": stdout, "status": status}))
    (HERE / "cli_golden.jsonl").write_text("\n".join(rows) + "\n")
    (HERE / "cli_golden_registry.json").write_text(REGISTRY_PATH.read_text())
    print(f"{len(rows)} rows")


if __name__ == "__main__":
    main_()
