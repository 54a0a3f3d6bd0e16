import io
import json
import subprocess
import sys
import time

import pytest

from helpers import REGISTRY_DOC
from padicgl.cli import main
from padicgl.wittring import GFRing, IntegerRing, WittContext, ghost

ST2 = '{"form":"Q","segments":[{"label":"1","x":[-1,2],"m":2}]}'
SP3 = '{"blocks":[{"label":"1","x":[0,1],"m":3}]}'


def run_cli(args, payload=None, registry_path=None, timeout=None):
    cmd = [sys.executable, "-m", "padicgl.cli"] + args
    if registry_path:
        cmd += ["--registry", str(registry_path)]
    proc = subprocess.run(
        cmd, input=payload or "", capture_output=True, text=True, timeout=timeout
    )
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def registry_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("reg") / "registry.json"
    path.write_text(json.dumps(REGISTRY_DOC))
    return path


def test_rec_steinberg_golden():
    code, out = run_cli(["rec", "--p", "3"], ST2)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"blocks": [{"label": "ur(1,0,0)", "m": 2, "x": [-1, 2]}]}


def test_rec_inverse_round_trip():
    code, out = run_cli(["rec", "--p", "3"], ST2)
    code2, out2 = run_cli(["rec-inverse", "--p", "3"], out)
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["form"] == "Q" and doc["segments"][0]["m"] == 2


def test_lfactor_sp3_rendering():
    code, out = run_cli(["lfactor", "--p", "3"], SP3)
    assert code == 0
    assert json.loads(out)["rendered"] == "(1 - q^-2 T)^-1"


def test_lfactor_pair():
    payload = json.dumps({"left": json.loads(ST2), "right": json.loads(ST2)})
    code, out = run_cli(["lfactor-pair", "--p", "3"], payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["inductive_matches_wd"] is True
    assert doc["rendered"] == "(1 - T)^-1 * (1 - q^-1 T)^-1"


def test_satake_both_directions():
    payload = json.dumps(
        {"direction": "toWD", "values": [{"re": [1, 1]}, {"re": [1, 9]}]}
    )
    code, out = run_cli(["satake", "--p", "3"], payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["form"] == "Q" and len(doc["segments"]) == 2
    back = json.dumps({"direction": "fromRep", "data": doc})
    code, out = run_cli(["satake", "--p", "3"], back)
    assert code == 0
    values = json.loads(out)["values"]
    assert {tuple(v["re"]) for v in values} == {(1, 1), (1, 9)}


def test_eps_and_conductor():
    code, out = run_cli(["eps", "--p", "3", "--d", "0"], SP3)
    assert code == 0
    doc = json.loads(out)
    # eps(Sp(3)) = q^(-1) at d = 0
    assert doc["mono"]["re"] == [1, 3] and doc["sSlope"] == [0, 1]
    code, out = run_cli(["conductor", "--p", "3", "--mode", "artin"], SP3)
    assert json.loads(out)["value"] == [2, 1]
    code, out = run_cli(["conductor", "--p", "3", "--mode", "epsDegree"], SP3)
    assert json.loads(out)["value"] == [0, 1]


def test_dictionary_and_predicates(registry_file):
    code, out = run_cli(["dictionary", "--p", "3"], ST2, registry_file)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 6 and all(r["agree"] for r in rows)
    code, out = run_cli(["classify-predicates", "--p", "3"], ST2)
    doc = json.loads(out)
    assert doc["essentially_square_integrable"] and not doc["unramified"]


def test_involution_and_dual():
    code, out = run_cli(["involution", "--p", "3"], ST2)
    assert json.loads(out)["form"] == "Z"
    z_doc = out
    code, out = run_cli(["involution", "--p", "3", "--resolve"], z_doc)
    doc = json.loads(out)
    assert doc["form"] == "Q" and len(doc["segments"]) == 2
    code, out = run_cli(["dual", "--p", "3"], ST2)
    assert json.loads(out)["segments"][0]["x"] == [-1, 2]
    code, out = run_cli(["dual", "--p", "3"], SP3)
    doc = json.loads(out)
    assert doc["blocks"][0]["x"] == [-4, 2]


def test_verify_subcommand(registry_file):
    payload = json.dumps(
        {"data": json.loads(ST2), "chi": {"label": "1", "x": [2, 2]}}
    )
    code, out = run_cli(["verify", "--p", "3"], payload, registry_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["all"] is True


def test_witt_subcommand():
    payload = json.dumps({"op": "add", "x": [1, 0], "y": [1, 0]})
    code, out = run_cli(["witt", "--p", "2", "--ring", "Z", "--length", "2"], payload)
    assert json.loads(out)["result"] == [2, -1]
    payload = json.dumps({"op": "ghost", "x": ["1/2", "3", "0"]})
    code, out = run_cli(["witt", "--p", "2", "--ring", "Q", "--length", "3"], payload)
    assert code == 0
    payload = json.dumps({"op": "frobenius", "x": [[1, 1], [2, 0]]})
    code, out = run_cli(["witt", "--p", "3", "--ring", "Fq:2", "--length", "2"], payload)
    assert code == 0
    payload = json.dumps({"op": "witt-polynomial", "x": [1, 0, 1], "n": 2})
    code, out = run_cli(["witt", "--p", "2", "--ring", "Z", "--length", "3"], payload)
    assert json.loads(out)["result"] == 5


@pytest.mark.parametrize("ring,p,x,y", [
    (IntegerRing(), 2, [3, -2, 5, 1, -4, 2, 7], [-1, 4, 2, -3, 6, 1, -5]),
    (GFRing(3, 2), 3, [[1, 2], [0, 1], [2, 2], [1, 0], [2, 1]], [[2, 1], [1, 1], [0, 2], [2, 0], [1, 2]]),
])
def test_witt_lengths_beyond_the_universal_laws(ring, p, x, y):
    # W_7 over Z at p = 2 and W_5(F_9): the universal laws for these take
    # minutes to build
    spec = "Z" if isinstance(ring, IntegerRing) else f"Fq:{ring.r}"
    args = ["witt", "--ring", spec, "--p", str(p), "--length", str(len(x))]
    start = time.perf_counter()
    code, out = run_cli(args, json.dumps({"op": "mul", "x": x, "y": y}), timeout=60)
    assert code == 0 and time.perf_counter() - start < 5.0
    ctx = WittContext(ring, p, len(x))
    product = ctx.vector(x) * ctx.vector(y)
    assert json.loads(out)["result"] == [list(c) if isinstance(c, tuple) else c for c in product.coords]
    if isinstance(ring, IntegerRing):  # the ghost map is injective over Z
        assert ghost(product) == [a * b for a, b in zip(ghost(ctx.vector(x)), ghost(ctx.vector(y)))]


def test_skewfield_subcommand():
    payload = json.dumps({"op": "invariant"})
    code, out = run_cli(["skewfield", "--p", "2", "--r", "1", "--s", "2", "--precision", "4"], payload)
    assert json.loads(out)["invariant"] == [1, 2]
    payload = json.dumps({"op": "norm", "x": [[0], [1]]})
    code, out = run_cli(["skewfield", "--p", "2", "--r", "1", "--s", "2", "--precision", "4"], payload)
    doc = json.loads(out)
    assert doc["vD"] == [1, 2]
    payload = json.dumps({"op": "pi-power", "e": 2})
    code, out = run_cli(["skewfield", "--p", "2", "--r", "1", "--s", "2", "--precision", "4"], payload)
    doc = json.loads(out)
    assert doc["coeffs"][0][0] == 2 and doc["coeffs"][1] == [0, 0]
    payload = json.dumps({"op": "embed", "x": [[0], [1]]})
    code, out = run_cli(["skewfield", "--p", "2", "--r", "1", "--s", "2", "--precision", "4"], payload)
    assert json.loads(out)["matrix"][0][1][0] == 2


def test_skewfield_pi_power(monkeypatch, capsys):
    args = ["skewfield", "--p", "2", "--r", "1", "--s", "3", "--precision", "6"]
    for e in (10, 10 ** 9):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"op": "pi-power", "e": e})))
        start = time.perf_counter()
        assert main(args) == 0
        assert time.perf_counter() - start < 1.0
        # Pi^e = p^(r floor(e/s)) Pi^(e mod s); coefficients live in (Z/2^6)[x]/(F), deg F = 3
        expected = [[0, 0, 0]] * 3
        expected[e % 3] = [pow(2, e // 3, 2 ** 6), 0, 0]
        assert json.loads(capsys.readouterr().out)["coeffs"] == expected
    code, out = run_cli(args, json.dumps({"op": "pi-power", "e": -1}))
    assert code == 1 and json.loads(out)["error"] == "ValueError"


def test_skewfield_large_degree():
    args = ["skewfield", "--p", "2", "--r", "1", "--s", "11", "--precision", "6"]
    start = time.perf_counter()
    code, out = run_cli(args, json.dumps({"op": "invariant"}))
    assert code == 0 and json.loads(out)["invariant"] == [1, 11]
    code, out = run_cli(args, json.dumps({"op": "norm", "x": [[3, 1], [2], [0, 5]]}))
    assert code == 0 and json.loads(out)["vD"] == [0, 1]
    # a permutation-sum norm would need 11! terms per call
    assert time.perf_counter() - start < 5.0


def test_dieudonne_subcommand():
    code, out = run_cli(["dieudonne", "--p", "2", "--rank", "3", "--etale-height", "1", "--precision", "3"])
    doc = json.loads(out)
    assert doc["etale"] == 1 and doc["formal"] == 2
    assert doc["v_power_is_pi_on_formal"] is True


def test_outputs_deterministic(registry_file):
    invocations = [
        (["rec", "--p", "3"], ST2, None),
        (["dictionary", "--p", "5"], ST2, registry_file),
        (["lfactor", "--p", "2"], SP3, None),
    ]
    for args, payload, reg in invocations:
        _, out1 = run_cli(args, payload, reg)
        _, out2 = run_cli(args, payload, reg)
        assert out1 == out2


def test_error_paths():
    code, out = run_cli(["rec", "--p", "3"], "this is not json")
    assert code == 2
    assert json.loads(out)["error"] == "parse"
    # Z-form data cannot be fed to rec: module error, structured JSON
    z_payload = '{"form":"Z","segments":[{"label":"1","x":[0,1],"m":2}]}'
    code, out = run_cli(["rec", "--p", "3"], z_payload)
    assert code == 1
    doc = json.loads(out)
    assert "error" in doc and "detail" in doc
    # unknown label: module error
    code, out = run_cli(["rec", "--p", "3"], '{"form":"Q","segments":[{"label":"nope","x":[0,1],"m":1}]}')
    assert code == 1


def test_unserialisable_result_gives_structured_error():
    # q^-99999 has more digits than Python converts to a decimal string
    payload = '{"blocks":[{"label":"1","x":[0,1],"m":100000}]}'
    code, out = run_cli(["lfactor"], payload)
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error", "detail"} and doc["error"] == "ValueError"


def test_output_flag_with_equals(tmp_path):
    target = tmp_path / "out.json"
    code, out = run_cli(["lfactor", "--p", "3", f"--output={target}"], SP3)
    assert code == 0 and out == ""
    _, expected = run_cli(["lfactor", "--p", "3"], SP3)
    assert target.read_text() == expected


def test_unwritable_output_gives_structured_error(tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out = run_cli(["lfactor", "--p", "3", "--output", str(target)], SP3)
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error", "detail"} and doc["error"] == "FileNotFoundError"
    assert not target.exists()
