import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REGISTRY_DOC
from padicgl import cli, cli_langlands
from padicgl.cli import main
from padicgl.wittring import WITT_BITS_CAP, GFRing, IntegerRing, RationalField, WittContext, ghost

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


def test_verify_refuses_a_chi_that_is_not_a_character(registry_file, monkeypatch, capsys):
    # only a registry gap is reported as a failed twist axiom
    payload = json.dumps({"data": json.loads(ST2), "chi": {"label": "tau2"}})
    argv = ["verify", "--p", "3", "--registry", str(registry_file)]
    assert _main_in_process(argv, payload, monkeypatch, capsys) == (
        1, {"error": "ValueError", "detail": "tensor character must have degree 1"})


@pytest.mark.parametrize("m", [0, 3])
def test_verify_refuses_a_chi_with_a_multiplicity(m, monkeypatch, capsys):
    # chi is one character: its m is refused, not dropped as if it were 1
    payload = json.dumps({"data": json.loads(ST2), "chi": {"label": "ur(1,0,1)", "m": m}})
    assert _main_in_process(["verify", "--p", "3"], payload, monkeypatch, capsys) == (
        2, {"error": "parse", "detail": f"chi.m: expected 1 (chi is a character), got {m}"})


@pytest.mark.parametrize("label", ["ur(1/0,0,0)", "ur(1,0/00,0)"])
def test_an_unramified_label_with_a_zero_denominator_is_unknown(label, monkeypatch, capsys):
    # the real and the imaginary part of ur(re,im,k)
    payload = json.dumps({"blocks": [{"label": label, "m": 2}]})
    assert _main_in_process(["lfactor", "--p", "3"], payload, monkeypatch, capsys) == (
        1, {"error": "RegistryError", "detail": f"unknown label {label!r}"})


@contextlib.contextmanager
def _int_digits(limit):
    """Python's int-to-str digit limit raised to limit, and restored."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("ring,x", [
    (IntegerRing(), list(range(1, 15))),
    (RationalField(), ["1/3"] + list(range(2, 15))),
])
def test_witt_prints_results_past_the_default_digit_limit(ring, x):
    # results below the Witt size cap with integers of 4,418 and 11,612 digits
    spec = "Z" if isinstance(ring, IntegerRing) else "Q"
    code, out = run_cli(["witt", "--ring", spec, "--p", "2", "--length", "14"],
                        json.dumps({"op": "mul", "x": x, "y": x}), timeout=60)
    ctx = WittContext(ring, 2, 14)
    vector = ctx.vector([Fraction(c) for c in x] if spec == "Q" else x)
    product = (vector * vector).coords
    with _int_digits(WITT_BITS_CAP):
        assert code == 0 and json.loads(out) == {"result": [str(c) if spec == "Q" else c for c in product]}
        assert max(len(str(c)) for c in product) > 4300


def test_witt_prints_a_product_at_the_size_cap():
    # both factors are within the cap; the product's top coordinate has twice its bits
    x = [2 ** 65535 + 1, 2 ** 131071 + 3]
    with _int_digits(3 * WITT_BITS_CAP):
        payload = json.dumps({"op": "mul", "x": x, "y": x})
        code, out = run_cli(["witt", "--ring", "Z", "--p", "2", "--length", "2"], payload, timeout=60)
        ctx = WittContext(IntegerRing(), 2, 2)
        product = (ctx.vector(x) * ctx.vector(x)).coords
        assert code == 0 and json.loads(out) == {"result": list(product)}
        assert product[1].bit_length() == 2 * WITT_BITS_CAP


def test_main_restores_the_digit_limit_after_witt(monkeypatch, capsys):
    before = sys.get_int_max_str_digits()
    argv = ["witt", "--ring", "Z", "--p", "2", "--length", "2"]
    assert _main_in_process(argv, '{"op":"add","x":[1,0],"y":[1,0]}', monkeypatch, capsys)[0] == 0
    assert sys.get_int_max_str_digits() == before


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


LANGLANDS_FLAGS = {"--registry", "--p", "--f", "--d", "--npsi", "--input", "--output"}
FLAG_SETS = {
    **{name: LANGLANDS_FLAGS for name in (
        "rec", "rec-inverse", "satake", "lfactor", "lfactor-pair", "eps", "dictionary",
        "dual", "classify-predicates", "verify")},
    "conductor": LANGLANDS_FLAGS | {"--mode"},
    "involution": LANGLANDS_FLAGS | {"--resolve"},
    "witt": {"--p", "--ring", "--length", "--input", "--output"},
    "skewfield": {"--p", "--f", "--r", "--s", "--precision", "--input", "--output"},
    "dieudonne": {"--p", "--f", "--rank", "--etale-height", "--residue-degree", "--precision", "--output"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
             for name, sp in sub.choices.items()}
    assert flags == FLAG_SETS
    for argv in (["witt", "--registry", "x"], ["lfactor", "--precision", "4"],
                 ["dieudonne", "--rank", "2", "--etale-height", "1", "--input", "-"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# usage errors, help, and calls whose first word is not a subcommand
PARSE_ARGV = [
    [], ["-h"], ["--help"], ["rec", "-h"], ["witt", "--help"], ["dieudonne", "-h"], ["rec", "--bogus"],
    ["foo"], ["--p", "3", "rec"], ["rec", "--ring", "Q"], ["witt", "--ring", "Zmod:abc"],
    ["skewfield", "--p", "2"], ["conductor", "--mode", "x"], ["--", "rec", "--p", "3"], ["rec", "--p"],
    ["rec", "--pr", "3"],
]


def _parse_outcome(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(ST2))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", PARSE_ARGV, ids=" ".join)
def test_the_chosen_subcommands_parser_answers_as_the_full_parser(argv, monkeypatch, capsys):
    chosen = _parse_outcome(argv, monkeypatch, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command: full(None))
    assert _parse_outcome(argv, monkeypatch, capsys) == chosen


def _main_in_process(argv, payload, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_padic_subcommands_build_no_langlands_context(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("a p-adic subcommand built a Langlands context")

    monkeypatch.setattr(cli_langlands, "LocalFieldContext", refuse)
    monkeypatch.setattr(cli_langlands, "load_registry", refuse)
    assert _main_in_process(["rec", "--p", "3"], ST2, monkeypatch, capsys)[0] == 1
    for argv, payload, key in [
        (["witt", "--p", "2", "--ring", "Z", "--length", "2"], '{"op":"add","x":[1,0],"y":[1,0]}', "result"),
        (["skewfield", "--p", "2", "--r", "1", "--s", "2"], '{"op":"invariant"}', "invariant"),
        (["dieudonne", "--p", "2", "--rank", "3", "--etale-height", "1"], "", "etale"),
    ]:
        code, doc = _main_in_process(argv, payload, monkeypatch, capsys)
        assert code == 0 and key in doc


def test_large_modulus_and_dieudonne_rank_answer_quickly():
    # Ben-Or's irreducibility test for the degree-40 modulus, and V^n by
    # square-and-multiply at rank 200
    start = time.perf_counter()
    code, out = run_cli(["skewfield", "--p", "2", "--r", "1", "--s", "40", "--precision", "4"],
                        '{"op":"invariant"}', timeout=60)
    assert code == 0 and json.loads(out)["invariant"] == [1, 40]
    assert time.perf_counter() - start < 10.0
    start = time.perf_counter()
    code, out = run_cli(["dieudonne", "--p", "2", "--rank", "200", "--etale-height", "100",
                         "--precision", "3"], timeout=60)
    doc = json.loads(out)
    assert code == 0 and (doc["etale"], doc["formal"]) == (100, 100)
    assert doc["v_power_is_pi_on_formal"] is True
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("argv,payload,key,answer", [
    (["witt", "--ring", "Fq:5", "--p", "1000000000000000003", "--length", "1"],
     '{"op":"add","x":[[1,2,3,4,5]],"y":[[1,0,0,0,1]]}', "result", [[2, 2, 3, 4, 6]]),
    (["skewfield", "--p", "1000000000000000003", "--r", "1", "--s", "5", "--precision", "2"],
     '{"op":"invariant"}', "invariant", [1, 5]),
])
def test_modulus_search_at_a_large_prime_answers_quickly(argv, payload, key, answer):
    # no binomial x^5 + c is irreducible mod p, as 5 does not divide p - 1:
    # a search through all p of them never answered
    start = time.perf_counter()
    code, out = run_cli(argv, payload, timeout=60)
    assert code == 0 and json.loads(out)[key] == answer
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("r", [30000001, 10 ** 10 + 1])
def test_pi_power_at_a_huge_r_answers_quickly(r):
    # Pi^s = p^r is used mod p^N only; r >= N, so Pi^64 = p^(32 r) = 0
    start = time.perf_counter()
    code, out = run_cli(["skewfield", "--p", "3", "--r", str(r), "--s", "2"],
                        '{"op":"pi-power","e":64}', timeout=60)
    assert code == 0 and json.loads(out)["coeffs"] == [[0, 0], [0, 0]]
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("argv", [
    ["skewfield", "--p", "2", "--r", "1", "--s", "2", "--precision", "10000"],
    ["skewfield", "--p", "3", "--r", "1", "--s", "5", "--precision", "2523"],
    ["dieudonne", "--p", "2", "--rank", "2", "--etale-height", "1", "--residue-degree", "20", "--precision", "1000"],
])
def test_precision_just_below_the_carrier_bits_cap_answers(argv, monkeypatch, capsys):
    payload = '{"op":"invariant"}' if argv[0] == "skewfield" else ""
    code, doc = _main_in_process(argv, payload, monkeypatch, capsys)
    assert code == 0, doc


@pytest.mark.parametrize("argv,detail", [
    (["skewfield", "--p", "2", "--r", "1", "--s", "2", "--precision", "10001"],
     "precision 10001 at carrier degree 2: degree * log2(p^N) = 20002 passes the cap of 20000"),
    (["skewfield", "--p", "3", "--r", "1", "--s", "5", "--precision", "2524"],
     "precision 2524 at carrier degree 5: degree * log2(p^N) = 20002 passes the cap of 20000"),
    (["skewfield", "--p", "2", "--r", "1", "--s", "40", "--precision", "501"],
     "precision 501 at carrier degree 40: degree * log2(p^N) = 20040 passes the cap of 20000"),
    (["skewfield", "--p", "2", "--r", "1", "--s", "40", "--precision", "4000"],
     "precision 4000 at carrier degree 40: degree * log2(p^N) = 160000 passes the cap of 20000"),
    (["dieudonne", "--p", "2", "--rank", "2", "--etale-height", "1", "--residue-degree", "20", "--precision", "1001"],
     "precision 1001 at carrier degree 20: degree * log2(p^N) = 20020 passes the cap of 20000"),
])
def test_precision_above_the_carrier_bits_cap_is_refused_at_once(argv, detail, monkeypatch, capsys):
    payload = '{"op":"invariant"}' if argv[0] == "skewfield" else ""
    start = time.perf_counter()
    assert _main_in_process(argv, payload, monkeypatch, capsys) == (1, {"error": "ValueError", "detail": detail})
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("argv,payload", [
    (["skewfield", "--p", "2", "--r", "-1", "--s", "2"], '{"op":"mul","x":[[1],[1]],"y":[[1],[1]]}'),
    (["skewfield", "--p", "2", "--r", "-3", "--s", "2"], '{"op":"norm","x":[[1],[1]]}'),
    (["skewfield", "--p", "2", "--r", "-1", "--s", "3"], '{"op":"invariant"}'),
])
def test_skewfield_refuses_negative_r(argv, payload, monkeypatch, capsys):
    # Pi^s = p^r with r < 0 is no element of the carrier: these printed floats
    r = argv[argv.index("--r") + 1]
    detail = f"r = {r} must be >= 0: Pi^s = p^r must lie in the carrier"
    assert _main_in_process(argv, payload, monkeypatch, capsys) == (1, {"error": "ValueError", "detail": detail})


@pytest.mark.parametrize("argv,payload,detail", [
    (["lfactor"], '{"blocks": 2}', "blocks: expected an array, got a number"),
    (["lfactor"], '{"blocks": "ur(1,0,0)"}', "blocks: expected an array, got a string"),
    (["lfactor"], '{"blocks":[{"label":"1","m":{}}]}', "blocks[0].m: expected an integer, got an object"),
    (["lfactor"], '{"blocks":[{"label":"1","m":"abc"}]}', "blocks[0].m: expected an integer, got a string"),
    (["rec"], '[{"label": "1"}]', "payload: expected an object, got an array"),
    (["rec"], '{"segments":[{"label":"1"},{"label":"1","x":[1,3]}]}',
     "segments[1].x: twists are serialized in integer or half units"),
    (["verify"], '{"data":{"segments":[{"label":"1"}]},"chi":{"label":1}}',
     "chi.label: expected a string, got a number"),
    (["witt", "--ring", "Z"], '{"op":"add","x":[1,0,0]}', "y: missing"),
    (["witt", "--ring", "Q", "--length", "1"], '{"op":"neg","x":["abc"]}',
     "x[0]: expected a rational number, got 'abc'"),
    (["skewfield", "--r", "1", "--s", "2"], '{"op":"norm","x":"x"}', "x: expected an array, got a string"),
    (["skewfield", "--r", "1", "--s", "2"], '{"op":"norm","x":[[1, "2"]]}',
     "x[0][1]: expected an integer, got a string"),
    # numbers that int() would truncate, and booleans, which Python reads as 0 or 1
    (["lfactor", "--p", "3"], '{"blocks":[{"label":"1","x":[1.5,1],"m":2}]}',
     "blocks[0].x[0]: expected an integer, got a number"),
    (["lfactor"], '{"blocks":[{"label":"1","m":2.9}]}', "blocks[0].m: expected an integer, got a number"),
    (["lfactor"], '{"blocks":[{"label":"1","m":true}]}', "blocks[0].m: expected an integer, got a boolean"),
    (["satake"], '{"direction":"toWD","values":[{"re":[1.5,2]}]}',
     "values[0].re[0]: expected an integer, got a number"),
    (["satake"], '{"direction":"toWD","values":[{"re":[1,1],"k":0.5}]}',
     "values[0].k: expected an integer, got a number"),
    (["skewfield", "--r", "1", "--s", "2"], '{"op":"pi-power","e":2.7}', "e: expected an integer, got a number"),
    (["skewfield", "--r", "1", "--s", "2"], '{"op":"norm","x":[[true]]}',
     "x[0][0]: expected an integer, got a boolean"),
    (["witt", "--ring", "Z", "--length", "2"], '{"op":"neg","x":[true,0]}', "x[0]: expected a number, got a boolean"),
    (["witt", "--ring", "Fq:2", "--length", "1"], '{"op":"neg","x":[[1,false]]}',
     "x[0][1]: expected an integer, got a boolean"),
    (["lfactor"], '{"blocks":[{"label":"1","x":[1%s,1]}]}' % ("0" * 5000),
     "payload: an integer has more than 4300 digits"),
    # a string is read as a rational only over Q; other rings quote it
    (["witt", "--p", "3", "--ring", "Z"], '{"op":"neg","x":["1","2","7"]}', "x[0]: cannot coerce '1' into Z"),
    (["witt", "--p", "3", "--ring", "Zmod:8"], '{"op":"neg","x":["1","2","7"]}',
     "x[0]: cannot coerce '1' into Z/8"),
    (["witt", "--p", "3", "--ring", "Fq:2"], '{"op":"neg","x":["1","2","7"]}',
     "x[0]: cannot coerce '1' into F_9"),
    (["witt", "--p", "3", "--ring", "Q"], '{"op":"neg","x":["1/0","2","7"]}',
     "x[0]: expected a rational number, got '1/0'"),
])
def test_payload_errors_name_the_field(argv, payload, detail, monkeypatch, capsys):
    assert _main_in_process(argv, payload, monkeypatch, capsys) == (2, {"error": "parse", "detail": detail})


def test_registry_product_missing_a_field(tmp_path, monkeypatch, capsys):
    registry = tmp_path / "registry.json"
    for registry_doc, detail in [
        ({"labels": [], "products": [{"right": "xi", "result": "tau2xi"}]}, "products[0].left: missing"),
        ({"labels": [5]}, "labels[0]: expected an object, got a number"),
        ({"labels": 5}, "labels: expected an array, got a number"),
        ({"labels": [{"name": "1", "kind": "unramified-char", "degree": [1]}]},
         "labels[0].degree: expected an integer, got an array"),
    ]:
        registry.write_text(json.dumps(registry_doc))
        code, doc = _main_in_process(["rec", "--registry", str(registry)], ST2, monkeypatch, capsys)
        assert code == 1 and doc == {"error": "RegistryError", "detail": detail}


@pytest.mark.parametrize("ring", ["Zmod:abc", "Fq:x", "Foo"])
def test_misspelt_witt_ring_is_a_usage_error(ring, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"op":"neg","x":[1,0,0]}'))
    with pytest.raises(SystemExit) as exc:
        main(["witt", "--ring", ring])
    assert exc.value.code == 2
    assert "argument --ring: " in capsys.readouterr().err


@pytest.mark.parametrize("ring,detail", [
    ("Zmod:0", "modulus must be >= 2"), ("Fq:0", "extension degree must be >= 1"),
])
def test_witt_ring_out_of_range_is_the_ring_refusal(ring, detail, monkeypatch, capsys):
    payload = '{"op":"neg","x":[1,0,0]}'
    assert _main_in_process(["witt", "--ring", ring], payload, monkeypatch, capsys) == (
        1, {"error": "ValueError", "detail": detail})


# -- any JSON payload gets JSON stdout and an honest exit code ---------------

PROPERTY_ARGV = [
    ["rec"], ["rec-inverse"], ["satake"], ["lfactor"], ["lfactor-pair"], ["eps"],
    ["conductor", "--mode", "epsDegree"], ["dictionary"], ["involution", "--resolve"], ["dual"],
    ["classify-predicates"], ["verify"],
    ["witt", "--p", "2", "--ring", "Q"], ["witt", "--p", "2", "--ring", "Z"],
    ["witt", "--p", "2", "--ring", "Zmod:4"], ["witt", "--p", "3", "--ring", "Fq:2"],
    ["skewfield", "--p", "2", "--r", "1", "--s", "3"],
    ["dieudonne", "--p", "2", "--rank", "3", "--etale-height", "1"],
]
# field names and values of the payload schemas, so that drawn documents
# reach past the first check
WORDS = ["op", "x", "y", "e", "n", "direction", "values", "data", "left", "right", "chi",
         "segments", "blocks", "form", "label", "m", "re", "im", "k",
         "add", "mul", "neg", "frobenius", "ghost", "ghost-inverse", "witt-polynomial", "norm",
         "invariant", "embed", "pi-power", "toWD", "fromRep", "Q", "Z", "1", "tau2", "xi",
         "ur(1,0,0)", "1/2", "-3/4"]
GOLDEN_PAYLOADS = [
    json.loads(ST2), json.loads(SP3),
    {"left": json.loads(ST2), "right": json.loads(SP3.replace("blocks", "segments"))},
    {"data": json.loads(ST2), "chi": {"label": "1", "x": [2, 2]}},
    {"direction": "toWD", "values": [{"re": [1, 1]}, {"re": [1, 9], "im": [0, 1], "k": 1}]},
    {"direction": "fromRep", "data": json.loads(ST2)},
    {"op": "mul", "x": [1, "1/2", 0], "y": [[1, 1], 2, 0], "n": 1},
    {"op": "norm", "x": [[1, 2, 3], [0, 1], []], "y": [[2]], "e": 4},
]
# integers stay small: the caps on Sp length, twist and Witt size are a
# separate open item, and this property is about the error labels
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 40) | st.floats(-8, 40)
    | st.sampled_from(WORDS) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_golden(draw):
    """A golden payload with one subtree replaced by a drawn JSON value."""
    doc = json.loads(json.dumps(draw(st.sampled_from(GOLDEN_PAYLOADS))))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(json_values)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _names_a_payload_field(detail, payload):
    """The detail starts with a JSON path into the payload: every step but
    the last (which may name a missing field) exists."""
    head = re.match(r"(payload|[a-z]+(?:\[\d+\]|\.[a-z]+)*): ", detail)
    if head is None:
        return False
    if head.group(1) == "payload":
        return True
    steps = [int(s[1:-1]) if s.startswith("[") else s.lstrip(".")
             for s in re.findall(r"\[\d+\]|\.?[a-z]+", head.group(1))]
    node = payload
    for step in steps[:-1]:
        node = node[step]
    return True


def _stdout_in_process(argv, text):
    """(exit status, stdout) of main(argv) reading text on stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=st.sampled_from(PROPERTY_ARGV), payload=json_values | mutated_golden())
def test_any_payload_gets_an_honest_answer(argv, payload):
    code, out = _stdout_in_process(argv, json.dumps(payload))
    doc = json.loads(out)
    assert code in (0, 1, 2)
    if code:
        assert set(doc) == {"error", "detail"} and doc["error"] != "internal", doc
    if code == 2:
        assert doc["error"] == "parse" and _names_a_payload_field(doc["detail"], payload), doc


WITT_GOLDEN = Path(__file__).parent / "data" / "witt_golden.jsonl"


def test_witt_golden_invocations():
    # argv, payload, stdout and exit status of 384 witt calls over Q, Z, F_p,
    # F_q and ten Z/m, p in {2, 3, 5}, lengths 1-6, all eight ops
    rows = [json.loads(line) for line in WITT_GOLDEN.read_text().splitlines()]
    assert len(rows) >= 300
    for row in rows:
        assert _stdout_in_process(row["argv"], row["payload"]) == (row["status"], row["stdout"]), row


CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden.jsonl"
CLI_GOLDEN_REGISTRY = Path(__file__).parent / "data" / "cli_golden_registry.json"


def test_cli_golden_invocations():
    # argv, payload, stdout and exit status of every subcommand but witt:
    # cli-spawn benchmark rounds, a skewfield/dieudonne grid, and exit 1 and
    # exit 2 calls (tests/data/make_cli_golden.py wrote them)
    rows = [json.loads(line) for line in CLI_GOLDEN.read_text().splitlines()]
    assert len(rows) >= 700
    for row in rows:
        argv = [str(CLI_GOLDEN_REGISTRY) if a == "@registry" else a for a in row["argv"]]
        assert _stdout_in_process(argv, row["payload"]) == (row["status"], row["stdout"]), row


def test_registry_that_is_not_json(tmp_path, monkeypatch, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text("not json")
    code, doc = _main_in_process(["rec", "--registry", str(registry)], ST2, monkeypatch, capsys)
    assert code == 1 and doc["error"] == "RegistryError"
    assert doc["detail"].startswith(f"{registry}: not a JSON document")


def test_registry_with_an_integer_past_the_digit_limit(tmp_path, monkeypatch, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text('[{"name": "1", "kind": "unramified-char", "degree": 1%s}]' % ("0" * 5000))
    code, doc = _main_in_process(["rec", "--registry", str(registry)], ST2, monkeypatch, capsys)
    assert (code, doc) == (1, {"error": "RegistryError",
                               "detail": f"{registry}: an integer has more than 4300 digits"})


@pytest.mark.parametrize("argv", [["lfactor", "--p", "3"], ["witt", "--ring", "Z"]])
def test_payload_nested_past_the_recursion_limit(argv, monkeypatch, capsys):
    code, doc = _main_in_process(argv, "[" * 100000, monkeypatch, capsys)
    assert (code, doc) == (2, {"error": "parse", "detail": "payload: nested deeper than the recursion limit of "
                                                            f"{sys.getrecursionlimit()}"})


def test_registry_nested_past_the_recursion_limit(tmp_path, monkeypatch, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text("[" * 100000)
    code, doc = _main_in_process(["rec", "--registry", str(registry)], ST2, monkeypatch, capsys)
    assert (code, doc) == (1, {"error": "RegistryError", "detail": f"{registry}: nested deeper than the recursion "
                                                                   f"limit of {sys.getrecursionlimit()}"})


def test_witt_reads_an_integer_past_the_default_digit_limit(monkeypatch, capsys):
    # witt raises Python's int-to-str limit before it reads its payload
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"op":"neg","x":[1%s]}' % ("0" * 5000)))
    assert main(["witt", "--ring", "Z", "--length", "1"]) == 0
    out = capsys.readouterr().out
    with _int_digits(6000):
        assert json.loads(out) == {"result": [-10 ** 5000]}


def test_integral_numbers_still_read_as_integers(monkeypatch, capsys):
    # a JSON number with an integral value, and a string of digits, keep
    # being read where an integer is expected
    plain = _main_in_process(["lfactor", "--p", "3"], SP3, monkeypatch, capsys)
    for payload in ('{"blocks":[{"label":"1","x":[0,1],"m":3.0}]}', '{"blocks":[{"label":"1","x":["0",1],"m":"3"}]}'):
        assert _main_in_process(["lfactor", "--p", "3"], payload, monkeypatch, capsys) == plain


def test_witt_over_z_at_a_large_p_is_refused_quickly():
    # x_0^(p^2) at p = 6007 would have about 7 * 10^7 bits
    start = time.perf_counter()
    code, out = run_cli(["witt", "--ring", "Z", "--p", "6007", "--length", "3"],
                        '{"op": "neg", "x": [3, 0, 0]}', timeout=60)
    doc = json.loads(out)
    assert code == 1 and doc["error"] == "ValueError" and "passes the cap of" in doc["detail"]
    assert time.perf_counter() - start < 2.0


def test_large_prime_p_answers_quickly():
    start = time.perf_counter()
    code, out = run_cli(["rec", "--p", "1000000000000000003"], ST2, timeout=10)
    assert code == 0 and json.loads(out)["blocks"][0]["m"] == 2
    assert time.perf_counter() - start < 2.0


SP = '{{"blocks":[{{"label":"1","x":[0,1],"m":{}}}]}}'


@pytest.mark.parametrize("argv,payload", [
    (["lfactor", "--p", "3", "--f", "100000000"], SP.format(2)),
    (["lfactor", "--p", "3"], '{"blocks":[{"label":"1","x":[200000001,2],"m":1}]}'),
    (["eps", "--p", "3", "--npsi", "1"], SP.format(3000000)),
    (["lfactor", "--p", "3"], SP.format(10 ** 8)),
    (["skewfield", "--p", "2", "--r", "1", "--s", "1", "--precision", "15000"],
     '{"op":"mul","x":[[-1]],"y":[[1]]}'),
    (["skewfield", "--p", "2", "--f", "2", "--r", "1", "--s", "3", "--precision", "100000"],
     '{"op":"invariant"}'),
])
def test_answers_past_the_printable_size_are_refused_quickly(argv, payload):
    # each ran past 30 s, or printed Python's int-to-str message, before the caps
    start = time.perf_counter()
    code, out = run_cli(argv, payload, timeout=60)
    doc = json.loads(out)
    assert code == 1 and doc["error"] == "ValueError" and "the cap of" in doc["detail"], doc
    assert time.perf_counter() - start < 2.0


def test_caps_just_below_and_just_above(monkeypatch, capsys):
    # Sp(m) has the L-coefficient q^(1-m): 3^9012 has 4300 digits, 3^9013 has 4301
    code, doc = _main_in_process(["lfactor", "--p", "3"], SP.format(9013), monkeypatch, capsys)
    assert code == 0 and doc["rendered"] == "(1 - q^-9012 T)^-1"
    assert doc["factors"][0]["a"]["re"] == [1, 3 ** 9012]
    code, doc = _main_in_process(["lfactor", "--p", "3"], SP.format(9014), monkeypatch, capsys)
    assert (code, doc) == (1, {"error": "ValueError", "detail": "q^-9013 would pass the cap of 14284 bits on powers"})
    # skewfield coefficients print mod 2^N: 2^14284 has 4300 digits, 2^14285 has 4301
    argv = ["skewfield", "--p", "2", "--r", "1", "--s", "1", "--precision"]
    code, doc = _main_in_process(argv + ["14284"], '{"op":"mul","x":[[-1]],"y":[[1]]}', monkeypatch, capsys)
    assert code == 0 and doc == {"coeffs": [[2 ** 14284 - 1]]}
    code, doc = _main_in_process(argv + ["14285"], '{"op":"mul","x":[[-1]],"y":[[1]]}', monkeypatch, capsys)
    assert (code, doc) == (1, {"error": "ValueError", "detail": "precision 14285: p^N = 2^14285 passes the cap of 4300 digits"})


@pytest.mark.parametrize("argv,payload,answer", [
    (["classify-predicates", "--p", "2"],
     '{"form":"Q","segments":[{"label":"s2","x":[14284,2],"m":2},{"label":"1","x":[1,2],"m":1}]}',
     {"essentially_square_integrable": False, "generic": True, "iwahori_spherical": False,
      "square_integrable": False, "supercuspidal": False, "tempered": False, "unramified": False}),
    (["verify", "--p", "2"],
     '{"data":{"form":"Q","segments":[{"label":"1","x":[7142,1],"m":2}]},"chi":{"label":"1","x":[1,1]}}',
     {"all": True, "central_character": True, "dual": True, "twist": True, "twist_detail": ""}),
])
def test_equality_on_twists_at_half_the_power_cap(argv, payload, answer, monkeypatch, capsys):
    # q^7142 is half the cap: a comparison that squared it refused these calls
    argv = argv + ["--registry", str(CLI_GOLDEN_REGISTRY)]
    assert _main_in_process(argv, payload, monkeypatch, capsys) == (0, answer)


ZMOD_2_1000 = f"Zmod:{2 ** 1000}"


@pytest.mark.parametrize("argv,payload,answer", [
    # witt: m p^(n-1) and p^(nr) have at most 1024 bits
    (["witt", "--ring", ZMOD_2_1000, "--p", "2", "--length", "25"], '{"op":"neg","x":[0]}', None),
    (["witt", "--ring", ZMOD_2_1000, "--p", "2", "--length", "26"], '{"op":"neg","x":[0]}',
     "W_26 at p = 2: the lift modulus m p^(n-1) has about 1025 bits, past the cap of 1024"),
    (["witt", "--ring", "Fq:40", "--p", "2", "--length", "25"], '{"op":"verschiebung","x":[0]}', None),
    (["witt", "--ring", "Fq:40", "--p", "2", "--length", "26"], '{"op":"verschiebung","x":[0]}',
     "W_26 at p = 2: p^(nr) has about 1040 bits, past the cap of 1024"),
    (["witt", "--ring", "Fq:41", "--p", "2", "--length", "1"], '{"op":"neg","x":[0]}',
     "extension degree 41 passes the cap of 40"),
    # skewfield: the carrier degree f s is at most 40, for norm too
    (["skewfield", "--p", "2", "--f", "20", "--r", "1", "--s", "2"], '{"op":"invariant"}', None),
    (["skewfield", "--p", "2", "--f", "41", "--r", "1", "--s", "1"], '{"op":"invariant"}',
     "extension degree 41 passes the cap of 40"),
    (["skewfield", "--p", "2", "--f", "24", "--r", "1", "--s", "1"], '{"op":"norm","x":[[1]]}', None),
    (["skewfield", "--p", "2", "--f", "25", "--r", "1", "--s", "1"], '{"op":"norm","x":[[1]]}', None),
    # dieudonne: rank n f u over W(F_p) is at most 400
    (["dieudonne", "--p", "2", "--f", "40", "--rank", "10", "--etale-height", "5"], "", None),
    (["dieudonne", "--p", "2", "--rank", "401", "--etale-height", "200"], "",
     "rank n f u = 401 passes the cap of 400"),
    # skewfield norm: s^4 (f s log2 p^N)^1.5 is at most 3 * 10^10
    (["skewfield", "--p", "2", "--r", "1", "--s", "24", "--precision", "83"], '{"op":"norm","x":[[1]]}', None),
    (["skewfield", "--p", "2", "--r", "1", "--s", "24", "--precision", "84"], '{"op":"norm","x":[[1]]}',
     "norm at s = 24 and f s log2(p^N) = 2016: s^4 (f s log2 p^N)^1.5 = 3.003e+10 passes the cap of 3e+10"),
    (["skewfield", "--p", "7", "--r", "1", "--s", "12", "--precision", "379"], '{"op":"norm","x":[[1]]}', None),
    (["skewfield", "--p", "7", "--r", "1", "--s", "12", "--precision", "380"], '{"op":"norm","x":[[1]]}',
     "norm at s = 12 and f s log2(p^N) = 12802: s^4 (f s log2 p^N)^1.5 = 3.003e+10 passes the cap of 3e+10"),
    (["skewfield", "--p", "7", "--r", "1", "--s", "12", "--precision", "380"], '{"op":"mul","x":[[1]],"y":[[1]]}',
     None),
    (["skewfield", "--p", "2", "--r", "1", "--s", "40", "--precision", "12"], '{"op":"norm","x":[[1]]}', None),
    (["skewfield", "--p", "2", "--r", "1", "--s", "40", "--precision", "13"], '{"op":"norm","x":[[1]]}',
     "norm at s = 40 and f s log2(p^N) = 520: s^4 (f s log2 p^N)^1.5 = 3.036e+10 passes the cap of 3e+10"),
])
def test_size_caps_just_below_and_just_above(argv, payload, answer, monkeypatch, capsys):
    if "--length" in argv:  # the witt vectors of the payload, zero-extended to the length
        doc = json.loads(payload)
        doc["x"] = doc["x"] * int(argv[-1])
        payload = json.dumps(doc)
    code, doc = _main_in_process(argv, payload, monkeypatch, capsys)
    if answer is None:
        assert code == 0 and "error" not in doc, doc
    else:
        assert (code, doc) == (1, {"error": "ValueError", "detail": answer})
