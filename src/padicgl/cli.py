"""Command-line driver with deterministic JSON output.

Exit codes: 0 on success, 1 on module errors (structured {error, detail}),
2 on parse failures.  Two runs on identical input are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .bzclass import (
    RegistryError,
    gl_predicates,
    involution_t,
    load_registry,
)
from .cyclicalg import (
    CyclicAlgebra,
    UnramifiedContext,
    brauer_invariant,
    dieudonne_standard,
    etale_inf_height,
    v_power_matrix,
)
from .factors import conductor, gl_pair_l_inductive, wd_eps, wd_l_factor, wd_pair_l
from .weildeligne import wd_dual
from .jsonio import (
    DEFAULT_REGISTRY_DOC,
    PayloadError,
    atom_from_json,
    class_data_from_json,
    class_data_to_json,
    eps_to_json,
    fraction_to_json,
    lfactor_to_json,
    scalar_from_json,
    scalar_to_json,
    wdrep_from_json,
    wdrep_to_json,
)
from .langlands import (
    dictionary_report,
    rec_forward,
    rec_inverse,
    satake_class_data,
    satake_parameters,
    verify_rec_axioms,
)
from .qexact import LocalFieldContext, lfactors_equal, render_lfactor
from .wittring import (
    GFRing,
    IntegerRing,
    ModRing,
    RationalField,
    WittContext,
    frobenius,
    ghost,
    ghost_inverse,
    verschiebung,
    witt_polynomial,
)


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--registry", default=None, help="label registry JSON path")
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--npsi", type=int, default=0)
    p.add_argument("--precision", type=int, default=4)
    p.add_argument("--input", default="-", help="payload JSON path or - for stdin")
    p.add_argument("--output", default="-", help="output path or - for stdout")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="padicgl")
    sub = top.add_subparsers(dest="command", required=True)
    names = [
        "rec",
        "rec-inverse",
        "satake",
        "lfactor",
        "lfactor-pair",
        "eps",
        "conductor",
        "dictionary",
        "involution",
        "dual",
        "classify-predicates",
        "verify",
        "witt",
        "skewfield",
        "dieudonne",
    ]
    parsers = {}
    for name in names:
        sp = sub.add_parser(name)
        _common_flags(sp)
        parsers[name] = sp
    parsers["conductor"].add_argument("--mode", choices=["artin", "epsDegree"], default="artin")
    parsers["involution"].add_argument("--resolve", action="store_true")
    parsers["witt"].add_argument("--ring", default="Q", help="Q, Z, Zmod:m, Fp or Fq:r")
    parsers["witt"].add_argument("--length", type=int, default=3)
    parsers["skewfield"].add_argument("--r", type=int, required=True)
    parsers["skewfield"].add_argument("--s", type=int, required=True)
    parsers["dieudonne"].add_argument("--rank", type=int, required=True)
    parsers["dieudonne"].add_argument("--etale-height", type=int, required=True, dest="etale_height")
    parsers["dieudonne"].add_argument("--residue-degree", type=int, default=1, dest="residue_degree")
    return top


def _read_payload(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    if not text.strip():
        return None
    return json.loads(text)


def _context(args) -> LocalFieldContext:
    return LocalFieldContext(args.p, args.f, args.d, args.npsi)


def _registry(args, ctx):
    if args.registry is None:
        return load_registry(DEFAULT_REGISTRY_DOC, ctx)
    with open(args.registry, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return load_registry(doc, ctx)


def _witt_ring(spec: str, p: int):
    if spec == "Q":
        return RationalField()
    if spec == "Z":
        return IntegerRing()
    if spec == "Fp":
        return ModRing(p)
    if spec.startswith("Zmod:"):
        return ModRing(int(spec.split(":", 1)[1]))
    if spec.startswith("Fq:"):
        return GFRing(p, int(spec.split(":", 1)[1]))
    raise PayloadError(f"unknown coefficient ring {spec!r}")


def _witt_coords_in(ring, coords):
    if not isinstance(coords, list):
        raise PayloadError("witt coordinates must be a JSON array")
    return [ring.coerce(c if not isinstance(c, str) else Fraction(c)) for c in coords]


def _witt_coords_out(ring, coords):
    out = []
    for c in coords:
        if isinstance(c, Fraction):
            out.append(str(c))
        elif isinstance(c, tuple):
            out.append(list(c))
        else:
            out.append(c)
    return out


def _carrier_matrix_out(mat):
    return [[list(e) for e in row] for row in mat]


def _run_witt(args, payload):
    ring = _witt_ring(args.ring, args.p)
    wctx = WittContext(ring, args.p, args.length)
    op = payload.get("op")
    if op in ("add", "mul"):
        x = wctx.vector(_witt_coords_in(ring, payload["x"]))
        y = wctx.vector(_witt_coords_in(ring, payload["y"]))
        out = x + y if op == "add" else x * y
        return {"result": _witt_coords_out(ring, out.coords)}
    if op == "neg":
        x = wctx.vector(_witt_coords_in(ring, payload["x"]))
        return {"result": _witt_coords_out(ring, (-x).coords)}
    if op == "frobenius":
        x = wctx.vector(_witt_coords_in(ring, payload["x"]))
        return {"result": _witt_coords_out(ring, frobenius(x).coords)}
    if op == "verschiebung":
        x = wctx.vector(_witt_coords_in(ring, payload["x"]))
        return {"result": _witt_coords_out(ring, verschiebung(x).coords)}
    if op == "ghost":
        x = wctx.vector(_witt_coords_in(ring, payload["x"]))
        return {"result": _witt_coords_out(ring, tuple(ghost(x)))}
    if op == "ghost-inverse":
        comps = _witt_coords_in(ring, payload["x"])
        return {"result": _witt_coords_out(ring, ghost_inverse(wctx, comps).coords)}
    if op == "witt-polynomial":
        values = _witt_coords_in(ring, payload["x"])
        n = int(payload.get("n", len(values) - 1))
        return {"result": _witt_coords_out(ring, (witt_polynomial(args.p, n, values, ring),))[0]}
    raise PayloadError(f"unknown witt op {op!r}")


def _run_skewfield(args, payload):
    ctx = UnramifiedContext(args.p, args.f, args.s, args.precision)
    algebra = CyclicAlgebra(ctx, args.r)
    op = payload.get("op")
    if op == "mul":
        x = algebra.element(payload["x"])
        y = algebra.element(payload["y"])
        out = algebra.mul(x, y)
        return {"coeffs": [list(c) for c in out.coeffs]}
    if op == "pi-power":
        out = algebra.power(algebra.pi(), int(payload.get("e", 1)))
        return {"coeffs": [list(c) for c in out.coeffs]}
    if op == "norm":
        x = algebra.element(payload["x"])
        nrd, v = algebra.reduced_norm_val(x)
        return {"nrd": list(nrd), "vD": fraction_to_json(v)}
    if op == "invariant":
        return {"invariant": fraction_to_json(brauer_invariant(args.r, args.s, ctx))}
    if op == "embed":
        x = algebra.element(payload["x"])
        return {"matrix": _carrier_matrix_out(algebra.embed_matrix(x))}
    raise PayloadError(f"unknown skewfield op {op!r}")


def _run_dieudonne(args):
    ctx = UnramifiedContext(args.p, args.f, args.residue_degree, args.precision)
    mod = dieudonne_standard(args.rank, args.etale_height, ctx)
    etale, formal = etale_inf_height(mod)
    nf = args.rank - args.etale_height
    out = {
        "V": _carrier_matrix_out(mod.v_matrix),
        "F": _carrier_matrix_out(mod.f_matrix),
        "etale": etale,
        "formal": formal,
    }
    if nf > 0:
        power = v_power_matrix(mod, nf)
        carrier = ctx.carrier
        pi_el = carrier.from_int(ctx.p)
        ok = all(
            power[i][j] == (pi_el if i == j else carrier.zero())
            for i in range(args.etale_height, args.rank)
            for j in range(args.etale_height, args.rank)
        )
        out["v_power_is_pi_on_formal"] = ok
    return out


def run_command(args):
    ctx = _context(args)
    registry = _registry(args, ctx)
    cmd = args.command
    payload = None
    if cmd not in ("dieudonne",):
        payload = _read_payload(args)
        if payload is None:
            raise PayloadError("empty payload")

    if cmd == "rec":
        c = class_data_from_json(payload, registry, ctx)
        return wdrep_to_json(rec_forward(c))
    if cmd == "rec-inverse":
        rho = wdrep_from_json(payload, registry, ctx)
        return class_data_to_json(rec_inverse(rho))
    if cmd == "satake":
        direction = payload.get("direction")
        if direction == "toWD":
            values = [scalar_from_json(v) for v in payload.get("values", [])]
            return class_data_to_json(satake_class_data(values, ctx))
        if direction == "fromRep":
            c = class_data_from_json(payload.get("data"), registry, ctx)
            return {"values": [scalar_to_json(v, ctx) for v in satake_parameters(c, ctx)]}
        raise PayloadError("satake direction must be 'toWD' or 'fromRep'")
    if cmd == "lfactor":
        rho = wdrep_from_json(payload, registry, ctx)
        l = wd_l_factor(rho, ctx)
        return {"factors": lfactor_to_json(l, ctx), "rendered": render_lfactor(l, ctx)}
    if cmd == "lfactor-pair":
        left = class_data_from_json(payload.get("left"), registry, ctx)
        right = class_data_from_json(payload.get("right"), registry, ctx)
        wd = wd_pair_l(rec_forward(left), rec_forward(right), ctx)
        inductive = gl_pair_l_inductive(left, right, ctx)
        return {
            "factors": lfactor_to_json(wd, ctx),
            "rendered": render_lfactor(wd, ctx),
            "inductive_matches_wd": lfactors_equal(wd, inductive, ctx),
        }
    if cmd == "eps":
        rho = wdrep_from_json(payload, registry, ctx)
        return eps_to_json(wd_eps(rho, ctx), ctx)
    if cmd == "conductor":
        rho = wdrep_from_json(payload, registry, ctx)
        value = conductor(rho, ctx, args.mode)
        return {"mode": args.mode, "value": fraction_to_json(value)}
    if cmd == "dictionary":
        c = class_data_from_json(payload, registry, ctx)
        return {"rows": dictionary_report(c, ctx)}
    if cmd == "involution":
        c = class_data_from_json(payload, registry, ctx)
        return class_data_to_json(involution_t(c, resolve=args.resolve))
    if cmd == "dual":
        if isinstance(payload, dict) and "blocks" in payload:
            rho = wdrep_from_json(payload, registry, ctx)
            return wdrep_to_json(wd_dual(rho))
        c = class_data_from_json(payload, registry, ctx)
        return class_data_to_json(c.dual())
    if cmd == "classify-predicates":
        c = class_data_from_json(payload, registry, ctx)
        return gl_predicates(c, ctx)
    if cmd == "verify":
        c = class_data_from_json(payload.get("data"), registry, ctx)
        chi_atom, _ = atom_from_json(payload.get("chi"), registry, ctx)
        report = verify_rec_axioms(c, chi_atom, ctx, registry)
        return {k: v for k, v in report.items()}
    if cmd == "witt":
        return _run_witt(args, payload)
    if cmd == "skewfield":
        return _run_skewfield(args, payload)
    if cmd == "dieudonne":
        return _run_dieudonne(args)
    raise PayloadError(f"unknown command {cmd!r}")


def _dump(result) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # serialising inside the try: json.dumps itself can fail, e.g. on an
        # integer longer than Python's int-to-str digit limit
        text = _dump(run_command(args))
        status = 0
    except (json.JSONDecodeError, PayloadError, KeyError, TypeError, AttributeError) as exc:
        text = _dump({"error": "parse", "detail": str(exc)})
        status = 2
    except (ValueError, RegistryError, ArithmeticError, ZeroDivisionError, OSError) as exc:
        text = _dump({"error": type(exc).__name__, "detail": str(exc)})
        status = 1
    except Exception as exc:  # never leak a stack trace
        text = _dump({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"})
        status = 1

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
