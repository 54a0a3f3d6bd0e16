"""Acceptance suite: one test per criterion, one PASS/FAIL line each."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from helpers import (
    REGISTRY_DOC,
    SYMBOLIC_NAMES,
    make_ctx,
    make_registry,
    random_class_data,
    steinberg,
    trivial_atom,
)
from padicgl.bzclass import (
    Atom,
    ClassData,
    Segment,
    dualize,
    supercuspidal_support,
    unramified_atom,
)
from padicgl.factors import (
    conductor,
    gl_pair_l_inductive,
    pair_l_supercuspidal,
    wd_eps,
    wd_l_factor,
    wd_pair_l,
)
from padicgl.langlands import dictionary_report, rec_forward, verify_rec_axioms
from padicgl.qexact import ExactScalar, LFactor, lfactors_equal, scalars_equal
from padicgl.weildeligne import (
    explicit_unramified,
    matrix_eps_det,
    matrix_l,
    sp_rep,
    wd_dual,
    wd_twist,
)
from padicgl.wittring import (
    GFRing,
    IntegerRing,
    ModRing,
    RationalField,
    WittContext,
    frobenius,
    ghost,
    verschiebung,
)
from padicgl.cyclicalg import (
    CyclicAlgebra,
    UnramifiedContext,
    _mat_mul,
    brauer_invariant,
    dieudonne_standard,
    etale_inf_height,
    v_power_matrix,
)


def report(num, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:2d} ({desc}): {status}"
    if extra:
        line += f"  [{extra}]"
    print(line)
    assert ok, f"criterion {num} failed"


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_sp_closed_forms():
    start = time.time()
    ok = True
    for p in (2, 3, 5):
        for d in (0, 1, 2):
            ctx = make_ctx(p=p, f=1, d=d, n_psi=0)
            one = trivial_atom(ctx)
            for m in range(1, 7):
                rho = sp_rep(one, m)
                want_l = LFactor.of([(ExactScalar.of(1, 0, 2 * (1 - m)), 1)])
                sign = 1 if (m - 1) % 2 == 0 else -1
                want_eps = ExactScalar.of(sign, 0, -(m * d + (m - 2) * (m - 1)))

                l_structural = wd_l_factor(rho, ctx)
                eps_structural = wd_eps(rho, ctx)
                ok &= lfactors_equal(l_structural, want_l, ctx)
                ok &= eps_structural.units == () and eps_structural.s_slope == 0
                ok &= scalars_equal(eps_structural.mono, want_eps, ctx)

                mat = explicit_unramified(rho, ctx)
                ok &= lfactors_equal(matrix_l(mat), want_l, ctx)
                # eps via the oracle: per-character eps product (q^(-d/2) per
                # weight at n(psi) = 0) times det(-Phi | V/V_N)
                oracle_eps = ExactScalar.of(1, 0, -m * d) * matrix_eps_det(mat)
                ok &= scalars_equal(oracle_eps, want_eps, ctx)
    elapsed = time.time() - start
    report(1, "Sp(m) closed forms, structural and matrix oracle", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_steinberg():
    ctx = make_ctx()
    ok = True
    for n in range(1, 9):
        st = steinberg(n, ctx)
        rho = rec_forward(st)
        expected = wd_twist(sp_rep(trivial_atom(ctx), n), Fraction(1 - n, 2))
        ok &= rho.key() == expected.key()
        ok &= dualize(st).key() == st.key()
        ok &= wd_dual(rho).key() == rho.key()
    report(2, "rec(St(n)) = |.|^((1-n)/2) Sp(n), self-dual, n <= 8", ok)


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_inductive_vs_wd_pairs():
    ctx = make_ctx()
    registry = make_registry(ctx)
    rng = random.Random(2026)
    ok = True
    for _ in range(500):
        c1 = random_class_data(rng, registry, ctx, max_segments=3, max_degree=6)
        c2 = random_class_data(rng, registry, ctx, max_segments=3, max_degree=6)
        inductive = gl_pair_l_inductive(c1, c2, ctx)
        wd = wd_pair_l(rec_forward(c1), rec_forward(c2), ctx)
        if not lfactors_equal(inductive, wd, ctx):
            ok = False
            break
    st2 = steinberg(2, ctx)
    hand = LFactor.of([(ExactScalar.one(), 1), (ExactScalar.of(1, 0, -2), 1)])
    ok &= lfactors_equal(gl_pair_l_inductive(st2, st2, ctx), hand, ctx)
    report(3, "inductive pair L = WD pair L on 500 random pairs + St(2)xSt(2)", ok)


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_dictionary_consistency():
    start = time.time()
    ctx = make_ctx()
    registry = make_registry(ctx)
    rng = random.Random(404)
    ok = True
    for _ in range(1000):
        c = random_class_data(rng, registry, ctx, max_segments=3, max_degree=8)
        rows = dictionary_report(c, ctx)
        if not all(r["agree"] for r in rows):
            ok = False
            break
    elapsed = time.time() - start
    report(4, "all six dictionary rows agree on 1000 random inputs",
           ok and elapsed < 10.0, f"{elapsed:.2f}s")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_rec_axioms():
    ctx = make_ctx()
    registry = make_registry(ctx)
    rng = random.Random(505)
    ok = True
    twists = [Fraction(n, 2) for n in range(-4, 5)]
    for _ in range(500):
        c = random_class_data(rng, registry, ctx)
        chi = unramified_atom(ExactScalar.q_power(rng.choice(twists)), ctx)
        rep = verify_rec_axioms(c, chi, ctx, registry)
        if not rep["all"]:
            ok = False
            break
        flat = ClassData("Q", tuple(Segment(a, 1) for a in supercuspidal_support(c)))
        declared = sum(a.label.conductor for a in supercuspidal_support(flat))
        if conductor(rec_forward(flat), ctx, "artin") != declared:
            ok = False
            break
    report(5, "rec axioms (3),(4),(5) on 500 random inputs + m=1 conductors", ok)


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_l_pole_injectivity():
    ctx = make_ctx()
    registry = make_registry(ctx)
    labels = [registry.resolve(name) for name in SYMBOLIC_NAMES]
    assert len(labels) == 10
    xs = [Fraction(n, 2) for n in range(-4, 5)]
    atoms = [Atom(lab, x) for lab in labels for x in xs]
    ok = True
    for a in atoms:
        for b in atoms:
            l = pair_l_supercuspidal(dualize(a), b, ctx)
            has_pole, _ = l.pole_at(0, ctx)
            expected = a.label.name == b.label.name and a.x == b.x
            if has_pole != expected:
                ok = False
    report(6, "L-pole at 0 exactly on the diagonal (10 labels, |x| <= 2)", ok,
           f"{len(atoms)**2} pairs")


# -- criterion 7 -------------------------------------------------------------


def _rand_elem(ring, rng):
    if isinstance(ring, RationalField):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    if isinstance(ring, IntegerRing):
        return rng.randint(-9, 9)
    if isinstance(ring, ModRing):
        return rng.randint(0, ring.m - 1)
    return ring.element([rng.randint(0, ring.p - 1) for _ in range(ring.r)])


def test_criterion_7_witt_suite():
    ok = True
    cases = [
        (RationalField(), 2, 4),
        (IntegerRing(), 2, 4),
        (GFRing(2, 1), 2, 4),
        (GFRing(3, 2), 3, 3),
    ]
    for ring, p, n in cases:
        ctx = WittContext(ring, p, n)
        rng = random.Random(707)
        vectors = [ctx.vector([_rand_elem(ring, rng) for _ in range(n)]) for _ in range(200)]
        char_p = ring.characteristic() == p

        def times_p(v):
            out = ctx.zero()
            for _ in range(p):
                out = out + v
            return out

        zero, one = ctx.zero(), ctx.one()
        for i in range(len(vectors) - 2):
            x, y, z = vectors[i], vectors[i + 1], vectors[i + 2]
            ok &= x + y == y + x
            ok &= (x + y) + z == x + (y + z)
            ok &= x * y == y * x
            ok &= (x * y) * z == x * (y * z)
            ok &= x * (y + z) == x * y + x * z
            ok &= x + zero == x and x * one == x and x + (-x) == zero
            st, px = frobenius(verschiebung(x)), times_p(x)
            ok &= st == px if char_p else st.coords[: n - 1] == px.coords[: n - 1]
            ok &= verschiebung(x * frobenius(y)) == verschiebung(x) * y
            ok &= verschiebung(x) * verschiebung(y) == times_p(verschiebung(x * y))
            ok &= verschiebung(frobenius(x)) == verschiebung(one) * x
            gx, gy = ghost(x), ghost(y)
            ok &= ghost(x + y) == [ring.add(a, b) for a, b in zip(gx, gy)]
            ok &= ghost(x * y) == [ring.mul(a, b) for a, b in zip(gx, gy)]
            if not ok:
                break
        if not ok:
            break
    # W_3(F_2) against Z/8, exhaustive
    ctx8 = WittContext(GFRing(2, 1), 2, 3)
    images = [ctx8.from_int(k) for k in range(8)]
    ok &= len({im.coords for im in images}) == 8 and ctx8.from_int(8) == ctx8.zero()
    for a in range(8):
        for b in range(8):
            ok &= images[a] + images[b] == ctx8.from_int((a + b) % 8)
    report(7, "Witt ring axioms, relations (i)-(iv), ghost, W3(F2) = Z/8", ok)


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_division_algebras():
    start = time.time()
    ok = True
    for p in (2, 3):
        for r, s in ((1, 2), (1, 3), (2, 3), (3, 4)):
            ctx = UnramifiedContext(p, 1, s, 6)
            alg = CyclicAlgebra(ctx, r)
            pi = alg.pi()
            ok &= alg.equal(alg.power(pi, s), alg.from_carrier(ctx.carrier.from_int(p ** r)))
            rng = random.Random(100 * p + 10 * r + s)
            for _ in range(100):
                x, y = (
                    alg.element([[rng.randint(0, ctx.carrier.pN - 1) for _ in range(ctx.carrier.m)] for _ in range(s)]),
                    alg.element([[rng.randint(0, ctx.carrier.pN - 1) for _ in range(ctx.carrier.m)] for _ in range(s)]),
                )
                prod = _mat_mul(ctx, alg.embed_matrix(x), alg.embed_matrix(y))
                direct = alg.embed_matrix(alg.mul(x, y))
                ok &= all(prod[i][j] == direct[i][j] for i in range(s) for j in range(s))
            ok &= brauer_invariant(r, s, ctx) == Fraction(r, s) % 1
            # vD additivity on units times Pi-powers
            from padicgl.cyclicalg import PrecisionError

            checked = 0
            while checked < 10:
                x = alg.mul(alg.power(pi, rng.randint(0, 1)), alg.element(
                    [[rng.randint(0, ctx.carrier.pN - 1) for _ in range(ctx.carrier.m)] for _ in range(s)]))
                y = alg.power(pi, rng.randint(0, 2))
                try:
                    _, vx = alg.reduced_norm_val(x)
                    _, vy = alg.reduced_norm_val(y)
                    if vx + vy >= 3:
                        continue
                    _, vxy = alg.reduced_norm_val(alg.mul(x, y))
                except PrecisionError:
                    continue
                ok &= vxy == vx + vy
                checked += 1
    elapsed = time.time() - start
    report(8, "cyclic algebras: Pi^s = p^r, embed multiplicativity, inv = r/s",
           ok and elapsed < 30.0, f"{elapsed:.2f}s")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_dieudonne():
    ok = True
    ctx = UnramifiedContext(2, 1, 1, 4)
    for n in range(1, 6):
        for h in range(0, n + 1):
            mod = dieudonne_standard(n, h, ctx)  # raises unless FV = VF = p
            ok &= etale_inf_height(mod) == (h, n - h)
            nf = n - h
            if nf > 0:
                power = v_power_matrix(mod, nf)
                p_el = ctx.carrier.from_int(2)
                ok &= all(
                    power[i][j] == (p_el if i == j else ctx.carrier.zero())
                    for i in range(h, n)
                    for j in range(h, n)
                )
    report(9, "Dieudonne standard modules: FV = VF = p, heights, V^(n-h) = p", ok)


# -- criterion 10 ------------------------------------------------------------


ST2_DOC = '{"form":"Q","segments":[{"label":"1","x":[-1,2],"m":2}]}'
SP3_DOC = '{"blocks":[{"label":"1","x":[0,1],"m":3}]}'
PAIR_DOC = json.dumps({"left": json.loads(ST2_DOC), "right": json.loads(ST2_DOC)})


def _golden_invocations(registry_path):
    reg = ["--registry", str(registry_path)]
    return [
        (["rec", "--p", "3"], ST2_DOC),
        (["rec", "--p", "5", "--f", "2"], ST2_DOC),
        (["rec-inverse", "--p", "3"], SP3_DOC),
        (["satake", "--p", "3"], '{"direction":"toWD","values":[{"re":[1,1]},{"re":[1,9]}]}'),
        (["satake", "--p", "3"], json.dumps({
            "direction": "fromRep",
            "data": {"form": "Q", "segments": [
                {"label": "1", "x": [0, 1], "m": 1},
                {"label": "1", "x": [2, 2], "m": 1},
            ]},
        })),
        (["lfactor", "--p", "3"], SP3_DOC),
        (["lfactor", "--p", "2", "--d", "1"], SP3_DOC),
        (["lfactor-pair", "--p", "3"], PAIR_DOC),
        (["eps", "--p", "3", "--d", "2"], SP3_DOC),
        (["eps", "--p", "2", "--npsi", "1"], SP3_DOC),
        (["conductor", "--p", "3", "--mode", "artin"], SP3_DOC),
        (["conductor", "--p", "3", "--mode", "epsDegree"], SP3_DOC),
        (["dictionary", "--p", "3"] + reg, ST2_DOC),
        (["involution", "--p", "3"], ST2_DOC),
        (["involution", "--p", "3", "--resolve"], '{"form":"Z","segments":[{"label":"1","x":[0,1],"m":2}]}'),
        (["dual", "--p", "3"] + reg, '{"form":"Q","segments":[{"label":"tau2","x":[1,2],"m":1}]}'),
        (["classify-predicates", "--p", "3"] + reg, '{"form":"Q","segments":[{"label":"rho3","x":[0,1],"m":2}]}'),
        (["verify", "--p", "3"] + reg, json.dumps({"data": json.loads(ST2_DOC), "chi": {"label": "1", "x": [2, 2]}})),
        (["witt", "--p", "2", "--ring", "Z", "--length", "3"], '{"op":"mul","x":[1,1,0],"y":[1,0,1]}'),
        (["skewfield", "--p", "2", "--r", "1", "--s", "2", "--precision", "5"], '{"op":"norm","x":[[3],[1]]}'),
        (["dieudonne", "--p", "2", "--rank", "4", "--etale-height", "1", "--precision", "3"], ""),
    ]


def test_criterion_10_cli_determinism(tmp_path):
    registry_path = tmp_path / "registry.json"
    registry_path.write_text(json.dumps(REGISTRY_DOC))
    invocations = _golden_invocations(registry_path)
    assert len(invocations) >= 20
    ok = True
    for args, payload in invocations:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "padicgl.cli"] + args,
                input=payload, capture_output=True, text=True,
            )
            ok &= proc.returncode == 0
            outs.append(proc.stdout)
        ok &= outs[0] == outs[1] and outs[0].strip() != ""
    report(10, "20 CLI invocations, byte-identical reruns", ok,
           f"{len(invocations)} invocations")
