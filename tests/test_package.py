"""The package's public names, and which modules a CLI call imports."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import padicgl

# the names padicgl exported when its __init__ imported every module eagerly
PUBLIC = {
    "qexact": ["ExactScalar", "GaussianRational", "LFactor", "LocalFieldContext", "equals_one",
               "render_lfactor", "render_scalar"],
    "bzclass": ["Atom", "ClassData", "InertialLabel", "LabelRegistry", "Segment", "dualize", "linked",
                "load_registry", "precedes", "standard_order", "unramified_atom"],
    "weildeligne": ["WDBlock", "WDRep", "clebsch_gordan", "sp_rep", "wd_dual"],
    "factors": ["EpsValue", "conductor", "tate_char", "wd_eps", "wd_l_factor", "wd_pair_l"],
    "langlands": ["dictionary_report", "rec_forward", "rec_inverse", "satake_class_data"],
    "wittring": ["GFRing", "IntegerRing", "ModRing", "RationalField", "WittContext"],
    "cyclicalg": ["CyclicAlgebra", "UnramifiedContext", "brauer_invariant", "dieudonne_standard"],
}


def test_public_names_are_the_home_modules_objects():
    assert sorted(padicgl.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert len(padicgl.__all__) == 42
    for module, names in PUBLIC.items():
        home = __import__(f"padicgl.{module}", fromlist=["_"])
        for name in names:
            assert getattr(padicgl, name) is getattr(home, name)
    namespace = {}
    exec("from padicgl import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(padicgl.__all__)
    assert padicgl.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        padicgl.no_such_name
    from padicgl import cli
    assert callable(cli.main)


def _modules_after(code: str, stdin: str = ""):
    """The entries of sys.modules after code runs in a fresh interpreter."""
    report = "print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}\n{report}"],
                          input=stdin, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _padicgl_modules(code: str, stdin: str = ""):
    """The padicgl.* entries of sys.modules after code runs in a fresh
    interpreter."""
    return {m for m in _modules_after(code, stdin) if m.split(".")[0] == "padicgl"}


def _after_cli(argv, stdin):
    return _padicgl_modules(f"from padicgl.cli import main\nassert main({argv!r}) == 0", stdin)


SHARED = {"padicgl", "padicgl.cli", "padicgl.common"}
LANGLANDS = {"padicgl.qexact", "padicgl.bzclass", "padicgl.weildeligne", "padicgl.factors",
             "padicgl.langlands", "padicgl.jsonio", "padicgl.cli_langlands"}
PADIC = {"padicgl.wittring", "padicgl.cyclicalg", "padicgl.cli_padic"}


def test_import_padicgl_loads_no_submodule():
    assert _padicgl_modules("import padicgl") == {"padicgl"}


def test_a_langlands_subcommand_loads_only_the_langlands_half():
    stdin = '{"blocks":[{"label":"1","x":[0,1],"m":3}]}'
    assert _after_cli(["lfactor", "--p", "3"], stdin) == SHARED | LANGLANDS


@pytest.mark.parametrize("argv,stdin", [
    (["witt", "--p", "2", "--ring", "Z", "--length", "2"], '{"op":"add","x":[1,0],"y":[1,0]}'),
    (["dieudonne", "--p", "2", "--rank", "3", "--etale-height", "1"], ""),
])
def test_a_padic_subcommand_loads_only_the_padic_half(argv, stdin):
    assert _after_cli(argv, stdin) == SHARED | PADIC


def test_runtime_modules_import_neither_dataclasses_nor_inspect():
    # in a fresh interpreter: this one has imported both already
    loaded = _modules_after("import padicgl.cli_langlands, padicgl.cli_padic")
    assert "padicgl.cli_langlands" in loaded and "padicgl.cli_padic" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    src = Path(padicgl.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "dataclasses" for name in names), path.name
