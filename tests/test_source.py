import ast
import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

import normlab

TOKEN_STEP = 8192  # CPython 3.11 allocates about 0.46 MB more to compile a module of this many tokens
SRC = pathlib.Path(normlab.__file__).parent
# each module imports at module level only from modules of a lower layer (`__init__` from any)
LAYERS = [["spaces"], ["operators"], ["ascent", "distances"], ["normcomp"], ["attainment"], ["convexity"], ["repro"],
          ["cli"], ["__init__"]]
# the only relative imports inside a function: (module, function, imported module)
LATE_IMPORTS = {("operators", "from_gallery", "convexity"), ("repro", "_harness_auerbach", "convexity")}


def _parser_tokens(path) -> int:
    """The tokens of a module the parser reads: every token but comments, non-logical newlines and the encoding."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(path, "rb") as f:
        return sum(t.type not in skip for t in tokenize.tokenize(f.readline))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the step is CPython 3.11's")
def test_every_module_stays_below_the_compile_memory_step():
    counts = {p.name: _parser_tokens(p) for p in sorted(pathlib.Path(normlab.__file__).parent.glob("*.py"))}
    assert "attainment.py" in counts
    over = {name: n for name, n in counts.items() if n >= TOKEN_STEP}
    assert not over, f"modules at or above {TOKEN_STEP} parser tokens: {over}"


def _relative_imports(tree):
    """(node, imported module, names) of each `from .x import ...` in `tree`; `from . import x` imports x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                for alias in node.names:
                    yield node, alias.name, []
            else:
                yield node, node.module, [alias.name for alias in node.names]


def _defined(tree) -> set:
    """The names a module binds at its top level other than by importing them."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def test_modules_import_down_the_layers_from_where_each_name_is_defined():
    """The module-level relative imports of the package run down LAYERS, so they form no cycle, and each
    imported name is defined in the module it comes from: no name travels through a re-export.  Inside a
    function only the imports of LATE_IMPORTS appear."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    rank = {m: i for i, layer in enumerate(LAYERS) for m in layer}
    assert set(trees) == set(rank)
    defined = {m: _defined(tree) for m, tree in trees.items()}
    top_level = {m: set(map(id, tree.body)) for m, tree in trees.items()}
    late, wrong = set(), []
    for m, tree in trees.items():
        defs = {id(n): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        for node, target, names in _relative_imports(tree):
            if id(node) not in top_level[m]:
                late.add((m, defs[id(node)], target))
                continue
            if rank[target] >= rank[m]:
                wrong.append(f"{m} imports {target}")
            wrong += [f"{m} imports {name} from {target}" for name in names if name not in defined[target]]
    assert not wrong
    assert late == LATE_IMPORTS


def test_analyses_never_import_numpy_ma():
    """numpy.ma costs a process about 0.8 MB of peak memory; no analysis path imports it (a 1-D `np.unique`
    would).  A fresh interpreter runs a 2D profile, two gallery reports, a functional scan on l_3^2 and a
    convexity modulus."""
    script = """
import sys
import normlab as nl
from normlab import SequenceSpace
T = nl.OperatorPQ([[0.3, 0.9], [0.7, -0.2]], SequenceSpace(2, 1.5), SequenceSpace(2, 3.0))
nl.sbpb_profile(T, [0.5])
nl.run_all(tags=["BLOCK-N", "ROT-2-Q"])
nl.kim_lee_check(SequenceSpace(2, 3.0), [0.5], 16)
nl.delta_numeric(SequenceSpace(2, 3.0), [0.5, 1.0])
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout == "False\n"
