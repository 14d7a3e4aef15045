"""The declared runtime dependencies are exactly the third-party imports; every
import of the package is used, every __all__ name is defined and every
private top-level helper is referenced. Only numerics.dft2 names numpy's
transforms, only numerics.re_dot sums products and only container.write_csv builds
a CSV writer. Importing the CLI loads no scipy, which only the tests use.
The README's method_params table lists the keys pipeline.METHOD_PARAMS accepts."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ktsecret").glob("*.py"))


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_top_level_modules(package_dir: Path) -> set:
    names = set()
    for path in package_dir.rglob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_dependencies_match_third_party_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    imported = _imported_top_level_modules(ROOT / "src" / "ktsecret")
    third_party = imported - set(sys.stdlib_module_names) - {"ktsecret"}
    assert third_party == declared


def _dunder_all(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _imported_names(node) -> list:
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    # a name counts as used when it is read anywhere (annotations included) or re-exported
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_dunder_all(tree))
    imported = [name for node in ast.walk(tree) for name in _imported_names(node)]
    assert [name for name in imported if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_dunder_all_names_are_defined(path):
    tree = _parse(path)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        defined.update(_imported_names(node))
    assert [name for name in _dunder_all(tree) if name not in defined] == []


def _references(node, name: str) -> bool:
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def test_every_private_helper_is_used():
    # a top-level _name function or class must be referenced in src/ outside its own definition
    trees = [_parse(path) for path in MODULES]
    unused = []
    for path, tree in zip(MODULES, trees):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                own = {id(n) for n in ast.walk(node)}
                if not any(id(n) not in own and _references(n, node.name) for t in trees for n in ast.walk(t)):
                    unused.append(f"{path.name}:{node.name}")
    assert unused == []


FFT_HELPERS = {"fftshift", "ifftshift", "fftfreq"}  # index shuffles and frequencies, not transforms


def _outside(tree, function: str):
    """The nodes of tree, less those of its top-level function of that name."""
    skip = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == function for n in ast.walk(f)}
    return (node for node in ast.walk(tree) if id(node) not in skip)


def _numpy_transform_uses(tree) -> list:
    """(line, name) of every numpy transform the tree names outside dft2:
    np.fft.<name> with "fft" in the name, or an import from numpy.fft."""
    uses = []
    for node in _outside(tree, "dft2"):
        if (isinstance(node, ast.Attribute) and "fft" in node.attr and node.attr not in FFT_HELPERS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"
                and isinstance(node.value.value, ast.Name) and node.value.value.id in ("np", "numpy")):
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
            uses.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            uses.extend((node.lineno, alias.name) for alias in node.names if alias.name == "fft")
    return uses


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_dft2_calls_numpy_transforms(path):
    # a raw transform would skip dft2's checks and the benchmark's numerics.dft2 span
    assert _numpy_transform_uses(_parse(path)) == []


def test_transform_scan_sees_a_raw_call():
    tree = ast.parse("import numpy as np\nfrom numpy.fft import fft\n"
                     "def f(x):\n    return np.fft.ifft2(np.fft.fftshift(x))\n"
                     "def dft2(x):\n    return np.fft.fftn(x)\n")
    assert _numpy_transform_uses(tree) == [(2, "fft"), (4, "ifft2")]


REDUCTIONS = {"vdot", "dot", "inner", "einsum"}  # BLAS or einsum sums of products


def _reductions(tree, allowed: str | None) -> list:
    """(line, name) of every sum of products the tree names outside its
    function allowed: an attribute vdot, dot, inner or einsum (np.vdot as well
    as x.dot), linalg.norm, or an import of one of them from numpy."""
    uses = []
    for node in _outside(tree, allowed):
        if isinstance(node, ast.Attribute) and (node.attr in REDUCTIONS or (
                node.attr == "norm" and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")):
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            uses.extend((node.lineno, alias.name) for alias in node.names
                        if alias.name in REDUCTIONS | {"norm", "linalg"})
    return uses


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_re_dot_sums_products(path):
    # a BLAS sum changes with the thread count; numerics.re_dot's einsum loop does not
    assert _reductions(_parse(path), "re_dot" if path.name == "numerics.py" else None) == []


def test_reduction_scan_sees_each_form():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import norm\n"
                     "def f(x):\n    return np.vdot(x, x) + x.dot(x) + np.inner(x, x) + np.linalg.norm(x)\n"
                     "def g(x):\n    return np.einsum('i,i->', x, x)\n"
                     "def re_dot(x):\n    return np.einsum('i,i->', x, x)\n")
    assert sorted(_reductions(tree, "re_dot")) == [(2, "norm"), (4, "dot"), (4, "inner"), (4, "norm"),
                                                   (4, "vdot"), (6, "einsum")]


CSV_WRITERS = {"writer", "DictWriter"}


def _csv_writers(tree) -> list:
    """(line, name) of every CSV writer the tree names outside write_csv:
    csv.writer or csv.DictWriter, or an import of one of them from csv."""
    uses = []
    for node in _outside(tree, "write_csv"):
        if (isinstance(node, ast.Attribute) and node.attr in CSV_WRITERS
                and isinstance(node.value, ast.Name) and node.value.id == "csv"):
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            uses.extend((node.lineno, alias.name) for alias in node.names if alias.name in CSV_WRITERS)
    return uses


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_write_csv_builds_a_csv_writer(path):
    # container.write_csv holds the one newline and header rule of every CSV the package writes
    assert _csv_writers(_parse(path)) == []


def test_csv_writer_scan_sees_each_form():
    tree = ast.parse("import csv\nfrom csv import writer\n"
                     "def f(g):\n    return csv.writer(g), csv.DictWriter(g, [])\n"
                     "def write_csv(g):\n    return csv.writer(g)\n")
    assert _csv_writers(tree) == [(2, "writer"), (4, "writer"), (4, "DictWriter")]


def test_cli_import_loads_no_scipy():
    probe = "import sys, ktsecret.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"


def _readme_method_keys(text: str) -> dict:
    """method -> its row's keys in the README's method_params table: the first
    backticked name of each comma-separated item of the second column."""
    rows = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows[cells[0].strip("`")] = re.findall(r"(?:^|, )`(\w+)`", cells[1])
    return rows


def test_readme_method_params_table_matches_cli():
    from ktsecret.pipeline import METHOD_PARAMS

    expected = {method: list(names) for method, (_, names) in METHOD_PARAMS.items()}
    assert _readme_method_keys((ROOT / "README.md").read_text()) == expected


def test_readme_table_scan_reads_keys_not_fields():
    row = "| `cs` | `l1` (`lambda1`), `tol` | `ktsecret.cs.CsConfig` |\n| `zf` | none | |"
    assert _readme_method_keys(row) == {"cs": ["l1", "tol"], "zf": []}
