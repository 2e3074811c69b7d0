"""Every public surface of gp2d is read by the package, or kept on purpose.

The surfaces are the public top-level functions and classes and the
public methods and properties of public classes.  A surface counts as
read when some definition of src/gp2d outside its own names it: as a
loaded name that the definition does not bind itself (as a parameter or
an assigned name), an attribute or an imported name (a method or
property by its bare name, as an attribute).  ``__init__.py`` does not
count, since re-exporting a name is not reading it.  What only the
tests read goes, unless it is listed in KEEP with the reason it stays.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gp2d"

KEEP = {
    # oracles the tests compare the package against
    "trial_wavenumber": "oracle: the variational trial state of the "
                        "scattering tests",
    "trial_upper_bound": "oracle: the variational upper bound on lambda",
    "rayleigh_quotient": "oracle: the Rayleigh quotient of a Neumann "
                         "solution",
    "hamiltonian_pieces": "oracle: K, V_N and L0-L4 as separate operators, "
                          "built a second way",
    "y0": "oracle: the single Y0 that jy01's second value must equal bit "
          "for bit",
    "y1": "oracle: the single Y1 that jy01's fourth value must equal bit "
          "for bit",
    "FockBasis.vacuum": "oracle: the state whose L0 and R_eff values the "
                        "Fock tests know in closed form",
    # read by the acceptance tests
    "localization_check": "acceptance: the certified localization bound",
    "kernel_sup_product": "acceptance: the kernel bound sup |eta| p^2",
    "conjugate": "acceptance: e^-B op e^B of the rotation constants",
    "ladder": "read by acceptance 6-8",
    "number_operator": "read by acceptance 6-8",
    "KernelTable.norm2": "acceptance 4: the decay of N^3 ||eta||_2",
    # the writer of the table format load_table reads
    "save_table": "writes the TABLE_HEADER format beside load_table",
    # names the benchmark's tracer rebinds (perfbench/spans.py)
    "eigsh": "benchmark stub, rebound by the tracer",
    "solve_ivp": "benchmark stub, rebound by the tracer",
}


def _reads(nodes) -> set:
    """Names the definition reads; a loaded name that it binds itself
    (not as a global) is its own, not a read of a surface."""
    names, loaded, bound, shared = set(), set(), set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                (loaded if isinstance(sub.ctx, ast.Load) else bound).add(
                    sub.id)
            elif isinstance(sub, ast.arg):
                bound.add(sub.arg)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
            elif isinstance(sub, (ast.Global, ast.Nonlocal)):
                shared.update(sub.names)
    return names | (loaded - (bound - shared))


def _units(node):
    """(path, nodes) of the definitions in a top-level statement: a
    class's own statements under (class,), each of its methods under
    (class, method); any other statement whole, under (its name,) or ()."""
    if isinstance(node, ast.ClassDef):
        methods = [s for s in node.body if isinstance(s, ast.FunctionDef)]
        own = ([s for s in node.body if not isinstance(s, ast.FunctionDef)]
               + node.bases + node.decorator_list)
        return [((node.name,), own)] + [((node.name, m.name), [m])
                                        for m in methods]
    if isinstance(node, ast.FunctionDef):
        return [((node.name,), [node])]
    return [((), [node])]


def _surfaces():
    """(module, path) of each public surface, and per definition
    (module, path, names it reads)."""
    defined, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            for at, nodes in _units(node):
                if at and not any(part.startswith("_") for part in at):
                    defined.append((path.stem, at))
                reads.append((path.stem, at, _reads(nodes)))
    return defined, reads


def _read_elsewhere(module, at, reads) -> bool:
    # a definition's own body, methods included, does not count
    return any(at[-1] in names for m, owner, names in reads
               if (m, owner[:len(at)]) != (module, at))


def test_every_public_surface_is_read_or_kept():
    defined, reads = _surfaces()
    unread = sorted(
        f"{module}.{'.'.join(at)}" for module, at in defined
        if ".".join(at) not in KEEP
        and not _read_elsewhere(module, at, reads))
    assert unread == [], "read by no gp2d code; delete or add to KEEP"


def test_kept_names_exist_and_are_unread():
    # a KEEP entry that the package reads, or that is gone, is stale
    defined, reads = _surfaces()
    assert set(KEEP) <= {".".join(at) for _, at in defined}
    for module, at in defined:
        if ".".join(at) in KEEP:
            assert not _read_elsewhere(module, at, reads), at
