"""Every public surface of gp2d is read by the package, or kept on purpose.

A public top-level function or class counts as read when some top-level
statement of src/gp2d other than its own definition names it: as a
loaded name, an attribute or an imported name.  ``__init__.py`` does not
count, since re-exporting a name is not reading it.  What only the tests
read goes, unless it is listed in KEEP with the reason it stays.
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
    "y1": "oracle: the single Y1 that jy01's fourth value must equal bit "
          "for bit",
    # read by the acceptance tests
    "localization_check": "acceptance: the certified localization bound",
    "kernel_sup_product": "acceptance: the kernel bound sup |eta| p^2",
    "conjugate": "acceptance: e^-B op e^B of the rotation constants",
    "ladder": "read by acceptance 6-8",
    "number_operator": "read by acceptance 6-8",
    # the writer of the table format load_table reads
    "save_table": "writes the TABLE_HEADER format beside load_table",
    # names the benchmark's tracer rebinds (perfbench/spans.py)
    "eigsh": "benchmark stub, rebound by the tracer",
    "solve_ivp": "benchmark stub, rebound by the tracer",
}


def _surfaces():
    """(module, name) of each public top-level definition, and per
    top-level statement (module, defined name or None, names it reads)."""
    defined, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            owner = (node.name if isinstance(node, (ast.FunctionDef,
                                                    ast.ClassDef)) else None)
            if owner is not None and not owner.startswith("_"):
                defined.append((path.stem, owner))
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx,
                                                             ast.Load):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    names.update(alias.name for alias in sub.names)
            reads.append((path.stem, owner, names))
    return defined, reads


def test_every_public_surface_is_read_or_kept():
    defined, reads = _surfaces()
    unread = sorted(
        f"{module}.{name}" for module, name in defined
        if name not in KEEP
        and not any(name in names for m, owner, names in reads
                    if (m, owner) != (module, name)))
    assert unread == [], "read by no gp2d code; delete or add to KEEP"


def test_kept_names_exist_and_are_unread():
    # a KEEP entry that the package reads, or that is gone, is stale
    defined, reads = _surfaces()
    names = {name for _, name in defined}
    assert set(KEEP) <= names
    for module, name in defined:
        if name in KEEP:
            assert not any(name in found for m, owner, found in reads
                           if (m, owner) != (module, name)), name
