import ast
from pathlib import Path

import valuegeom

ALLOWED_IMPORTERS = {"__init__", "cli", "verification"}


def _imports_reference(tree: ast.Module) -> bool:
    """Whether the module imports ``valuegeom.reference`` in any spelling."""
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "valuegeom" + (f".{module}" if module else "")
            targets.add(module)
            targets.update(f"{module}.{alias.name}" for alias in node.names)
    return "valuegeom.reference" in targets


def test_only_entry_points_import_the_reference_oracles():
    src = Path(valuegeom.__file__).parent
    importers = {
        path.stem for path in src.glob("*.py") if _imports_reference(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers <= ALLOWED_IMPORTERS, importers - ALLOWED_IMPORTERS
    assert "verification" in importers


def test_reference_names_stay_top_level_exports():
    from valuegeom import reference

    for name in ("shapley_oracle", "banzhaf_oracle", "solidarity_oracle", "inner_L_by_enumeration",
                 "inner_L_general", "inner_L_in_basis"):
        assert getattr(valuegeom, name) is getattr(reference, name)
