"""Import layering: the engine-side packages never reach up the stack.

``engine``, ``matching``, ``storage``, ``query``, ``costmodel``,
``partitioning`` and ``core`` are what the paper describes; ``parallel``,
``serve`` and ``bench`` drive them.  An import in the other direction —
module-level or tucked inside a function — ties the mechanism to one of
its drivers, so this walks every import statement in the lower packages.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER = ("engine", "matching", "storage", "query", "costmodel", "partitioning", "core")
UPPER = ("repro.parallel", "repro.serve", "repro.bench")


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module)
            # ``from repro import parallel`` names the package in the alias.
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("package", LOWER)
def test_lower_package_imports_nothing_from_its_drivers(package):
    offenders = []
    for path in sorted((SRC / package).rglob("*.py")):
        for name in imported_modules(path):
            if any(name == upper or name.startswith(upper + ".") for upper in UPPER):
                offenders.append(f"{path.relative_to(SRC)} imports {name}")
    assert not offenders, "\n".join(offenders)


CORE = SRC / "core"


def test_only_the_coordinator_knows_the_coordinator():
    """Valuation, selection and the repartitioner are built from stores,
    never from (or with a reference back to) ``DeepSea``."""
    offenders = [
        path.name
        for path in sorted(CORE.glob("*.py"))
        if path.name != "deepsea.py" and "repro.core.deepsea" in imported_modules(path)
    ]
    assert not offenders, offenders


def test_engine_imports_nothing_from_matching():
    """The executor runs plans; choosing them is the matching layer's job."""
    offenders = [
        f"{path.relative_to(SRC)} imports {name}"
        for path in sorted((SRC / "engine").rglob("*.py"))
        for name in imported_modules(path)
        if name == "repro.matching" or name.startswith("repro.matching.")
    ]
    assert not offenders, offenders


def test_selection_decides_without_the_executor():
    names = imported_modules(CORE / "selection.py")
    assert not [n for n in names if n.startswith("repro.engine.executor")]


HIT_LISTS = ("hit_times", "hit_ranges")


def test_only_the_statistics_module_reads_raw_hit_lists():
    """A fragment's hits are its membership in its partition's log
    (``costmodel/stats.py``); every other module reads them through that
    module's accessors, so no reader depends on how they are stored."""
    owner = SRC / "costmodel" / "stats.py"
    offenders = sorted(
        {
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if path != owner
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr in HIT_LISTS
        }
    )
    assert not offenders, offenders


def test_no_core_module_outgrows_600_lines():
    sizes = {p.name: len(p.read_text().splitlines()) for p in CORE.glob("*.py")}
    assert not {name: n for name, n in sizes.items() if n > 600}
