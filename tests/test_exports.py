import ast
import pathlib

import obstaclesim
import obstaclesim.geometry


def test_every_export_resolves():
    # a stale name in __all__ would only fail at ``from obstaclesim import *``
    missing = [name for name in obstaclesim.__all__ if not hasattr(obstaclesim, name)]
    assert missing == []
    assert len(set(obstaclesim.__all__)) == len(obstaclesim.__all__)
    namespace = {}
    exec("from obstaclesim import *", namespace)
    assert set(obstaclesim.__all__) <= set(namespace)


def test_scalar_geometry_is_gone():
    # one disk-segment predicate, Segments.disk_hits; the scalar forms are
    # test oracles (tests/_oracle.py)
    dropped = ("Disk", "Point2", "entry_parameter", "segment_disk_intersects")
    for module in (obstaclesim, obstaclesim.geometry):
        assert [name for name in dropped if hasattr(module, name)] == []
    assert not set(dropped) & set(obstaclesim.__all__)


def test_disk_hits_has_one_caller():
    # the incidence is the one answer to "which disks meet this edge": a
    # second caller of the predicate would be a second way to decide it
    package = pathlib.Path(obstaclesim.__file__).parent
    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "disk_hits"):
            callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for source in sorted(package.rglob("*.py")):
        visit(ast.parse(source.read_text(encoding="utf-8")), source.stem)
    assert callers == ["geometry.index_edge_disks"]


def test_package_imports_nothing_from_tests():
    package = pathlib.Path(obstaclesim.__file__).parent
    tests = pathlib.Path(__file__).parent
    local = {"tests"} | {p.stem for p in tests.glob("*.py")}
    for source in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in local, f"{source.name} imports {name}"
