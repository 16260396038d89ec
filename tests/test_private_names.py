"""Every private name that ``src/permemc`` defines at module or class level is read
(loaded as a name or an attribute) in ``src/``, or is listed below with the file that reads it."""

import ast
import pathlib

import permemc

#: ``COUNT_ONLY`` in the tracer counts the calls of the walk oracle.
HELD_OUTSIDE_SRC = {"_distinct_trace_counts": "perfbench/tracer.py"}


def test_every_private_name_is_read_in_src():
    defined, read = set(), set()
    for path in pathlib.Path(permemc.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in [*tree.body, *(node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body)]:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", node)]
            defined.update(target.id if isinstance(target, ast.Name) else getattr(target, "name", "") for target in targets)
        loads = [node for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)]
        read.update(getattr(node, "id", getattr(node, "attr", None)) for node in loads)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert len(private) > 80 and private - read == set(HELD_OUTSIDE_SRC)
    root = pathlib.Path(__file__).resolve().parents[1]
    assert all(name in (root / holder).read_text() for name, holder in HELD_OUTSIDE_SRC.items())
