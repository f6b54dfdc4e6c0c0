"""Count the settable surface and the size of the flexasm package.

Usage::

    python tools/surface_counts.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/flexasm`` next to this script.  For each
module, read from its source with ``ast`` (nothing is imported), it
prints:

* ``flags``: command line flags, one per ``add_argument`` call whose
  first name starts with ``-``;
* ``params``: parameters with a default value of public functions and of
  public methods (``__init__`` included) of public classes; nested
  functions are not counted;
* ``fields``: fields of public dataclasses and named tuples that their
  constructor accepts (``field(init=False)`` and ``ClassVar`` are not
  counted);
* ``settable``: the sum of the three;
* ``__all__``: the entries of the module's ``__all__`` list;
* ``lines``: lines of the file.

The last row sums every module.  The script reports; it gates nothing.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

COLUMNS = ("flags", "params", "fields", "settable", "__all__", "lines")


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _defaulted(fn) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _name(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _has_fields(cls: ast.ClassDef) -> bool:
    return (any(_name(d) == "dataclass" for d in cls.decorator_list)
            or any(_name(b) == "NamedTuple" for b in cls.bases))


def _init_field(stmt: ast.AnnAssign) -> bool:
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
        for kw in value.keywords:
            if kw.arg == "init" and isinstance(kw.value, ast.Constant) \
                    and kw.value.value is False:
                return False
    return True


def count_module(path: Path) -> dict:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    counts = dict.fromkeys(COLUMNS, 0)
    counts["lines"] = len(source.splitlines())

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument" and node.args
                and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).startswith("-")):
            counts["flags"] += 1

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _public(stmt.name):
                counts["params"] += _defaulted(stmt)
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and _public(item.name):
                    counts["params"] += _defaulted(item)
                elif (isinstance(item, ast.AnnAssign) and _has_fields(stmt)
                      and _init_field(item)):
                    counts["fields"] += 1
        elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            counts["__all__"] = len(stmt.value.elts)

    counts["settable"] = counts["flags"] + counts["params"] + counts["fields"]
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "flexasm"
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 2
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<14}" + "".join(f"{c:>10}" for c in COLUMNS))
    for path in files:
        counts = count_module(path)
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{path.stem:<14}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    print(f"{'total':<14}" + "".join(f"{total[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
