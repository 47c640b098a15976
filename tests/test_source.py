"""Source guard: every module-level function and class in the package is used by the package.

A definition that only the tests call is library that no run exercises; the
scan fails on it so that such code moves into the tests or goes.
"""

import ast
from pathlib import Path

import fpsearch

SRC = Path(fpsearch.__file__).parent


def _definitions_and_references():
    # module-level (file, name) definitions, and every name the package uses:
    # loaded or bound names, attributes, imported names and __all__ strings
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, node.name) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(elt.value for elt in node.value.elts)
    return defined, used


def test_every_definition_is_referenced_in_src():
    defined, used = _definitions_and_references()
    assert defined
    unreferenced = [f"{module}:{name}" for module, name in defined if name not in used]
    assert not unreferenced, f"defined in src but referenced by no src module: {unreferenced}"


def _qualified_uses(tree):
    # "module.name" for every attribute read on a plain name and every from-import
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_count_and_no_complex_cast_rules_live_in_complexpoly():
    # check_int is the one caller of operator.index, and check_real keeps complex input
    # from being cast; a call anywhere else would be a second copy of one of those rules.
    # The scan must find check_int's own call, or it would pass on any source
    homes = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for use in _qualified_uses(ast.parse(path.read_text(), filename=str(path)))
        if use == "operator.index" or use.endswith(".iscomplexobj")
    }
    assert homes == {"complexpoly.py"}, f"operator.index or iscomplexobj used outside complexpoly.py: {homes}"


def _callee(call):
    # the called name, bare or as an attribute: "sqrt" for sqrt, math.sqrt and np.sqrt
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_square(node):
    # a * a, a ** 2 or square(a), for any expression a
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return isinstance(node.right, ast.Constant) and node.right.value == 2
    return isinstance(node, ast.Call) and _callee(node) == "square"


def _complement_spellings(tree):
    # the line of every sqrt(1 - v^2), bare or clamped as sqrt(max(0.0, 1 - v^2)) or
    # sqrt(maximum(0.0, 1 - v^2)); fmax is not a clamp this scan matches
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _callee(node) == "sqrt" and len(node.args) == 1):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Call) and _callee(arg) in ("max", "maximum") and len(arg.args) == 2:
            arg = arg.args[1]
        if (
            isinstance(arg, ast.BinOp)
            and isinstance(arg.op, ast.Sub)
            and isinstance(arg.left, ast.Constant)
            and arg.left.value == 1
            and _is_square(arg.right)
        ):
            yield node.lineno


def test_complement_is_spelled_once_in_complexpoly():
    # complexpoly.complement is the one sqrt(1 - v^2) of the package: every gamma, x, s and
    # floor is taken from it.  The closed form's sqrt(fmax(0.0, 1 - ratio^2)) passes, as its
    # fmax turns a cosh overflow's NaN into 0 and goes with that overflow (ROADMAP item 13).
    # The scan must find complement's own spelling, or it would pass on any source
    sites = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in _complement_spellings(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert [name for name, _ in sites] == ["complexpoly.py"], f"sqrt(1 - v^2) spelled at {sites}"
