"""API reachability: every public top-level function and class of the
package is loaded somewhere in ``src/``, ``scripts/`` or ``perfbench/``;
every public method, property or annotated field of a package class is
loaded there as an attribute; and every defaulted parameter of a public
function, method or class (a dataclass field or an ``__init__``
parameter) is passed by some call there.  A use inside the definition's
own body does not count.  A helper only tests need belongs in
``tests/oracles.py``, and a default only tests rely on is a knob the
package can do without.

A top-level name counts as loaded only inside its own module, in a
file that imports it from that module, or as an attribute of that
module (``cli.main``), so a local variable of the same name elsewhere
does not keep it alive; a call of a top-level function or class
resolves the same way.  A member counts as loaded by an attribute load
of its name whose receiver is of its class, and its defaulted
parameters as passed by a ``.name(...)`` call on such a receiver.  The
receiver's class is known statically when it is ``self`` or ``cls`` in
a method of that class, a parameter or variable annotated with it, a
name every binding of which in its scope is a call of the class, the
class itself, or such a call; any other receiver may be of any class,
so its load or call counts for every member of that name.  A receiver
counts for exactly its own class: no package class derives from
another.  A call with a ``*`` or ``**`` splat may pass anything, so it
counts as passing every parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qisograph"
PACKAGE_NAME = "qisograph"

#: "module.name", "module.Class.member" or "module.callable(param)" ->
#: why it stays without a caller
ALLOWED: dict[str, str] = {}


def _sources() -> list[tuple[Path, ast.Module]]:
    return [(path, ast.parse(path.read_text(), str(path)))
            for path in sorted(p for d in ("src", "scripts", "perfbench")
                               for p in (ROOT / d).rglob("*.py"))]


def _module(path: Path) -> str | None:
    return path.stem if path.parent == PACKAGE else None


def _imported_module(path: Path, node: ast.ImportFrom) -> str | None:
    """The package module an ``from X import ...`` names, or None."""
    if node.level == 1 and path.parent == PACKAGE:
        return node.module
    if node.level == 0 and node.module and node.module.startswith(PACKAGE_NAME + "."):
        return node.module.removeprefix(PACKAGE_NAME + ".")
    return None


def _bindings(path: Path, tree: ast.Module) -> tuple[dict, dict]:
    """(local name -> (module, name) of each name imported from a
    package module, local name -> module of each package module bound
    as a name), over every import statement of the file."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _imported_module(path, node)
            package_itself = ((node.level == 1 and not node.module and path.parent == PACKAGE)
                              or (node.level == 0 and node.module == PACKAGE_NAME))
            for alias in node.names:
                local = alias.asname or alias.name
                if source:
                    names[local] = (source, alias.name)
                elif package_itself:
                    modules[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE_NAME + ".") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix(PACKAGE_NAME + ".")
    return names, modules


def _resolve(node, path: Path, names: dict, modules: dict) -> tuple | None:
    """The (module, name) of a package top-level definition that a Name
    or Attribute load refers to, when it can be told statically."""
    if isinstance(node, ast.Name):
        return names.get(node.id) or ((_module(path), node.id) if _module(path) else None)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        module = modules.get(node.value.id)
        if module:
            return module, node.attr
    return None


def _sites(sources):
    """Each top-level statement of every source, with its file's
    bindings and the (module, name) of what it defines, if anything."""
    for path, tree in sources:
        names, modules = _bindings(path, tree)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            yield path, names, modules, stmt, (_module(path), own) if own else None


def _public_definitions(sources):
    for path, tree in sources:
        if path.parent == PACKAGE:
            for stmt in tree.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                        and not stmt.name.startswith("_")):
                    yield path.stem, stmt


def unreached_definitions() -> set[str]:
    """"module.name" of each public top-level function or class of the
    package that no other top-level statement loads."""
    sources = _sources()
    loaded = set()
    for path, names, modules, stmt, own in _sites(sources):
        for sub in ast.walk(stmt):
            if isinstance(getattr(sub, "ctx", None), ast.Load):
                target = _resolve(sub, path, names, modules)
                if target and target != own:
                    loaded.add(target)
    return {f"{module}.{d.name}" for module, d in _public_definitions(sources)
            if (module, d.name) not in loaded}


_SCOPES = (ast.FunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(scope):
    """The nodes of *scope*'s own body: nested functions and classes are
    yielded but not entered."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _scope_bindings(scope, owner, class_of, constructed) -> dict[str, set]:
    """Local name -> the classes (None for an unknown one) that its
    bindings in *scope* give it: a parameter's annotation, or *owner*
    for a method's first parameter; an assignment's constructor call;
    a variable's annotation; None for any other binding."""
    bound: dict[str, set] = {}
    if isinstance(scope, (ast.FunctionDef, ast.Lambda)):
        params = scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
        for i, a in enumerate(params):
            bound.setdefault(a.arg, set()).add(owner if owner and i == 0
                                               else class_of(a.annotation))
        for a in (scope.args.vararg, scope.args.kwarg):
            if a:
                bound.setdefault(a.arg, set()).add(None)
    handled = set()
    for node in _scope_nodes(scope):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            handled.add(id(node.targets[0]))
            bound.setdefault(node.targets[0].id, set()).add(constructed(node.value))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            handled.add(id(node.target))
            bound.setdefault(node.target.id, set()).add(class_of(node.annotation))
        elif (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
              and id(node) not in handled):
            bound.setdefault(node.id, set()).add(None)
    return bound


def _receivers(sources) -> dict[int, tuple]:
    """id of each attribute load (a method call's included) whose
    receiver's class is known statically -> the (module, name) of that
    package class."""
    classes = {(path.stem, d.name) for path, tree in sources if path.parent == PACKAGE
               for d in tree.body if isinstance(d, ast.ClassDef)}
    out = {}
    for path, tree in sources:
        names, modules = _bindings(path, tree)

        def class_of(node):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                node = ast.Name(node.value)
            target = _resolve(node, path, names, modules) if node else None
            return target if target in classes else None

        def constructed(node):
            return class_of(node.func) if isinstance(node, ast.Call) else None

        owners = {id(fn): (_module(path), d.name) for d in tree.body
                  if isinstance(d, ast.ClassDef) for fn in d.body
                  if isinstance(fn, ast.FunctionDef) and "staticmethod" not in _decorators(fn)}
        for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, _SCOPES)]:
            bound = _scope_bindings(scope, owners.get(id(scope)), class_of, constructed)
            for node in _scope_nodes(scope):
                if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                    continue
                recv = node.value
                if isinstance(recv, ast.Name) and recv.id in bound:
                    keys = bound[recv.id]
                    key = next(iter(keys)) if len(keys) == 1 else None
                elif isinstance(recv, ast.Name):
                    key = class_of(recv)
                else:
                    key = constructed(recv)
                if key:
                    out[id(node)] = key
    return out


def _member_loads(sources) -> list[tuple[str, tuple | None, ast.Attribute]]:
    """(name, receiver class or None when unknown, node) of every
    attribute load."""
    receivers = _receivers(sources)
    return [(sub.attr, receivers.get(id(sub)), sub) for _, tree in sources
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)]


def _public_methods(cls: ast.ClassDef):
    return [fn for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]


def _public_classes(sources):
    return [(module, d) for module, d in _public_definitions(sources)
            if isinstance(d, ast.ClassDef)]


def unreached_methods() -> set[str]:
    """"module.Class.method" of each public method or property of a
    package class that no attribute load outside its own body reads on
    a receiver that may be of the class."""
    sources = _sources()
    loads = _member_loads(sources)
    out = set()
    for module, cls in _public_classes(sources):
        for fn in _public_methods(cls):
            inside = {id(sub) for sub in ast.walk(fn)}
            if not any(name == fn.name and key in (None, (module, cls.name))
                       and id(node) not in inside for name, key, node in loads):
                out.add(f"{module}.{cls.name}.{fn.name}")
    return out


def unread_fields() -> set[str]:
    """"module.Class.field" of each public annotated field of a package
    class, a dataclass field or a NamedTuple's, that no attribute load
    reads on a receiver that may be of the class."""
    sources = _sources()
    read = {(name, key) for name, key, _ in _member_loads(sources)}
    return {f"{module}.{cls.name}.{stmt.target.id}" for module, cls in _public_classes(sources)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_")
            and not read & {(stmt.target.id, None), (stmt.target.id, (module, cls.name))}}


def _decorators(node) -> set[str]:
    return {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
            for d in node.decorator_list}


def _parameters(fn: ast.FunctionDef) -> tuple[list[str], set[str]]:
    """(the positional parameter names of *fn* in order, self or cls
    left out, and the defaulted parameter names)."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    defaulted = set(positional[len(positional) - len(fn.args.defaults):]
                    if fn.args.defaults else ())
    defaulted |= {a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d}
    bound = positional[:1] if positional[:1] in (["self"], ["cls"]) else []
    return positional[len(bound):], defaulted


def _fields(cls: ast.ClassDef) -> tuple[list[str], set[str]]:
    """(the init fields of a dataclass in order, the defaulted ones)."""
    order, defaulted = [], set()
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        options = ({k.arg: k.value for k in value.keywords}
                   if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                   else None)
        if options is None:
            if value is not None:
                defaulted.add(stmt.target.id)
        elif getattr(options.get("init"), "value", True) is False:
            continue
        elif options.keys() & {"default", "default_factory"}:
            defaulted.add(stmt.target.id)
        order.append(stmt.target.id)
    return order, defaulted


def _callables(sources):
    """(label, key, positional parameters, defaulted ones, definition)
    for each public function, class and method of the package; the key
    is ("def", module, name) for a top-level definition, whose calls
    resolve by name, and ("attr", (module, class), name) for a method.  A class's
    parameters are its dataclass fields or its ``__init__``'s."""
    for module, d in _public_definitions(sources):
        key = ("def", module, d.name)
        if isinstance(d, ast.FunctionDef):
            yield f"{module}.{d.name}", key, *_parameters(d), d
            continue
        init = next((fn for fn in d.body
                     if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"), None)
        if "dataclass" in _decorators(d):
            yield f"{module}.{d.name}", key, *_fields(d), d
        elif init:
            yield f"{module}.{d.name}", key, *_parameters(init), init
        for fn in _public_methods(d):
            yield (f"{module}.{d.name}.{fn.name}", ("attr", (module, d.name), fn.name),
                   *_parameters(fn), fn)


def unpassed_defaults() -> set[str]:
    """"module.callable(param)" of each defaulted parameter or dataclass
    field that no call outside the callable's own body passes, by
    position or by keyword."""
    sources = _sources()
    receivers = _receivers(sources)
    methods = [key for _, key, *_ in _callables(sources) if key[0] == "attr"]
    calls = []                          # (key, positional count, keywords, splat, node)
    for path, names, modules, stmt, _ in _sites(sources):
        for call in ast.walk(stmt):
            if not isinstance(call, ast.Call):
                continue
            keys = []
            target = _resolve(call.func, path, names, modules)
            if target:
                keys.append(("def", *target))
            if isinstance(call.func, ast.Attribute):
                # a receiver of unknown class may be of any class
                owner = receivers.get(id(call.func))
                keys += [("attr", owner, call.func.attr)] if owner else [
                    key for key in methods if key[2] == call.func.attr]
            splat = (any(isinstance(a, ast.Starred) for a in call.args)
                     or any(k.arg is None for k in call.keywords))
            for key in keys:
                calls.append((key, len(call.args), {k.arg for k in call.keywords}, splat, call))
    out = set()
    for label, key, positional, defaulted, node in _callables(sources):
        inside = {id(sub) for sub in ast.walk(node)}
        given = set()
        for call_key, n_args, keywords, splat, call in calls:
            if call_key == key and id(call) not in inside:
                given |= (set(positional) | defaulted if splat
                          else set(positional[:n_args]) | keywords)
        out |= {f"{label}({p})" for p in defaulted - given}
    return out


def test_every_public_definition_has_a_caller():
    assert sorted(unreached_definitions() - ALLOWED.keys()) == []


def test_every_public_method_has_a_caller():
    assert sorted(unreached_methods() - ALLOWED.keys()) == []


def test_every_public_field_is_read():
    assert sorted(unread_fields() - ALLOWED.keys()) == []


def test_every_default_is_passed_by_some_call():
    assert sorted(unpassed_defaults() - ALLOWED.keys()) == []


def test_allowlist_holds_only_unreached_definitions():
    assert ALLOWED.keys() <= (unreached_definitions() | unreached_methods() | unread_fields()
                              | unpassed_defaults())
