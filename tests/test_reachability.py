"""Every top-level definition and class member in src/poischain/ has a consumer.

The walk starts from the command line (cli.main, cli.console_main), from every
name a script under scripts/ imports, and from a short allow-list. It follows
the names each reached definition mentions: a bare name to the definition of
its module or to the one it imports, and `module.name` through a module
imported with `from . import module`. A class brings its bases, decorators,
fields and dunder methods; dunder methods are called by syntax (operators,
construction, hashing, iteration), not by name. Every other member (method,
property, classmethod) of a reached class is reached when reached code, or
any line of a script, reads an attribute of its name. The walk matches names
only, so it lets a member through whenever another class has an attribute of
the same name that something reads: Monomial.degree passes because
Polynomial.degree is read. A definition or member that no path reaches is
code only the tests run; it moves to tests/helpers.py or goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "poischain"

# (module, name) or (module, "Class.member"): why it stays without a caller
# in cli.py or scripts/
ALLOWED = {
    # documented library API
    ("poly", "lie_poisson_bracket"): "the README's Python example imports it",
    ("algebra", "direct_sum"): "the README library section documents it",
    ("algebra", "dual_transport"): "the README library section documents it",
    # paper features that no report shows yet
    ("chains", "base_existence_verdict"): "the paper's test for whether a base exists",
    ("chains", "BaseExistenceReport"): "the result of base_existence_verdict",
    ("commutant", "poisson_center_basis"): "the Poisson center of an intermediate algebra",
    ("chains", "fiber_ideal_generators"): "the ideal of a joint level set of a chain",
    # perfbench/tracing.py wraps these by name; they go when the benchmark changes
    ("commutant", "monomial_basis"): "traced as commutant.monomial_basis",
    ("linalg", "row_from_rationals"): "traced as linalg.row_from_rationals",
    ("cycles", "balance_check"): "traced as cycles.balance_check",
    # perfbench/workloads.py reads these in its reference checks
    ("poly", "Polynomial.terms"): "perfbench decodes relation certificates with it",
    ("poly", "Monomial.dense"): "perfbench decodes relation certificates with it",
    ("commutant", "GeneratorSet.gens"):
        "perfbench reads them; they go with the benchmark change (ROADMAP item 5)",
    ("commutant", "GeneratorSet.as_generator_set"):
        "perfbench reads them; they go with the benchmark change (ROADMAP item 5)",
    # the tests' reference oracles use these; the package itself needs none
    ("poly", "Polynomial.power"): "the Casimir and flow oracles raise to powers",
    ("poly", "Polynomial.partial_derivative"): "the double-sum bracket oracle",
    ("poly", "Polynomial.variables"): "the tests' check of which coordinates occur",
    ("poly", "Polynomial.evaluate"): "the exact evaluation the float oracles compare to",
    ("algebra", "LieAlgebra.bracket_coeffs"): "the double-sum bracket oracle",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _members(node):
    """The non-dunder methods, properties and classmethods of a class."""
    return [
        item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _is_dunder(item.name)
    ]


def _index():
    """Per module: its top-level definitions and class members (name or
    "Class.member" -> node), the names it imports from the package (local
    name -> (module, name)), and the package modules it imports whole (local
    name -> module)."""
    defs, imports, modules = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        defs[mod], imports[mod], modules[mod] = {}, {}, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[mod][node.name] = node
                if isinstance(node, ast.ClassDef):
                    for item in _members(node):
                        defs[mod][f"{node.name}.{item.name}"] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        defs[mod][target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[mod][local] = alias.name
                    else:
                        imports[mod][local] = (node.module, alias.name)
    return defs, imports, modules


def _resolve(mod, name, defs, imports):
    """The (module, name) that defines `name` as seen from `mod`, following
    re-exports, or None for a name from outside the package."""
    while name not in defs.get(mod, {}):
        if name not in imports.get(mod, {}):
            return None
        mod, name = imports[mod][name]
    return mod, name


def _roots(defs, imports):
    """cli.main, cli.console_main and every package name a script imports,
    and every attribute name a script reads."""
    roots = {("cli", "main"), ("cli", "console_main")}
    attrs = set()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("poischain"):
                mod = node.module.partition(".")[2] or "__init__"
                for alias in node.names:
                    found = _resolve(mod, alias.name, defs, imports)
                    assert found, f"{path.name} imports {alias.name!r}, which is not defined"
                    roots.add(found)
    return roots, attrs


def _own_nodes(node):
    """The nodes of a definition; a class's own nodes leave out its
    non-dunder members, which are reached one by one."""
    skip = set(map(id, _members(node))) if isinstance(node, ast.ClassDef) else set()
    todo = [node]
    while todo:
        item = todo.pop()
        yield item
        todo.extend(child for child in ast.iter_child_nodes(item) if id(child) not in skip)


def _reach(roots, attrs, defs, imports, modules):
    seen = set()
    todo = list(roots)
    read = set(attrs)
    waiting = {}  # attribute name -> members of reached classes it would reach
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        mod, name = key
        node = defs[mod][name]
        if isinstance(node, ast.ClassDef):
            for item in _members(node):
                member = (mod, f"{name}.{item.name}")
                if item.name in read:
                    todo.append(member)
                else:
                    waiting.setdefault(item.name, []).append(member)
        for sub in _own_nodes(node):
            found = None
            if isinstance(sub, ast.Name):
                found = _resolve(mod, sub.id, defs, imports)
            elif isinstance(sub, ast.Attribute):
                if sub.attr not in read:
                    read.add(sub.attr)
                    todo.extend(waiting.pop(sub.attr, []))
                if isinstance(sub.value, ast.Name) and sub.value.id in modules[mod]:
                    found = _resolve(modules[mod][sub.value.id], sub.attr, defs, imports)
            if found and found not in seen:
                todo.append(found)
    return seen


def test_every_definition_is_reached():
    defs, imports, modules = _index()
    for mod, name in ALLOWED:
        assert name in defs[mod], f"allow-listed {mod}.{name} is not defined"
    roots, attrs = _roots(defs, imports)
    reached = _reach(roots | set(ALLOWED), attrs, defs, imports, modules)
    unreached = sorted(
        f"{mod}.{name}" for mod in defs for name in defs[mod] if (mod, name) not in reached
    )
    assert unreached == []


def test_allow_list_names_no_reached_definition():
    """An allow-listed name, top-level or member, that the command line or a
    script reaches needs no entry: the list shrinks as consumers arrive."""
    defs, imports, modules = _index()
    roots, attrs = _roots(defs, imports)
    reached = _reach(roots, attrs, defs, imports, modules)
    assert sorted(set(ALLOWED) & reached) == []


def test_only_perfbench_reads_the_generator_set_aliases():
    """GeneratorSet.gens and GeneratorSet.as_generator_set() return the set
    itself and stay only for perfbench/workloads.py: no package, script or
    test line and no CI step reads them."""
    alias = re.compile(r"\.gens\b|\.as_generator_set\(")
    files = [
        path
        for folder in ("src", "scripts", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != Path(__file__).resolve()
    ]
    files.append(ROOT / ".github" / "workflows" / "tests.yml")
    found = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if alias.search(line)
    ]
    assert found == []
