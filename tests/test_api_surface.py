"""Every function, class and method in src/hypdet, private ones included, has
a caller there, and every dataclass field is read there.  No function there
writes module-level state.

A name counts as called when some ast.Name or ast.Attribute anywhere under
src/hypdet refers to it; the strings of an __all__ list do not count.  A
field counts as read when some ast.Attribute of that name is loaded.  Test
oracles live in the test files, not in the package.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hypdet"

# Criterion 5's two routes to the zeta series, compared by the tests only.
# Given the periodic points, zeta_product takes 0.09 s at N_det 12
# (2-core x86-64, one BLAS thread); they wait until `resonances` compares
# per-m traces.
ALLOWED_WITHOUT_CALLER = {"zeta_direct", "zeta_product"}
# dataclass fields ("Class.field") that may be set without being read
ALLOWED_UNREAD_FIELDS: set = set()


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _private(name):
    return name.startswith("_") and not _dunder(name)


def _definitions_and_references():
    """Module- and class-level functions and classes (no dunders) with their
    files, and every name some ast.Name or ast.Attribute refers to."""
    defined, referenced = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defined[f"{node.name}.{sub.name}"] = path
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    defined = {k: p for k, p in defined.items() if not _dunder(k.split(".")[-1])}
    return defined, referenced


def _orphans(private):
    defined, referenced = _definitions_and_references()
    return sorted(f"{p.relative_to(SRC.parent)}: {name}" for name, p in defined.items()
                  if _private(name.split(".")[-1]) == private
                  and name.split(".")[-1] not in referenced
                  and name not in ALLOWED_WITHOUT_CALLER)


def test_every_public_name_has_a_caller():
    orphans = _orphans(private=False)
    assert not orphans, "public names with no caller in src/hypdet:\n" + "\n".join(orphans)


def test_every_private_name_has_a_caller():
    # a private helper that only the tests call is a test oracle in the
    # package: it belongs in the test files
    orphans = _orphans(private=True)
    assert not orphans, "private names with no caller in src/hypdet:\n" + "\n".join(orphans)


def test_allowlist_entries_exist():
    defined, _ = _definitions_and_references()
    assert ALLOWED_WITHOUT_CALLER <= {k for k in defined if not _private(k.split(".")[-1])}


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields_and_reads():
    fields, read = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        fields[f"{node.name}.{sub.target.id}"] = path
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return fields, read


def test_every_dataclass_field_is_read():
    fields, read = _dataclass_fields_and_reads()
    dead = sorted(f"{p.relative_to(SRC.parent)}: {name}" for name, p in fields.items()
                  if name.split(".")[-1] not in read and name not in ALLOWED_UNREAD_FIELDS)
    assert not dead, "dataclass fields never read in src/hypdet:\n" + "\n".join(dead)


def test_field_allowlist_entries_exist():
    fields, _ = _dataclass_fields_and_reads()
    assert ALLOWED_UNREAD_FIELDS <= set(fields)


def test_no_private_module_of_another_package_is_imported():
    # a private module (scipy.sparse._sparsetools) may change or vanish in
    # any release of its package; relative imports stay inside hypdet
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.relative_to(SRC.parent)}:{node.lineno}: {name}" for name in names
                      if any(_private(part) for part in name.split("."))]
    assert not found, "private modules of other packages imported:\n" + "\n".join(found)


def _module_names(tree):
    """Names bound at the top level of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        else:
            names |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def _base_name(node):
    """The name at the root of a chain of subscripts and attributes."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_no_function_writes_module_state():
    # a process-wide cache (a module-level dict filled by a function) hides
    # repeated work and outlives the run; a run computes each quantity once
    # and passes it on
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = _module_names(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            # parameters and names assigned anywhere inside shadow the module's
            local = set()
            for n in ast.walk(fn):
                if isinstance(n, (ast.FunctionDef, ast.Lambda)):
                    local |= {a.arg for a in ast.walk(n.args) if isinstance(a, ast.arg)}
                elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    local.add(n.id)
            where = f"{path.relative_to(SRC.parent)}:{{}}: {getattr(fn, 'name', 'lambda')}"
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    found.append(where.format(node.lineno) + f" global {', '.join(node.names)}")
                elif (isinstance(node, (ast.Subscript, ast.Attribute))
                      and isinstance(node.ctx, (ast.Store, ast.Del))):
                    base = _base_name(node)
                    if base in module and base not in local:
                        found.append(where.format(node.lineno) + f" stores into {base}")
    assert not found, ("functions that write module-level state:\n"
                       + "\n".join(sorted(set(found))))


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check the package relies on
    # raises an error of its own
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/hypdet:\n" + "\n".join(found)
