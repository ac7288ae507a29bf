import quasicone


def test_every_public_name_resolves():
    missing = [n for n in quasicone.__all__ if not hasattr(quasicone, n)]
    assert missing == []
    assert len(set(quasicone.__all__)) == len(quasicone.__all__)


def test_no_module_imports_a_name_it_never_uses():
    # an ast walk, since no linter is at hand offline: every name a module
    # binds by import must be read somewhere in it (__init__ re-exports)
    import ast
    import pathlib

    unused = []
    for path in sorted(pathlib.Path(quasicone.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_private_helper_is_read_in_the_package():
    # an ast walk over src/quasicone: every private module-level function
    # or constant must be read by some other top-level statement of the
    # package (its own definition and a recursive call do not count), so a
    # helper that a refactor leaves behind fails here, not in review
    import ast
    import pathlib

    defined, reads = [], []
    for path in sorted(pathlib.Path(quasicone.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
            defined += [(path.name, stmt.lineno, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
            reads.append((path.name, stmt.lineno, read))
    orphans = [f"{f}:{line} {name}" for f, line, name in defined
               if not any(name in read for g, at, read in reads if (g, at) != (f, line))]
    assert orphans == []


def test_no_module_rebinds_state_by_global_or_nonlocal():
    # an ast walk over src/quasicone: no function may rebind a module or
    # enclosing name, so state kept between calls can only be an explicit
    # cache (functools.cache or lru_cache), cleared by its cache_clear
    import ast
    import pathlib

    found = [f"{path.name}:{node.lineno} {', '.join(node.names)}"
             for path in sorted(pathlib.Path(quasicone.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert found == []


def test_only_the_ray_verdict_and_the_kept_scan_call_lattice_scan():
    # an ast walk over certify.py: a probe that wants a full scan goes
    # through _ray_verdict, the one validation path, and the margin
    # wrappers through _kept_scan, so no probe can validate its own way
    import ast
    import pathlib

    path = pathlib.Path(quasicone.__file__).parent / "certify.py"
    callers = {getattr(stmt, "name", f"line {stmt.lineno}")
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body
               for node in ast.walk(stmt)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "lattice_scan"}
    assert callers == {"_ray_verdict", "_kept_scan"}
