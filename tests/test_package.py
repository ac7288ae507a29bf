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
