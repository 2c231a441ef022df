"""Keeps the module audit honest without a Ray session: the README
module table lists exactly the modules on disk, no module it marks
"tests only" is imported by a surface, bench.py reaches no module
that a user surface does not, every operator the queries() docstring
names as off-surface still exists, and every example spec names
registered stages with arguments they accept."""
from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import re

import __ray_entry__
from nidaba_ray.stages import registry

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "nidaba_ray"


def _audit_rows() -> dict[str, list[str]]:
    """module → its four mark cells, as the README table has them."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Module audit\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|(.*)\|$", section, flags=re.M)
    assert len(rows) == len({m for m, _ in rows}), "duplicate audit rows"
    return {m: [c.strip() for c in cells.split("|")] for m, cells in rows}


def _imports(path: pathlib.Path, skip_fn: str | None = None) -> set[pathlib.Path]:
    """Files under nidaba_ray/ that ``path`` imports, at module or
    function level (packages count through their ``__init__``), leaving
    out the body of the function named ``skip_fn``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = {id(n) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == skip_fn
               for n in ast.walk(f)}
    names = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    out = set()
    for name in names:
        parts = name.split(".")
        if parts[0] != "nidaba_ray":
            continue
        for i in range(1, len(parts) + 1):
            base = PKG.joinpath(*parts[1:i])
            out |= {f for f in (base.with_suffix(".py"), base / "__init__.py")
                    if f.is_file()}
    return out


def test_readme_audit_rows_match_modules():
    rows = _audit_rows()
    on_disk = {
        p.relative_to(PKG).as_posix()
        for p in PKG.rglob("*.py")
        if p.name != "__init__.py"
    }
    assert set(rows) == on_disk, (
        f"missing: {sorted(on_disk - set(rows))}, "
        f"stale: {sorted(set(rows) - on_disk)}")
    assert all(len(cells) == 4 for cells in rows.values())


def _closure(roots: list[pathlib.Path]) -> set[str]:
    """Modules under nidaba_ray/ (relative paths) in the import closure
    of ``roots``, the roots included. The registry's loader is not
    followed: it imports every stage, used by a spec or not."""
    todo = list(roots)
    seen = set(todo)
    while todo:
        path = todo.pop()
        skip = "_ensure_builtin" if path == PKG / "stages/registry.py" else None
        new = _imports(path, skip) - seen
        seen |= new
        todo += new
    return {p.relative_to(PKG).as_posix() for p in seen if PKG in p.parents}


def test_tests_only_marks_are_sound():
    """A "tests only" module is in the import closure of neither
    bench.py, __ray_entry__.py nor any module the audit marks as
    reached."""
    rows = _audit_rows()
    tests_only = {m for m, cells in rows.items() if cells[-1] == "✓"}
    reached = _closure([ROOT / "bench.py", ROOT / "__ray_entry__.py"]
                       + [PKG / m for m in rows if m not in tests_only])
    assert not tests_only & reached, sorted(tests_only & reached)


def test_bench_reaches_no_module_beyond_the_user_surfaces():
    """bench.py times what users run: its import closure adds no
    module to that of the headline and ``queries()``
    (``__ray_entry__.py``), the stages the example specs name (with
    ``stages/registry.py``) and the CLI/REST entry points."""
    stage_files = {
        pathlib.Path(inspect.getsourcefile(
            registry.get_stage(step["stage"]).fn)).resolve()
        for path in (ROOT / "examples").glob("*.yaml")
        for step in registry.load_spec(str(path))
    }
    surfaces = _closure(
        [ROOT / "__ray_entry__.py", PKG / "stages/registry.py",
         PKG / "run.py", PKG / "server.py", PKG / "pipelines/runner.py"]
        + sorted(stage_files))
    extra = _closure([ROOT / "bench.py"]) - surfaces
    assert not extra, sorted(extra)


def test_off_surface_operators_resolve():
    names = re.findall(r"``([A-Za-z_][\w.]*)``",
                       __ray_entry__.queries.__doc__)
    assert sorted(names) == [
        "functions.ann.kmeans_embeddings",
        "functions.textops.c4_filtered",
        "functions.textops.fineweb_quality_flags",
        "functions.textops.fingerprint_md5",
        "functions.textops.gopher_quality_flags",
        "functions.urls.url_canonicalize",
        "functions.urls.url_dedup_latest",
        "pipelines.curate.mixture_sample",
        "pipelines.curate.stratified_sample",
    ]
    for name in names:
        module, attr = name.rsplit(".", 1)
        mod = importlib.import_module(f"nidaba_ray.{module}")
        assert callable(getattr(mod, attr, None)), name


def test_example_specs_resolve():
    specs = sorted((ROOT / "examples").glob("*.yaml"))
    assert len(specs) >= 10
    for path in specs:
        for step in registry.load_spec(str(path)):
            stage = registry.get_stage(step["stage"])
            if "fn_constructor_kwargs" in step:
                assert stage.stateful, (path.name, stage.name)
                inspect.signature(stage.fn).bind(**step["fn_constructor_kwargs"])
            if "fn_kwargs" in step and not stage.stateful:
                inspect.signature(stage.fn).bind(None, **step["fn_kwargs"])
