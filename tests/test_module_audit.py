"""Keeps the direction-6 audit honest without a Ray session: the
README module table lists exactly the modules on disk, every operator
the queries() docstring names as off-surface still exists, and every
example spec names registered stages with arguments they accept."""
from __future__ import annotations

import importlib
import inspect
import pathlib
import re

import __ray_entry__
from nidaba_ray.stages import registry

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_audit_rows_match_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Module audit\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    on_disk = {
        p.relative_to(ROOT / "nidaba_ray").as_posix()
        for p in (ROOT / "nidaba_ray").rglob("*.py")
        if p.name != "__init__.py"
    }
    assert len(rows) == len(set(rows)), "duplicate audit rows"
    assert set(rows) == on_disk, (
        f"missing: {sorted(on_disk - set(rows))}, "
        f"stale: {sorted(set(rows) - on_disk)}")


def test_off_surface_operators_resolve():
    names = re.findall(r"``([A-Za-z_][\w.]*)``",
                       __ray_entry__.queries.__doc__)
    assert len(names) >= 10
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
