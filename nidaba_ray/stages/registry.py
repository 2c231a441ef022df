"""Stage registry + pipeline-spec compiler — the nidaba plugin surface
analog (nidaba registers ``@app.task(base=NidabaTask,
name='<group>.<method>')`` tasks from ``plugins_load`` in nidaba.yaml,
then ``Batch.add_task(group, method, **kw)`` builds an ordered task
graph; nidaba/config.py + tasks/helper.py + nidaba.py, UNVERIFIED per
SURVEY.md §0).

Ours: ``@register_stage("group.method")`` maps a name to a stage spec
(callable or actor class + map_batches defaults); ``compile_pipeline``
turns an ordered spec list (dict or YAML) into a lazy Dataset chain.

    spec = [
        {"stage": "dedup.url_latest"},
        {"stage": "extract.text", "fn_constructor_kwargs": {"spell": False}},
        {"stage": "clean.mojibake"},
        {"stage": "postprocess.spell", "concurrency": [1, 4]},
    ]
    ds = compile_pipeline(pages, spec)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

import ray.data as rd

__all__ = ["register_stage", "get_stage", "list_stages", "compile_pipeline",
           "load_spec", "StageSpec"]

_REGISTRY: dict[str, "StageSpec"] = {}


@dataclass
class StageSpec:
    name: str
    fn: Callable  # plain function (stateless tasks) or class (actor pool)
    stateful: bool
    defaults: dict[str, Any] = field(default_factory=dict)
    dataset_level: bool = False
    """Dataset-level stages receive the whole ``Dataset`` (for GLOBAL
    operators — grouped dedup, sorts — that one ``map_batches`` cannot
    express); per-batch kwargs like batch_format/concurrency do not
    apply to them."""

    def apply(self, ds: rd.Dataset, **overrides: Any) -> rd.Dataset:
        if self.dataset_level:
            return self.fn(ds, **{**self.defaults, **overrides})
        kw = {"batch_format": "pyarrow", **self.defaults, **overrides}
        if "concurrency" in kw and isinstance(kw["concurrency"], list):
            kw["concurrency"] = tuple(kw["concurrency"])  # YAML has no tuples
        if not self.stateful:
            kw.pop("concurrency", None)  # tasks scale elastically
        return ds.map_batches(self.fn, **kw)


def register_stage(
    name: str, **defaults: Any
) -> Callable[[Callable], Callable]:
    def deco(fn: Callable) -> Callable:
        _REGISTRY[name] = StageSpec(
            name=name, fn=fn, stateful=inspect.isclass(fn),
            dataset_level=bool(defaults.pop("dataset_level", False)),
            defaults=defaults,
        )
        return fn

    return deco


def get_stage(name: str) -> StageSpec:
    _ensure_builtin()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown stage {name!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def list_stages() -> list[str]:
    _ensure_builtin()
    return sorted(_REGISTRY)


def compile_pipeline(ds: rd.Dataset, spec: list[dict]) -> rd.Dataset:
    """Ordered spec → chained lazy Dataset (the Batch.run compile)."""
    for step in spec:
        step = dict(step)
        name = step.pop("stage")
        ds = get_stage(name).apply(ds, **step)
    return ds


def load_spec(path: str) -> list[dict]:
    import yaml

    with open(path) as f:
        doc = yaml.safe_load(f)
    steps = doc["pipeline"] if isinstance(doc, dict) else doc
    if not isinstance(steps, list) or not all("stage" in s for s in steps):
        raise ValueError(f"malformed pipeline spec {path}")
    return steps


_BUILTIN_DONE = False


def _ensure_builtin() -> None:
    """Register the built-in stages lazily (avoids import cycles)."""
    global _BUILTIN_DONE
    if _BUILTIN_DONE:
        return
    _BUILTIN_DONE = True
    from nidaba_ray.pipelines.extract import POOL, FusedExtract
    from nidaba_ray.stages.spell import SpellFilter
    from nidaba_ray.stages.serialize import to_jsonl_rows

    # the one extraction stage: the flagship's actor and pool shape;
    # its one constructor argument, ``spell``, rides
    # fn_constructor_kwargs
    register_stage("extract.text", **POOL)(FusedExtract)
    register_stage(
        "postprocess.spell", batch_size=256, concurrency=(1, 4), num_cpus=1
    )(SpellFilter)
    register_stage("output.jsonl")(to_jsonl_rows)
    from nidaba_ray.stages.serialize import to_tei_rows

    register_stage("output.tei")(to_tei_rows)
    from nidaba_ray.stages.serialize import to_hocr_rows

    register_stage("output.hocr")(to_hocr_rows)
    from nidaba_ray.stages.serialize import to_alto_rows

    register_stage("output.alto")(to_alto_rows)
    from nidaba_ray.stages.serialize import to_abbyy_rows

    register_stage("output.abbyy")(to_abbyy_rows)
    from nidaba_ray.stages.serialize import (
        load_abbyy_rows,
        load_alto_rows,
        load_hocr_rows,
        load_tei_rows,
    )

    from nidaba_ray.stages.serialize import tei_metadata_rows

    register_stage("output.tei_metadata")(tei_metadata_rows)
    from nidaba_ray.stages.serialize import (load_markdown_rows,
                                             to_markdown_rows)

    register_stage("output.markdown")(to_markdown_rows)
    register_stage("input.markdown")(load_markdown_rows)
    register_stage("input.tei")(load_tei_rows)
    register_stage("input.hocr")(load_hocr_rows)
    register_stage("input.alto")(load_alto_rows)
    register_stage("input.abbyy")(load_abbyy_rows)
    from nidaba_ray.stages.quality import QualityScorer

    register_stage("postprocess.quality", batch_size=256,
                   concurrency=(1, 4), num_cpus=1)(QualityScorer)
    from nidaba_ray.stages.quality import RealQualityScorer

    register_stage("postprocess.quality_real", batch_size=256,
                   concurrency=(1, 4), num_cpus=1)(RealQualityScorer)
    from nidaba_ray.stages.multimodal import (
        AudioFeatures, ImageDecoder, VideoFrameSampler,
    )

    register_stage("media.image", batch_size=64, concurrency=(1, 4),
                   num_cpus=1)(ImageDecoder)
    register_stage("media.audio", batch_size=64, concurrency=(1, 4),
                   num_cpus=1)(AudioFeatures)
    from nidaba_ray.stages.multimodal import MediaProbe

    register_stage("media.probe", batch_size=256, concurrency=(1, 4),
                   num_cpus=1)(MediaProbe)
    register_stage("media.frames", batch_size=64, concurrency=(1, 4),
                   num_cpus=1)(VideoFrameSampler)
    from nidaba_ray.functions.scrub import (
        blocklist_filter_batch,
        scrub_pii_batch,
        url_blocklist_filter_batch,
    )

    register_stage("clean.pii")(scrub_pii_batch)
    register_stage("clean.blocklist")(blocklist_filter_batch)
    register_stage("clean.url_blocklist")(url_blocklist_filter_batch)
    from nidaba_ray.functions.textops import (
        c4_filter_batch,
        fineweb_filter_batch,
        fineweb_rewrite_batch,
        gopher_filter_batch,
    )

    register_stage("clean.gopher")(gopher_filter_batch)
    register_stage("clean.c4")(c4_filter_batch)
    register_stage("clean.fineweb")(fineweb_filter_batch)
    register_stage("clean.fineweb_rewrite")(fineweb_rewrite_batch)
    from nidaba_ray.functions.mojibake import mojibake_fix_batch

    register_stage("clean.mojibake")(mojibake_fix_batch)
    from nidaba_ray.functions.pagemeta import page_meta_batch

    register_stage("extract.meta")(page_meta_batch)
    from nidaba_ray.functions.urls import url_dedup_stage

    # the first dataset-level stage: a grouped global dedup, not a
    # per-batch map (StageSpec.dataset_level)
    register_stage("dedup.url_latest", dataset_level=True)(url_dedup_stage)
    from nidaba_ray.stages.metadata import jsonld_rows

    register_stage("extract.jsonld")(jsonld_rows)
    from nidaba_ray.functions.license import (
        annotate_license_batch,
        license_filter_batch,
    )

    register_stage("extract.license")(annotate_license_batch)
    register_stage("clean.license")(license_filter_batch)
    from nidaba_ray.functions.robots import robots_filter_batch

    register_stage("clean.robots")(robots_filter_batch)
    from nidaba_ray.functions.langseg import lang_segment_batch

    register_stage("clean.langseg")(lang_segment_batch)
    from nidaba_ray.functions.linkgraph import harvest_links_batch

    register_stage("extract.links")(harvest_links_batch)
