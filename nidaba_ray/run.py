"""CLI entry point — the ``nidaba batch`` analog (SURVEY.md §2.10 /
§3.1), runnable standalone or under ``ray job submit``:

    python -m nidaba_ray.run examples/extract.yaml \
        --input /path/pages.parquet --output /tmp/out [--limit N]

The YAML pipeline spec is compiled through the stage registry (the
plugin surface); the sink is bucketed parquet. For the resumable
manifest-checkpointed variant use ``python -m
nidaba_ray.pipelines.runner`` (the flagship extraction unless given
``--spec``).
"""

from __future__ import annotations

import argparse


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description="run a nidaba_ray pipeline spec")
    p.add_argument("spec", help="YAML pipeline spec (see stages/registry.py)")
    p.add_argument("--input", required=True, help="input pages parquet path")
    p.add_argument("--output", required=True, help="output parquet dir")
    p.add_argument("--limit", type=int, default=0, help="row limit (dev mode)")
    p.add_argument("--format", choices=["parquet", "jsonl"], default="parquet",
                   help="sink dialect (jsonl = one JSON object per row)")
    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:  # standalone script owns its session (driver contract)
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    import ray.data as rd

    from nidaba_ray.stages.registry import compile_pipeline, load_spec

    ds = rd.read_parquet(args.input)
    if args.limit:
        ds = ds.limit(args.limit)
    out = compile_pipeline(ds, load_spec(args.spec))
    if args.format == "jsonl":
        from nidaba_ray.stages.serialize import to_jsonl_rows

        out.map_batches(to_jsonl_rows, batch_format="pyarrow").write_json(args.output)
        n = rd.read_json(args.output).count()
    else:
        out.write_parquet(args.output)
        n = rd.read_parquet(args.output).count()
    print({"rows": n, "output": args.output, "format": args.format})
    if owns_session:
        ray.shutdown()


if __name__ == "__main__":
    main()
