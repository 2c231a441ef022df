"""Seeded randomized property test for the cleaning family: the JSON-LD
scanner is total on garbage input."""

import random

from nidaba_ray.stages.metadata import extract_jsonld_objects


def test_jsonld_scanner_total_on_garbage():
    rng = random.Random(3)
    for _ in range(200):
        s = "".join(rng.choices(
            '<script type="application/ld+json">{}[]"\\,:happy</>', k=200))
        objs, n_invalid = extract_jsonld_objects(s)  # must never raise
        assert isinstance(objs, list) and n_invalid >= 0
    # unterminated script block: no match, no hang
    assert extract_jsonld_objects(
        '<script type="application/ld+json">{"a":1}') == ([], 0)
