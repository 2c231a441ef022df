"""Corpus-level text analysis / dedup / similarity operators —
first-class training-data-pipeline ops beyond the reference's own set
(driver instruction). Each is reached through ``__ray_entry__.queries()``,
a registered stage, or a stage's batch kernel.
"""
