"""cninfo_crawler_ray — a Ray-Data-native URL-frontier + fetch-scheduler engine.

A from-scratch rebuild of the crawl semantics of ``JuliaZzy/cninfo_crawler``
(reference snapshot at /root/reference, cited throughout as
``cninfo_report_crawler.py:<line>`` / ``report_info_collection.py:<line>``),
re-expressed over ``ray.data.Dataset`` pipelines:

- zero-copy Arrow ``map_batches`` for fetch / validate / decode / extract,
- one state actor per url-sha1 hash range for crawl state (the range's
  cuckoo-fronted URL-seen set and frontier heap), per-host token-bucket
  politeness,
- ``groupby``/``map_groups`` shuffles for dedup, per-key keep-latest, and
  long→wide pivoting,
- checkpointed resume through one commit protocol (``state/storage.py``):
  each scheduler round commits its parquet with a lineage record
  (admitted URLs per url-sha1 hash range, file names).

The authoritative input is a table of image+caption pairs
``(image_id, bytes, w, h, fmt, caption, phash)`` per BASELINE.json's
``input_hint`` (Lance on a real cluster; Parquet adapter in this sandbox).
"""

__version__ = "0.1.0"
