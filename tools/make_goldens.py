"""Generate the golden tables under goldens/sf0.01/ — the oracles of the
``queries()`` entries whose semantics SQL cannot express.

The crawl pipelines run the synthetic image+caption corpus (BASELINE.json
input_hint), and the text, sketch and media operators are their own
algorithm, so the gate's ``oracle_sql()`` entries for them read a GOLDEN
TABLE: ``SELECT * FROM read_parquet('<golden>')``. Each golden comes from an
independent oracle (tools/golden_oracles.py, tests/oracle_impl.py) at the
driver's correctness scale (sf0.01 ↔ the 10k-image fixture).

``PER_IMAGE`` and ``WHOLE_SET`` are the registry (``GOLDENS`` lists their
names): each name is both a ``queries()`` key and the file stem under
goldens/sf0.01/. One run

1. loads the fixture, the corpus and the golden frontier once, decodes each
   frontier image once and feeds it to every selected per-image oracle
   (one with an engine-kernel twin asserts it per image), then runs the
   whole-set oracles;
2. compares every golden with its ``queries()`` entry at sf0.01 through
   ``check_oracle.canon``, the gate's own dtype-sensitive rule, and stops
   before writing anything if one differs;
3. writes the goldens.

    python tools/make_goldens.py [name ...]

Names select a subset (default: all). Required whenever FIXTURE_VERSION
bumps or the semantics of a golden-backed query change.
"""

from __future__ import annotations

import json
import os
import sys
import time
from datetime import date
from functools import cached_property

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (HERE, os.path.join(ROOT, "tests"), ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import golden_oracles as O  # noqa: E402

GOLDEN_DIR = os.path.join(ROOT, "goldens", "sf0.01")
SF_DIR = "/root/testdata/sf0.01"
N_IMAGES = 10_000  # scale_for_sf_dir("sf0.01")

#: name → factory of an accumulator fed every decoded frontier image
#: (``add(iid, px)``, then ``frame()``)
PER_IMAGE = {
    "image_features": lambda: O.Rows(
        O.block_means, ["image_id", "f00", "f01", "f10", "f11"]),
    "image_thumbnails": lambda: O.Rows(
        O.thumbnail_row, ["image_id", "thumb_crc32", "thumb_mean"],
        O.thumbnails_finish),
    "image_region_near_dup": O.RegionPairs,
    "image_dhash_near_dup": O.DhashPairs,
    "image_curation_pipeline": O.Curation,
    "image_luma_histogram": lambda: O.Hist(O.luma_bucket),
    "image_dominant_color": lambda: O.Hist(O.dominant_color),
    "image_gradient_energy_hist": lambda: O.Hist(O.gradient_energy_bucket),
    "image_channel_cast_hist": lambda: O.Hist(O.channel_cast_bucket),
    "image_border_contrast": lambda: O.Hist(O.border_contrast_bucket),
    "image_quadrant_range": lambda: O.Hist(O.quadrant_range_bucket),
    "image_mirror_asymmetry": lambda: O.Hist(O.mirror_asymmetry_bucket),
    "image_otsu_hist": lambda: O.Hist(O.otsu_key, ("otsu_t", "n")),
    "image_rle_ratio_hist": lambda: O.Hist(O.rle_ratio_bucket),
    "image_euler_hist": lambda: O.Hist(O.euler_key, ("euler", "n")),
    "image_colorfulness_hist": lambda: O.Hist(O.colorfulness_bucket),
    "image_centroid_offset_hist": lambda: O.Hist(O.centroid_offset_bucket),
    "image_glcm_contrast_hist": lambda: O.Hist(O.glcm_contrast_bucket),
    "image_spread_hist": lambda: O.Hist(O.spread_bucket),
    "image_palette_size_hist": lambda: O.Hist(O.palette_size_bucket),
    "image_blockiness_hist": lambda: O.Hist(O.blockiness_bucket),
    "image_tile_dup_hist": lambda: O.Hist(O.tile_dup_bucket),
    "image_rg_cov_hist": lambda: O.Hist(O.rg_cov_bucket),
    "image_orientation_hist": lambda: O.Hist(
        O.orientation_key, ("dom_class", "share_bucket", "n")),
}

#: name → oracle over the run's shared ``Inputs``
WHOLE_SET = {
    "crawl_frontier": lambda i: O.crawl_frontier(i.stage1),
    "wide_report": lambda i: O.wide_report(i.stage2[1]),
    "fetch_decode_stats": lambda i: O.fetch_decode_stats(i.stage2[0]),
    "phash_near_dup": lambda i: O.phash_near_dup(i.corpus),
    "image_dup_clusters": lambda i: O.image_dup_clusters(
        i.golden("phash_near_dup"), i.corpus),
    "video_frame_stats": lambda i: O.golden_video(SF_DIR),
    "audio_clip_stats": lambda i: O.golden_audio(SF_DIR),
    "rolling_fingerprint": lambda i: O.oracle_rolling(i.docs),
    "simhash": lambda i: O.oracle_simhash(i.docs),
    "simhash_near_dup": lambda i: O.oracle_simhash_near_dup(i.golden("simhash")),
    "minhash_lsh_dedup": lambda i: O.oracle_minhash_pairs(i.docs),
    "dup_clusters": lambda i: O.oracle_dup_clusters(
        i.docs, i.golden("minhash_lsh_dedup")),
    "name_dup_clusters": lambda i: O.oracle_name_dup_clusters(SF_DIR),
    "approx_distinct_users": lambda i: O.oracle_approx_distinct_users(SF_DIR),
    "approx_distinct_by_type": lambda i: O.oracle_approx_distinct_by_type(SF_DIR),
    "ann_lsh_topk": lambda i: O.oracle_ann_lsh(i.emb),
    "ann_ivf_topk": lambda i: O.oracle_ann_ivf(i.emb),
    "embed_clusters": lambda i: O.oracle_embed_clusters(i.emb),
}

GOLDENS = sorted({**PER_IMAGE, **WHOLE_SET})

#: further ``queries()`` entries whose oracle reads the same golden
ALSO_CHECKED = {"wide_report": ("scheduled_crawl",)}

#: goldens committed without the pandas schema metadata; writing them the
#: same way keeps regeneration byte-identical
NO_SCHEMA_METADATA = {"video_frame_stats", "audio_clip_stats"}


class Inputs:
    """The inputs the oracles share, each loaded or computed once a run,
    and the goldens built so far."""

    def __init__(self):
        self.built: dict[str, pd.DataFrame] = {}

    def golden(self, name: str) -> pd.DataFrame:
        if name not in self.built:
            self.built[name] = WHOLE_SET[name](self)
        return self.built[name]

    @cached_property
    def fixture(self) -> str:
        from cninfo_crawler_ray.sources import corpus as C

        return C.ensure_fixtures(N_IMAGES)

    @cached_property
    def corpus(self) -> pd.DataFrame:
        return pq.read_table(f"{self.fixture}/corpus.parquet").to_pandas()

    @cached_property
    def stage1(self) -> pd.DataFrame:
        import oracle_impl

        anns = pq.read_table(f"{self.fixture}/announcements.parquet").to_pandas()
        with open(f"{self.fixture}/meta.json") as f:
            dates = [date.fromisoformat(d) for d in json.load(f)["dates"]]
        return oracle_impl.oracle_stage1(anns, dates, self.corpus)

    @cached_property
    def stage2(self) -> tuple[pd.DataFrame, pd.DataFrame]:
        import oracle_impl

        return oracle_impl.oracle_stage2(self.stage1, self.corpus)

    @cached_property
    def docs(self) -> pd.DataFrame:
        return pq.read_table(f"{SF_DIR}/documents.parquet",
                             columns=["doc_id", "text"]).to_pandas()

    @cached_property
    def emb(self) -> pd.DataFrame:
        return pq.read_table(f"{SF_DIR}/embeddings.parquet",
                             columns=["vec_id", "embedding"]).to_pandas()


def decode_pass(inputs: Inputs, accs: list) -> int:
    """Decode every golden-frontier image once, in frontier order, and feed
    it to each accumulator. An empty payload is skipped; so is one the codec
    rejects (ValueError, or NotImplementedError for a real-codec format).
    → the number of images decoded."""
    from cninfo_crawler_ray.functions import codecs as CC

    store = inputs.corpus.set_index("image_id")
    n = 0
    for url in inputs.golden("crawl_frontier")["PDF链接"]:
        iid = url.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        blob = bytes(store.loc[iid]["bytes"])
        if not blob:
            continue
        try:
            px, _, _ = CC.decode_image(blob)
        except (ValueError, NotImplementedError):
            continue
        for acc in accs:
            acc.add(iid, px)
        n += 1
        if n % 1000 == 0:
            print(f"  {n} images", flush=True)
    return n


def build(names: list[str]) -> dict[str, pd.DataFrame]:
    inputs = Inputs()
    accs = {n: PER_IMAGE[n]() for n in names if n in PER_IMAGE}
    if accs:
        n = decode_pass(inputs, list(accs.values()))
        print(f"decoded {n} frontier images once for {len(accs)} per-image oracles")
    out = {n: acc.frame() for n, acc in accs.items()}
    for n in names:
        if n in WHOLE_SET:
            out[n] = inputs.golden(n)
    return {n: out[n] for n in names}


def check(goldens: dict[str, pd.DataFrame]) -> list[str]:
    """Each golden against its ``queries()`` entries at sf0.01, by the gate's
    rule → the names of the entries that differ."""
    from check_oracle import canon, load_entry, to_df

    q = load_entry().queries()
    bad = []
    for name, want in goldens.items():
        _, want_hash = canon(want)
        for entry in (name, *ALSO_CHECKED.get(name, ())):
            ok = canon(to_df(q[entry](SF_DIR)))[1] == want_hash
            print(f"{'OK ' if ok else 'FAIL'} engine vs golden {name}: "
                  f"{entry} ({len(want)} rows)", flush=True)
            if not ok:
                bad.append(entry)
    return bad


def write(goldens: dict[str, pd.DataFrame]) -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, df in goldens.items():
        table = pa.Table.from_pandas(df, preserve_index=False)
        if name in NO_SCHEMA_METADATA:
            table = table.replace_schema_metadata(None)
        pq.write_table(table, os.path.join(GOLDEN_DIR, f"{name}.parquet"))


def main(argv: list[str]) -> int:
    names = argv or GOLDENS
    unknown = sorted(set(names) - set(GOLDENS))
    if unknown:
        raise SystemExit(f"unknown golden(s) {unknown}; known: {GOLDENS}")

    import ray

    t0 = time.time()
    # Ray workers import the package from the repo root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             log_to_driver=False)
    try:
        goldens = build(names)
        bad = check(goldens)
        if bad:
            print(f"engine != golden for {bad}; nothing written", file=sys.stderr)
            return 1
        write(goldens)
    finally:
        ray.shutdown()
    print(f"{len(goldens)} goldens written to {GOLDEN_DIR} ({time.time() - t0:.0f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
