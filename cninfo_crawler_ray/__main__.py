"""CLI mirroring the reference's two entry points.

- ``crawl``  ≙ ``python cninfo_report_crawler.py --start-date A --end-date B
  --report-type T`` (cninfo_report_crawler.py:32-53): enumerate listings,
  validate, reduce to one latest report per stock code, write the 5-column
  frontier CSV (C:535-537).
- ``collect`` ≙ ``python report_info_collection.py --csv-file F``
  (report_info_collection.py:315-341): read the frontier CSV, fetch + decode
  + extract, write the long and wide reports (R:665-715) as parquet, plus
  .xlsx when an Excel engine is installed.

The listing API / PDF store are served by the deterministic synthetic corpus
(BASELINE.json input_hint stand-in); ``--n-images`` sizes it. The CLI owns
its Ray session (the library never calls ray.init).

    python -m cninfo_crawler_ray crawl --start-date 2025-05-29 \
        --end-date 2025-06-01 --out /tmp/frontier.csv
    python -m cninfo_crawler_ray collect --csv-file /tmp/frontier.csv \
        --out-dir /tmp/reports
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from datetime import date, timedelta


def _parse_date(s: str) -> date:
    try:
        return date.fromisoformat(s)
    except ValueError:
        raise SystemExit(f"invalid date (want YYYY-MM-DD): {s!r}")


def _cmd_crawl(args) -> int:
    import json

    from .config import CrawlConfig
    from .pipelines import stage1
    from .schemas import REPORT_TYPE_MAP
    from .sources.corpus import ensure_fixtures

    t0 = time.time()
    fdir = ensure_fixtures(args.n_images)
    with open(os.path.join(fdir, "meta.json")) as f:
        corpus_category = json.load(f)["category"]
    category = REPORT_TYPE_MAP[args.report_type]["category"]
    if category != corpus_category:
        # the synthetic listing corpus holds one report category
        raise SystemExit(f"--report-type {args.report_type} lists {category}, "
                         f"but the corpus only has {corpus_category}")
    dates = None
    requested_span = None
    if args.start_date or args.end_date:
        if not (args.start_date and args.end_date):
            raise SystemExit("--start-date and --end-date must be given together")
        a, b = _parse_date(args.start_date), _parse_date(args.end_date)
        if b < a:
            raise SystemExit("--end-date before --start-date")
        requested_span = (a, b)
        requested = {a + timedelta(days=i) for i in range((b - a).days + 1)}
        dates = sorted(set(stage1.fixture_dates(fdir)) & requested)
        if not dates:
            raise SystemExit(
                f"no listing dates in range; corpus covers "
                f"{[d.isoformat() for d in stage1.fixture_dates(fdir)]}")
    cfg = CrawlConfig(probe_sniff_magic=args.sniff_magic)
    frontier = stage1.build_frontier(fdir, cfg, dates=dates)
    out = args.out
    if os.path.isdir(out) or out.endswith(os.sep):
        # reference naming: listed_companies_{start}_{end}_{type}_{ts}.csv
        # (cninfo_report_crawler.py:402-404)
        from .functions.files import frontier_csv_name

        # named by the REQUESTED range, like the reference (the crawl may
        # cover fewer listing dates than asked for)
        span = requested_span or (min(stage1.fixture_dates(fdir)),
                                  max(stage1.fixture_dates(fdir)))
        out = os.path.join(out, frontier_csv_name(
            span[0], span[1], args.report_type))
    n = len(stage1.write_frontier_csv(frontier, out))
    print(f"crawl: {n} valid reports -> {out} ({time.time() - t0:.1f}s)")
    return 0


def _ask_download_mode(input_fn=input) -> bool:
    """The reference's interactive download-mode prompt
    (report_info_collection.py:559-584): y → full mode (save payload files),
    n → fast mode (parse only); re-asks on anything else. Flags skip it; a
    non-interactive run without flags defaults to fast mode."""
    while True:
        choice = input_fn("save payload files locally? (y/n): ").strip().lower()
        if choice == "y":
            return True
        if choice == "n":
            return False
        print("invalid choice, enter y or n", file=sys.stderr)


def _cmd_collect(args) -> int:
    from .config import CrawlConfig
    from .pipelines import stage1, stage2
    from .sources.corpus import ensure_fixtures

    t0 = time.time()
    fdir = ensure_fixtures(args.n_images)
    cfg = CrawlConfig()
    csv_file = args.csv_file
    if not csv_file:
        # reference auto-discovery: newest listed_companies_*_*.csv by the
        # filename-embedded timestamp (report_info_collection.py:344-428)
        from .functions.files import (discover_latest_frontier_csv,
                                      parse_frontier_csv_name)

        csv_file = discover_latest_frontier_csv(args.csv_dir)
        if not csv_file:
            raise SystemExit(
                f"no listed_companies_*_*.csv found in {args.csv_dir!r}; "
                "pass --csv-file explicitly")
        info = parse_frontier_csv_name(csv_file)
        print(f"collect: discovered {csv_file}"
              + (f" (dates {info['start_date_str']}-{info['end_date_str']},"
                 f" type {info['report_type']})" if info else ""))
    frontier = stage1.frontier_from_csv(csv_file)
    save_dir = args.save_payloads
    if save_dir is None and not args.no_download and sys.stdin.isatty():
        if _ask_download_mode():
            save_dir = os.path.join(args.out_dir, "payloads")
    if save_dir:
        from ray.data.aggregate import Count

        acts = (stage2.export_payloads(frontier, f"{fdir}/corpus.parquet",
                                       save_dir, cfg)
                .groupby("action").aggregate(Count(alias_name="n")).to_pandas())
        stats = dict(zip(acts["action"], acts["n"]))
        print(f"payloads -> {save_dir}: "
              f"{stats.get('written', 0)} written, "
              f"{stats.get('exists', 0)} already present, "
              f"{stats.get('rejected', 0)} rejected")
    decoded = stage2.fetch_decode(frontier, f"{fdir}/corpus.parquet", cfg)
    long_df, wide_df = stage2.reports(stage2.long_from_decoded(decoded))
    os.makedirs(args.out_dir, exist_ok=True)
    long_p = os.path.join(args.out_dir, "report_long.parquet")
    wide_p = os.path.join(args.out_dir, "report_wide.parquet")
    long_df.to_parquet(long_p)
    wide_df.to_parquet(wide_p)
    wrote_xlsx = False
    if args.xlsx:
        wrote_xlsx = stage2.write_excel_reports(
            long_df, wide_df,
            os.path.join(args.out_dir, "report_long.xlsx"),
            os.path.join(args.out_dir, "report_wide.xlsx"),
        )
        if not wrote_xlsx:
            print("collect: no Excel engine installed; wrote parquet only",
                  file=sys.stderr)
    print(f"collect: {len(long_df)} long rows, {len(wide_df)} wide rows -> "
          f"{args.out_dir} ({time.time() - t0:.1f}s)")
    return 0


def _cmd_export(args) -> int:
    """Training-data export sink: commit each shard's survivor rows as
    parquet under ``shard=K/`` through the checkpoint storage protocol
    (state/storage.py), with the shard's lineage record (rows, tokens) in its
    ``_COMMITTED`` file — the same commit as the scheduler's rounds. Every
    shard's record is read first: the curation/export chain runs only when
    some shard has none, and writes only those, so a killed export resumes
    where it stopped and a finished one reruns from its records alone."""
    from .state.storage import storage_for

    t0 = time.time()
    out = args.out_dir
    st = storage_for(out)
    st.makedirs(out)

    records = {k: st.read_record(out, f"shard={k}") for k in range(args.n_shards)}
    missing = [k for k, rec in records.items() if rec is None]
    if missing:
        from ray.data.aggregate import Count, Sum

        from .pipelines.queries import export_survivors

        surv = export_survivors(args.sf_dir, n_shards=args.n_shards).materialize()
        stats = (surv.groupby("shard")
                 .aggregate(Count(alias_name="rows"), Sum("n_tokens", alias_name="tokens"))
                 .to_pandas().set_index("shard"))  # O(shards) rows
        for k in missing:
            name = f"shard={k}"
            staging = st.begin_round(out, name)
            surv.filter(expr=f"shard == {k}").write_parquet(st.ray_path(staging))
            records[k] = {"rows": int(stats["rows"].get(k, 0)),
                          "tokens": int(stats["tokens"].get(k, 0))}
            st.commit_round(out, name, records[k])

    total_rows = sum(rec["rows"] for rec in records.values())
    print(f"export: {total_rows} docs -> {args.n_shards} shards under {out} "
          f"({len(missing)} written, {args.n_shards - len(missing)} resumed-skip, "
          f"{time.time() - t0:.1f}s)")
    return 0


def _cmd_schedule(args) -> int:
    """North-rule surface from the command line: the round-based scheduler
    (heap frontier → politeness waves → fused fetch+decode → reports) with
    checkpointed resume. Rerunning with the same --ckpt-dir resumes from the
    last committed round; --max-rounds simulates a kill."""
    from .pipelines.scheduler import run_scheduled_crawl
    from .sources.corpus import ensure_fixtures

    t0 = time.time()
    fdir = ensure_fixtures(args.n_images)
    os.makedirs(args.out_dir, exist_ok=True)
    res = run_scheduled_crawl(
        fdir, wave_size=args.wave_size, ckpt_dir=args.ckpt_dir,
        max_rounds=args.max_rounds if args.max_rounds > 0 else 10_000,
    )
    c = res["counters"]
    done = c["rounds"] > 0 and len(res["wide"]) > 0
    if done:
        res["long"].to_parquet(os.path.join(args.out_dir, "report_long.parquet"))
        res["wide"].to_parquet(os.path.join(args.out_dir, "report_wide.parquet"))
    print(f"schedule: {c['rounds']} rounds, {c.get('frontier_rows', 0)} admitted, "
          f"{c['long_rows']} long rows, {c['wide_rows']} wide rows, "
          f"{c['politeness_wait_ticks']} wait ticks, "
          f"{c['dead_lettered']} dead-lettered -> {args.out_dir} "
          f"({time.time() - t0:.1f}s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    from .schemas import REPORT_TYPE_MAP

    p = argparse.ArgumentParser(prog="cninfo_crawler_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="stage 1: listings -> frontier CSV")
    c.add_argument("--start-date", default=None)
    c.add_argument("--end-date", default=None)
    c.add_argument("--report-type", default="ndbg",
                   choices=sorted(REPORT_TYPE_MAP))
    c.add_argument("--n-images", type=int, default=1_000)
    c.add_argument("--sniff-magic", action="store_true",
                   help="GET-fallback magic sniff on ambiguous HEADs")
    c.add_argument("--out", default="frontier.csv")

    g = sub.add_parser("collect", help="stage 2: frontier CSV -> reports")
    g.add_argument("--csv-file", default=None,
                   help="frontier CSV; omit to auto-discover the newest "
                        "listed_companies_*_*.csv in --csv-dir")
    g.add_argument("--csv-dir", default=".",
                   help="directory searched when --csv-file is omitted")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--n-images", type=int, default=1_000)
    g.add_argument("--xlsx", action="store_true")
    g.add_argument("--save-payloads", default=None, metavar="DIR",
                   help="also export each payload under the reference's "
                        "sanitized filename (skip-if-exists resume)")
    g.add_argument("--no-download", action="store_true",
                   help="fast mode: parse only, never save payload files "
                        "(suppresses the interactive prompt)")

    e = sub.add_parser("export", help="curate + shard the documents table "
                                      "into resumable per-shard parquet")
    e.add_argument("--sf-dir", required=True,
                   help="directory of the parquet tables (documents, ...)")
    e.add_argument("--out-dir", required=True)
    e.add_argument("--n-shards", type=int, default=8)

    s = sub.add_parser("schedule", help="round-based scheduled crawl with "
                                        "checkpointed resume (north rule)")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--ckpt-dir", default=None,
                   help="checkpoint dir; rerun with the same dir to resume")
    s.add_argument("--n-images", type=int, default=1_000)
    s.add_argument("--wave-size", type=int, default=4096)
    s.add_argument("--max-rounds", type=int, default=0,
                   help="stop after N rounds (simulated kill); 0 = run to done")

    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, log_to_driver=False)
    try:
        return {"crawl": _cmd_crawl, "collect": _cmd_collect,
                "export": _cmd_export, "schedule": _cmd_schedule}[args.cmd](args)
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
