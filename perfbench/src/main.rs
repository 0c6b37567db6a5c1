//! `cilkm-perfbench`: runs one workload on both reducer backends and
//! prints one JSON line of metrics.
//!
//! ```text
//! cilkm-perfbench --workload <addn|pbfs|steal_dense|steal_sparse>
//!                 --seed <n> --seconds <s> --mode <e2e|counters|micro>
//!                 [--min-rounds <n>] [--views-per-page <n>]
//!                 [--pages-per-map <n>] [--pallocs-per-steal <n>]
//!                 [--bag <n>] [--deque-depth <n>]
//! ```
//!
//! * `e2e` (plain build): one timed set-up, then alternating timed jobs on
//!   the two arms for `--seconds` (and at least `--min-rounds` rounds);
//!   prints the end-to-end metrics.
//! * `counters` (build with the `traced` feature): alternating jobs with a
//!   counter window per arm; prints per-job counts and the traced job
//!   medians.
//! * `micro` (plain build): alternating jobs for the untraced job medians
//!   and 90th percentiles, the serial control job, and timings of calls
//!   into each layer at the sizes given on the command line.
//!
//! `run.py` next to this package drives the three modes and assembles the
//! benchmark's result.

mod check;
mod layers;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use layers::{Sizes, Snapshot};
use stats::{median, quantile, timed};
use workloads::{Bench, Kind, ARMS, WORKERS};

/// Timed jobs of the serial control.
const SERIAL_JOBS: usize = 11;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: String,
    min_rounds: usize,
    sizes: Sizes,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    fn num<T: std::str::FromStr>(
        kv: &BTreeMap<String, String>,
        key: &str,
        default: Option<T>,
    ) -> Result<T, String> {
        match kv.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v}")),
            None => default.ok_or_else(|| format!("missing --{key}")),
        }
    }
    Ok(Args {
        workload: kv.get("workload").cloned().ok_or("missing --workload")?,
        seed: num(&kv, "seed", None)?,
        seconds: num(&kv, "seconds", None)?,
        mode: kv.get("mode").cloned().unwrap_or_else(|| "e2e".into()),
        min_rounds: num(&kv, "min-rounds", Some(100))?,
        sizes: Sizes {
            views_per_page: num(&kv, "views-per-page", Some(8))?,
            pages_per_map: num(&kv, "pages-per-map", Some(4))?,
            pallocs_per_steal: num(&kv, "pallocs-per-steal", Some(8))?,
            bag: num(&kv, "bag", Some(1024))?,
            deque_depth: num(&kv, "deque-depth", Some(16))?,
        },
    })
}

/// Metrics by name, each with its unit.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, (v, u))) in self.0.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}");
        }
        s.push('}');
        s
    }
}

/// Per-arm results of a series of alternating jobs.
struct Series {
    ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
}

/// Alternates jobs on the two arms, one round at a time, until
/// `seconds` have passed and at least `min_rounds` rounds are done.
fn series(bench: &Bench, seconds: f64, min_rounds: usize) -> Series {
    let mut out = Series {
        ms: vec![Vec::new(); ARMS.len()],
        attempted: 0,
        failed: 0,
    };
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while rounds < min_rounds || t0.elapsed() < budget {
        for arm in 0..ARMS.len() {
            let job = bench.job(arm);
            out.ms[arm].push(job.ms);
            out.attempted += 1;
            out.failed += u64::from(!job.ok);
        }
        rounds += 1;
    }
    out
}

fn arm_name(arm: usize) -> &'static str {
    match ARMS[arm] {
        cilkm_core::Backend::Mmap => "mmap",
        cilkm_core::Backend::Hypermap => "hypermap",
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `e2e` mode: one set-up, timed, then the series. `run.py` starts
/// several of these processes and takes the median of each metric.
fn end_to_end(kind: Kind, args: &Args) -> (Metrics, Series, bool, usize) {
    let ((bench, mut correct), setup) = timed(|| Bench::setup(kind, args.seed));
    let threshold = bench.pools[0].domain().exchange_threshold();
    let s = series(&bench, args.seconds, args.min_rounds);
    let mut m = Metrics::default();
    m.put("setup_s", setup.as_secs_f64(), "s");
    for arm in 0..ARMS.len() {
        let name = arm_name(arm);
        m.put(format!("{name}.job_ms"), median(&s.ms[arm]), "ms");
    }
    correct &= bench.teardown();
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    (m, s, correct, threshold)
}

/// The `counters` mode: one counter window per arm over the whole series.
fn counters(kind: Kind, args: &Args) -> (Metrics, Series, bool, usize) {
    let (bench, mut correct) = Bench::setup(kind, args.seed);
    let threshold = bench.pools[0].domain().exchange_threshold();
    let before: Vec<Snapshot> = bench.pools.iter().map(Snapshot::take).collect();
    let s = series(&bench, args.seconds, args.min_rounds);
    for p in &bench.pools {
        workloads::wait_parked(p);
    }
    let after: Vec<Snapshot> = bench.pools.iter().map(Snapshot::take).collect();
    let mut m = Metrics::default();
    let mut views_per_page = 1.0;
    let mut deque_depth = 1;
    for arm in 0..ARMS.len() {
        let name = arm_name(arm);
        let w = after[arm].since(&before[arm]);
        deque_depth = deque_depth.max(w.pool.deque_hwm);
        let jobs = s.ms[arm].len() as f64;
        let per_job = |x: u64| x as f64 / jobs;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let job_ms = median(&s.ms[arm]);
        m.put(format!("trace.job_ms.{name}"), job_ms, "ms");
        m.put(
            format!("runtime.steals.{name}"),
            per_job(w.pool.steals),
            "count",
        );
        m.put(
            format!("runtime.steal_success.{name}"),
            ratio(w.pool.steals, w.pool.steal_attempts),
            "ratio",
        );
        m.put(
            format!("runtime.parks.{name}"),
            per_job(w.pool.parks),
            "count",
        );
        m.put(
            format!("runtime.stolen_joins.{name}"),
            per_job(w.pool.stolen_joins),
            "count",
        );
        let c = &w.core;
        m.put(format!("core.lookups.{name}"), per_job(c.lookups), "count");
        m.put(
            format!("core.view_creations.{name}"),
            per_job(c.view_creations),
            "count",
        );
        m.put(
            format!("core.view_creation_ns.{name}"),
            ratio(c.view_creation_ns, c.view_creations),
            "ns",
        );
        m.put(
            format!("core.transferals.{name}"),
            per_job(c.transferals),
            "count",
        );
        m.put(
            format!("core.transferal_ns.{name}"),
            ratio(c.transferal_ns, c.transferals),
            "ns",
        );
        m.put(
            format!("core.transferal_p99_ns.{name}"),
            layers::fine_quantile(&w.transferal_fine, 0.99),
            "ns",
        );
        m.put(
            format!("core.merge_pairs.{name}"),
            per_job(c.merge_pairs),
            "count",
        );
        m.put(
            format!("core.merge_ns.{name}"),
            ratio(c.merge_ns, c.merge_pairs),
            "ns",
        );
        let overhead_ms = per_job(c.reduce_overhead_ns()) / 1e6;
        m.put(format!("core.reduce_overhead_ms.{name}"), overhead_ms, "ms");
        m.put(
            format!("purpose.lookups_per_creation.{name}"),
            c.lookups as f64 / c.view_creations.max(1) as f64,
            "ratio",
        );
        m.put(
            format!("purpose.reduce_share_pct.{name}"),
            100.0 * overhead_ms / (job_ms * WORKERS as f64),
            "%",
        );
        if ARMS[arm] == cilkm_core::Backend::Mmap {
            m.put(
                "core.transferal_copied_views.mmap",
                per_job(c.transferal_copied_views),
                "count",
            );
            m.put(
                "core.transferal_exchanged_pages.mmap",
                per_job(c.transferal_exchanged_pages),
                "count",
            );
            m.put(
                "purpose.copy_share.mmap",
                ratio(c.transferal_copied_views, c.transferal_views),
                "ratio",
            );
            m.put("spa.log_overflows.mmap", per_job(c.log_overflows), "count");
            let t = &w.tlmm;
            m.put("tlmm.crossings.mmap", per_job(t.total_crossings()), "count");
            m.put("tlmm.pmap_pages.mmap", per_job(t.pmap_pages), "count");
            m.put(
                "tlmm.crossings_per_steal.mmap",
                ratio(t.total_crossings(), w.pool.steals),
                "ratio",
            );
            m.put(
                "size.pallocs_per_steal",
                ratio(t.palloc_pages, w.pool.steals).round().max(1.0),
                "count",
            );
            m.put(
                "size.pages_per_map",
                ratio(t.pmap_pages, t.pmap_calls).round().max(1.0),
                "count",
            );
            // Views per transferred page: exchanged pages carry their
            // views whole and are counted; copied pages are not, so a
            // copy transferal's views are spread over the pages the
            // workload's reducers span, below the exchange threshold.
            let exchanged_views = c.transferal_views - c.transferal_copied_views;
            views_per_page = if exchanged_views >= c.transferal_copied_views {
                ratio(exchanged_views, c.transferal_exchanged_pages)
            } else {
                (ratio(c.transferal_copied_views, c.transferals) / bench.work.pages() as f64)
                    .clamp(1.0, threshold.saturating_sub(1).max(1) as f64)
            };
        }
    }
    let (edges, layers, frontier) = bench.work.bfs_shape().unwrap_or((0, 0, 1024));
    m.put("graph.edges_traversed", edges as f64, "count");
    m.put("graph.layers", layers as f64, "count");
    m.put("size.bag", frontier as f64, "count");
    m.put("size.deque_depth", deque_depth as f64, "count");
    m.put(
        "size.views_per_page",
        views_per_page.round().max(1.0),
        "count",
    );
    correct &= bench.teardown();
    (m, s, correct, threshold)
}

/// The `micro` mode: untraced job medians and tails, the serial control,
/// and the layer timings.
fn micro(kind: Kind, args: &Args) -> (Metrics, Series, bool, usize) {
    let (bench, mut correct) = Bench::setup(kind, args.seed);
    let threshold = bench.pools[0].domain().exchange_threshold();
    let s = series(&bench, args.seconds, args.min_rounds);
    let mut m = Metrics::default();
    for arm in 0..ARMS.len() {
        let name = arm_name(arm);
        m.put(format!("e2e.job_ms.{name}"), median(&s.ms[arm]), "ms");
        m.put(
            format!("tail.job_p90_ms.{name}"),
            quantile(&s.ms[arm], 0.9),
            "ms",
        );
        let other = &bench.pools[1 - arm];
        m.put(
            format!("runtime.region_us.{name}"),
            layers::region_us(&bench.pools[arm], other),
            "us",
        );
        m.put(
            format!("core.lookup_ns.{name}"),
            layers::lookup_ns(&bench.pools[arm], other, bench.work.reducers()),
            "ns",
        );
    }
    for p in &bench.pools {
        workloads::wait_parked(p);
    }
    let mut serial_ms = Vec::new();
    for _ in 0..SERIAL_JOBS {
        let (ok, dt) = timed(|| bench.work.serial());
        correct &= ok;
        serial_ms.push(dt.as_secs_f64() * 1e3);
    }
    m.put("baseline.serial_job_ms", median(&serial_ms), "ms");
    let z = args.sizes;
    m.put(
        "tlmm.palloc_ns",
        layers::palloc_ns(z.pallocs_per_steal.max(1)),
        "ns-sim",
    );
    m.put(
        "tlmm.pmap_scatter_ns",
        layers::pmap_scatter_ns(z.pages_per_map.max(1)),
        "ns-sim",
    );
    let (insert, get, drain) = layers::spa_ns(z.views_per_page);
    m.put("spa.insert_ns", insert, "ns");
    m.put("spa.get_ns", get, "ns");
    m.put("spa.drain_into_ns", drain, "ns");
    let (push_pop, steal) = layers::deque_ns(z.deque_depth.max(1));
    m.put("runtime.deque_push_pop_ns", push_pop, "ns");
    m.put("runtime.deque_steal_ns", steal, "ns");
    let (bag_insert, bag_union) = layers::bag_ns(z.bag.clamp(64, 1 << 16));
    m.put("graph.bag_insert_ns", bag_insert, "ns");
    m.put("graph.bag_union_ns", bag_union, "ns");
    correct &= bench.teardown();
    (m, s, correct, threshold)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cilkm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(kind) = Kind::parse(&args.workload) else {
        eprintln!("cilkm-perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let (metrics, s, correct, threshold) = match args.mode.as_str() {
        "e2e" => end_to_end(kind, &args),
        "counters" => counters(kind, &args),
        "micro" => micro(kind, &args),
        other => {
            eprintln!("cilkm-perfbench: unknown mode {other}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features = if cfg!(feature = "traced") {
        "cilkm-core/instrument"
    } else {
        "none"
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
         \"provenance\": {{\"workload\": \"{}\", \"mode\": \"{}\", \"seed\": {}, \
         \"nproc\": {nproc}, \"workers\": {WORKERS}, \"features\": \"{features}\", \
         \"exchange_threshold\": {threshold}, \"crossing_cost_ns\": {}, \
         \"jobs_per_arm\": {}}}}}",
        correct,
        s.attempted,
        s.failed,
        metrics.to_json(),
        args.workload,
        args.mode,
        args.seed,
        cilkm_tlmm::stats::crossing_cost_ns(),
        s.ms[0].len(),
    );
}
