//! End-to-end benchmark of the served index.
//!
//! One process generates the canonical corpus (20,000 WDC-like domains
//! from `--seed`, rendered as string values), brings up the workload's
//! topology over real HTTP, drives it for `--seconds` with at most two
//! client threads, checks every answer it can, and prints one report line
//! per metric followed by a JSON summary as the last line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload query_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload, records a span for every other request, then replays sampled
//! requests layer by layer from this program's own code and reports the
//! per-layer metrics. See `perfbench/README.md` for the workloads and the
//! layer-to-metric map.

mod corpus;
mod layers;
mod load;
mod setup;
mod stats;
mod trace;
mod wire;

use corpus::{recall_precision, Corpus, Inserts, Pair, Rng, THRESHOLDS};
use layers::{stat, Metrics};
use load::{closed_loop, open_loop, send_query, tally, Client, Op, Recorder, Sample};
use lshe_datagen::CorpusConfig;
use lshe_serve::container::IndexContainer;
use lshe_serve::engine::{Engine, Snapshot};
use setup::{setup, Counters, Layout, Served, SetupTimes, PARTITIONS};
use stats::{mean, Summary};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Most client threads a workload runs (one connection each).
const CLIENTS: usize = 2;
/// Warm-up requests (`query_cold` and the other cold-request workloads).
const WARMUP: usize = 1000;
/// Distinct requests of `query_hot`.
const HOT_SET: usize = 256;
/// Zipf exponent of `query_hot`.
const ZIPF_S: f64 = 1.0;
/// `ingest_churn` open-loop rates, per second.
const INSERT_RATE: f64 = 100.0;
const QUERY_RATE: f64 = 100.0;
/// Inserts per `/remove` and per `/commit` on `ingest_churn`.
const INSERTS_PER_REMOVE: usize = 4;
const INSERTS_PER_COMMIT: usize = 64;
/// One query in this many is checked against the library.
const CHECK_EVERY: usize = 8;
/// Live requests the traced run replays layer by layer.
const TRACE_SAMPLES: usize = 400;
/// How often the window's process CPU time is read.
const CPU_READ_EVERY: Duration = Duration::from_millis(50);
/// A backlog is flagged when the generator never gets closer than this to
/// its schedule over the last quarter of the run.
const BACKLOG_LATE_US: f64 = 50_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    QueryCold,
    QueryHot,
    IngestChurn,
    ClusterScatter,
}

impl Workload {
    const ALL: [Self; 4] = [
        Self::QueryCold,
        Self::QueryHot,
        Self::IngestChurn,
        Self::ClusterScatter,
    ];

    fn name(self) -> &'static str {
        match self {
            Self::QueryCold => "query_cold",
            Self::QueryHot => "query_hot",
            Self::IngestChurn => "ingest_churn",
            Self::ClusterScatter => "cluster_scatter",
        }
    }

    /// Client threads. The cluster runs one: each of its queries already
    /// keeps a coordinator thread, a scatter lane and four shard servers
    /// busy. On a two-core host a second client saturated both cores and
    /// raced the first for the process's one spare scatter lane, so each
    /// run's median landed between a parallel and a sequential fan-out.
    fn clients(self) -> usize {
        match self {
            Self::ClusterScatter => 1,
            Self::QueryCold | Self::QueryHot | Self::IngestChurn => CLIENTS,
        }
    }

    fn layout(self) -> Layout {
        match self {
            Self::QueryCold | Self::QueryHot => Layout::Mapped,
            Self::IngestChurn => Layout::Heap,
            Self::ClusterScatter => Layout::Cluster,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    corpus_seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<Option<&str>, String> {
            match argv.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) => argv
                    .get(i + 1)
                    .map(|v| Some(v.as_str()))
                    .ok_or(format!("{flag} needs a value")),
            }
        };
        let num = |flag: &str, default: u64| -> Result<u64, String> {
            get(flag)?.map_or(Ok(default), |v| {
                v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
            })
        };
        let name = get("--workload")?.ok_or("--workload is required")?;
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let trace = match num("--trace", 0)? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        };
        Ok(Self {
            workload,
            seed: num("--seed", 1)?,
            corpus_seed: num("--corpus-seed", CorpusConfig::wdc_web_tables_like(0).seed)?,
            seconds: num("--seconds", 10)?.max(1),
            trace,
        })
    }
}

/// The request streams a workload draws from.
struct Plan {
    /// `query_cold` requests, cycled.
    cold: Vec<Pair>,
    /// Warm-up requests.
    warm: Vec<Pair>,
    /// `query_hot`'s distinct requests, most popular first.
    hot: Vec<Pair>,
    /// Cumulative Zipf weights over `hot`.
    zipf: Vec<f64>,
}

impl Plan {
    /// The hot set is fixed by the corpus; `seed` orders the cold requests
    /// and the warm-up.
    fn new(corpus: &Corpus, workload: Workload, seed: u64) -> Result<Self, String> {
        let n = corpus.pairs.len();
        let warm_n = WARMUP.min(n / 4);
        if n - warm_n < 4 * HOT_SET {
            return Err(format!("only {n} query pairs; the corpus is too small"));
        }
        let hot = corpus.pairs[..HOT_SET].to_vec();
        // Every pair is measured, in seeded order; the warm-up takes the
        // last stretch of the cycle, so the cache it leaves holds nothing
        // the measured stream asks for again before eviction.
        let mut cold = corpus.pairs.clone();
        Rng::new(seed).shuffle(&mut cold);
        let mut zipf: Vec<f64> = (1..=HOT_SET)
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = zipf.iter().sum();
        let mut acc = 0.0;
        for w in &mut zipf {
            acc += *w / total;
            *w = acc;
        }
        let warm = if workload == Workload::QueryHot {
            // Every hot request twice: the cache then holds the whole set.
            hot.iter().chain(&hot).copied().collect()
        } else {
            cold[n - warm_n..].to_vec()
        };
        Ok(Self {
            cold,
            warm,
            hot,
            zipf,
        })
    }

    fn zipf_draw(&self, rng: &mut Rng) -> Pair {
        let u = rng.unit();
        self.hot[self
            .zipf
            .partition_point(|&c| c < u)
            .min(self.hot.len() - 1)]
    }
}

/// What one measured window produced.
struct Window {
    samples: Vec<Sample>,
    /// The measured span: `--seconds` from the first due time.
    start: Instant,
    end: Instant,
    tracer: Tracer,
    /// Process CPU ticks read every [`CPU_READ_EVERY`] from before the
    /// window starts until after it ends.
    cpu: Vec<(Instant, u64)>,
    /// Answers the inline checks found wrong, and how many they checked.
    wrong: usize,
    checked: usize,
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let workload = args.workload;
    println!(
        "workload {} seed {} corpus seed {:#x} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.corpus_seed,
        args.seconds,
        u8::from(args.trace)
    );
    let corpus = Corpus::generate(args.corpus_seed, corpus::DOMAINS);
    let plan = Plan::new(&corpus, workload, args.seed)?;
    println!(
        "corpus: {} domains, {} query domains (>= {} values), {} (domain, threshold) pairs",
        corpus.catalog.len(),
        corpus.queries.len(),
        corpus::MIN_QUERY_VALUES,
        corpus.pairs.len()
    );
    let inserts_needed = (INSERT_RATE * args.seconds as f64) as usize + 1024;
    let inserts = Inserts::generate(args.corpus_seed, args.seed, inserts_needed);
    let work = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));

    // Ground truth is built before set-up so `mem_mb` excludes it.
    let reference = match workload.layout() {
        Layout::Cluster => Some(
            Engine::from_container(
                IndexContainer::build(&corpus.catalog, PARTITIONS, true),
                setup::SHARDS,
            )
            .map(Arc::new)
            .map_err(|e| format!("reference engine: {e}"))?,
        ),
        Layout::Mapped | Layout::Heap => None,
    };
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        let s = setup(
            workload.layout(),
            &corpus,
            &work.join(format!("setup{i}")),
            &plan.warm,
        )?;
        println!(
            "setup {i}: {:.3} s (build {:.3} s, persist {:.3} s, open {:.2} ms)",
            s.times.total_s, s.times.build_s, s.times.persist_s, s.times.open_ms
        );
        times.push(s.times);
        if i + 1 < SETUPS {
            s.served.teardown();
        } else {
            last = Some(s);
        }
    }
    let last = last.expect("at least one setup");
    let served = last.served;
    let reference = match reference {
        Some(engine) => engine,
        None => Arc::clone(
            served
                .engine
                .as_ref()
                .ok_or("a single server has one engine")?,
        ),
    };
    let addrs = served.server_addrs();
    let stats0 = server_stats(&addrs)?;
    let before = Counters::read()?;
    let window = drive(
        workload, &args, &corpus, &plan, &inserts, &served, &reference,
    );
    let after = Counters::read()?;
    let stats1 = server_stats(&addrs)?;

    // Post-hoc checks of the read-only workloads, whose snapshot never moves.
    let (mut wrong, mut checked) = (window.wrong, window.checked);
    if workload != Workload::IngestChurn {
        let snap = reference.snapshot();
        for s in window.samples.iter().step_by(CHECK_EVERY) {
            if let (Op::Query(pair), Some(answer)) = (s.op, &s.reply.answer) {
                checked += 1;
                wrong += usize::from(!same_answer(
                    &snap,
                    &corpus,
                    pair,
                    answer,
                    workload.layout(),
                ));
            }
        }
    }
    let (attempted, failed) = tally(&window.samples, wrong);

    let mut e2e = Metrics::new();
    report(&window, &corpus, &mut e2e)?;
    e2e.insert("setup_s", median(times.iter().map(|t| t.total_s).collect()));
    e2e.insert(
        "mapped_mb",
        (after.rss_file_kb as f64 - last.before_load.rss_file_kb as f64) / 1024.0,
    );
    let answered = window
        .samples
        .iter()
        .filter(|s| matches!(s.op, Op::Query(_)) && s.reply.ok)
        .count();
    println!(
        "whole run: cpu_us_per_query = {:.1} us",
        (after.cpu_ticks - before.cpu_ticks) as f64 / setup::TICKS_PER_SECOND * 1e6
            / answered.max(1) as f64,
    );
    let inserted = window
        .samples
        .iter()
        .filter(|s| matches!(s.op, Op::Insert(_)) && s.reply.ok)
        .count();
    if inserted > 0 {
        println!(
            "disk_kb_per_insert = {:.1} KB ({:.1} MB written over {inserted} acknowledged inserts; \
             flush policy: one delta-log sync_data per staged op)",
            (after.write_bytes - before.write_bytes) as f64 / 1024.0 / inserted as f64,
            (after.write_bytes - before.write_bytes) as f64 / 1e6
        );
    }
    println!(
        "host: {:.2}% of machine CPU time stolen by the hypervisor during the window",
        100.0 * (after.steal_ticks - before.steal_ticks) as f64
            / (after.host_ticks - before.host_ticks).max(1) as f64
    );
    let d = |path: &[&str]| sum(&stats1, path) - sum(&stats0, path);
    let (hits, misses) = (d(&["cache", "hits"]), d(&["cache", "misses"]));
    println!(
        "server: cache hit ratio {:.4} ({hits} hits, {misses} misses), {:.2} wakeups/request, maintenance {} merges folding {} entries",
        hits / (hits + misses).max(1.0),
        d(&["server", "event_loop_wakeups"]) / window.samples.len().max(1) as f64,
        d(&["maintenance", "merges"]),
        d(&["maintenance", "entries_folded"]),
    );
    println!(
        "error_rate = {:.6} ({failed} failed of {attempted} attempted; {checked} answers checked against the library, {wrong} wrong)",
        failed as f64 / attempted.max(1) as f64
    );

    let growth = (after.rss_kb as f64 - last.before_load.rss_kb as f64) / 1024.0;
    println!(
        "mem_mb = {growth:.1} MB (RSS growth from just before the final load to the end of the window; \
         file-backed part: mapped_mb)"
    );

    let metrics = if args.trace {
        let mut per_layer = Metrics::new();
        per_layer_metrics(
            workload,
            &args,
            &corpus,
            &plan,
            &inserts,
            &served,
            &reference,
            window,
            &times,
            &work,
            (&stats0, &stats1),
            &mut per_layer,
        )?;
        per_layer
    } else {
        e2e
    };
    served.teardown();
    std::fs::remove_dir_all(&work).ok();
    for (name, value) in &metrics {
        println!("metric {name} = {value:.4} {}", unit(name));
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(())
}

/// The unit a metric is reported in, from its name.
fn unit(name: &str) -> &'static str {
    match name.rsplit('_').next() {
        Some("us") => "us",
        Some("ms") => "ms",
        Some("s") => "s",
        Some("mb") => "MB",
        Some("qps") => "1/s",
        Some("query") if name.starts_with("cpu_us") => "us",
        _ if name.starts_with("persist.bytes") => "bytes",
        _ if matches!(name, "recall" | "precision") || name.contains("ratio") => "ratio",
        _ => "count",
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    stats::percentile(&xs, 50.0)
}

/// Whether a served answer equals `Snapshot::search` on the same
/// signature (ids in served order).
fn same_answer(
    snap: &Snapshot,
    corpus: &Corpus,
    pair: Pair,
    answer: &wire::Answer,
    layout: Layout,
) -> bool {
    let domain = corpus.domain(pair);
    let sig = domain.signature(snap.hasher());
    let ids: Vec<u32> = snap
        .search(&sig, domain.len() as u64, THRESHOLDS[pair.threshold])
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    // A single server reports its own generation; the coordinator reports
    // the shards' and is compared on hits alone.
    ids == answer.ids && (layout == Layout::Cluster || answer.generation == snap.generation())
}

fn server_stats(addrs: &[std::net::SocketAddr]) -> Result<Vec<lshe_serve::json::Json>, String> {
    addrs.iter().map(|&a| layers::stats(a)).collect()
}

fn sum(stats: &[lshe_serve::json::Json], path: &[&str]) -> f64 {
    stats.iter().map(|j| stat(j, path)).sum()
}

/// Runs the workload's measured window.
fn drive(
    workload: Workload,
    args: &Args,
    corpus: &Corpus,
    plan: &Plan,
    inserts: &Inserts,
    served: &Served,
    reference: &Arc<Engine>,
) -> Window {
    let epoch = Instant::now();
    let start = epoch + Duration::from_millis(5);
    let until = start + Duration::from_secs(args.seconds);
    let addr = served.addr;
    let next_cold = AtomicU64::new(0);
    let cold = |_: u64| {
        Op::Query(plan.cold[next_cold.fetch_add(1, Ordering::Relaxed) as usize % plan.cold.len()])
    };
    let (cpu, results) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut cpu = Vec::new();
            loop {
                let now = Instant::now();
                if let Ok(ticks) = setup::process_cpu_ticks() {
                    cpu.push((now, ticks));
                }
                if now > until {
                    return cpu;
                }
                std::thread::sleep(CPU_READ_EVERY);
            }
        });
        let handles: Vec<_> = (0..workload.clients())
            .map(|c| {
                let cold = &cold;
                scope.spawn(move || {
                    let mut rec =
                        Recorder::new((c as u64) << 32, args.trace, Tracer::with_epoch(epoch));
                    let mut client = Client::new(addr);
                    let (mut wrong, mut checked) = (0, 0);
                    let samples = match (workload, c) {
                        (Workload::QueryHot, _) => {
                            let mut rng = Rng::new(args.seed ^ (c as u64 + 1) << 40);
                            closed_loop(
                                until,
                                &mut rec,
                                |_| Op::Query(plan.zipf_draw(&mut rng)),
                                |op| send_query(&mut client, corpus, op),
                            )
                        }
                        (Workload::QueryCold | Workload::ClusterScatter, _) => {
                            closed_loop(until, &mut rec, cold, |op| {
                                send_query(&mut client, corpus, op)
                            })
                        }
                        (Workload::IngestChurn, 0) => {
                            writer(start, until, &mut rec, &mut client, inserts)
                        }
                        (Workload::IngestChurn, _) => {
                            let interval = Duration::from_secs_f64(1.0 / QUERY_RATE);
                            let mut k = 0usize;
                            open_loop(start, interval, until, &mut rec, cold, |op| {
                                let reply = send_query(&mut client, corpus, op)?;
                                k += 1;
                                if let (Op::Query(pair), Some(answer), true) =
                                    (op, &reply.answer, k.is_multiple_of(CHECK_EVERY))
                                {
                                    // The snapshot moves under ingest: check only
                                    // answers from the generation still live.
                                    let snap = reference.snapshot();
                                    if snap.generation() == answer.generation {
                                        checked += 1;
                                        wrong += usize::from(!same_answer(
                                            &snap,
                                            corpus,
                                            pair,
                                            answer,
                                            Layout::Heap,
                                        ));
                                    }
                                }
                                Some(reply)
                            })
                        }
                    };
                    (samples, rec.tracer, wrong, checked)
                })
            })
            .collect();
        let results: Vec<(Vec<Sample>, Tracer, usize, usize)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (reader.join().expect("CPU reader panicked"), results)
    });
    let mut window = Window {
        samples: Vec::new(),
        start,
        end: until,
        tracer: Tracer::with_epoch(epoch),
        cpu,
        wrong: 0,
        checked: 0,
    };
    for (samples, tracer, wrong, checked) in results {
        window.samples.extend(samples);
        window.tracer.absorb(tracer);
        window.wrong += wrong;
        window.checked += checked;
    }
    window
}

/// `ingest_churn`'s write stream: inserts at [`INSERT_RATE`], one remove
/// (of the oldest acknowledged insert) per [`INSERTS_PER_REMOVE`] inserts
/// and one commit per [`INSERTS_PER_COMMIT`], evenly spaced.
fn writer(
    start: Instant,
    until: Instant,
    rec: &mut Recorder,
    client: &mut Client,
    inserts: &Inserts,
) -> Vec<Sample> {
    let mut cycle = Vec::new();
    for i in 1..=INSERTS_PER_COMMIT {
        cycle.push(Op::Insert(0));
        if i % INSERTS_PER_REMOVE == 0 {
            cycle.push(Op::Remove);
        }
    }
    cycle.push(Op::Commit);
    let per_second = INSERT_RATE * cycle.len() as f64 / INSERTS_PER_COMMIT as f64;
    let mut inserted = 0usize;
    let mut acked: VecDeque<u32> = VecDeque::new();
    open_loop(
        start,
        Duration::from_secs_f64(1.0 / per_second),
        until,
        rec,
        |k| match cycle[k as usize % cycle.len()] {
            Op::Insert(_) => {
                inserted += 1;
                Op::Insert(inserted - 1)
            }
            op => op,
        },
        |op| match op {
            Op::Insert(i) => {
                let reply = client.mutate("/insert", &inserts.bodies[i % inserts.bodies.len()]);
                acked.extend(reply.id);
                Some(reply)
            }
            Op::Remove => {
                let id = acked.pop_front()?;
                Some(client.mutate("/remove", &format!("{{\"id\":{id}}}")))
            }
            Op::Commit => Some(client.mutate("/commit", "{}")),
            Op::Query(_) => None,
        },
    )
}

/// Prints the end-to-end report and fills the end-to-end metrics.
fn report(window: &Window, corpus: &Corpus, out: &mut Metrics) -> Result<(), String> {
    let of = |keep: fn(&Op) -> bool| -> Vec<&Sample> {
        window.samples.iter().filter(|s| keep(&s.op)).collect()
    };
    let latencies = |xs: &[&Sample]| -> Vec<f64> {
        xs.iter()
            .filter(|s| s.reply.ok)
            .map(|s| s.latency_us())
            .collect()
    };
    let queries = of(|op| matches!(op, Op::Query(_)));
    let all: Vec<&Sample> = window.samples.iter().collect();
    let q = Summary::of(&latencies(&queries)).ok_or("no query completed")?;
    println!("whole run: {}", q.line("query", "us"));
    let ops = Summary::of(&latencies(&all)).ok_or("no request completed")?;
    println!("whole run, every endpoint: {}", ops.line("request", "us"));
    // The gated figures are medians over time slices of the window.
    let slice = |xs: &[&Sample]| {
        let points: Vec<(f64, f64)> = xs
            .iter()
            .filter(|s| s.reply.ok)
            .map(|s| ((s.done - window.start).as_secs_f64(), s.latency_us()))
            .collect();
        stats::sliced(&points, 0.0, (window.end - window.start).as_secs_f64())
    };
    let qs = slice(&queries).ok_or("no query completed")?;
    let os = slice(&all).ok_or("no request completed")?;
    println!(
        "medians over {} time slices: query_p50_us = {:.1} us; query_p90_us = {:.1} us; query_p99_us = {} us; \
         query_qps = {:.1} 1/s; request_p50_us = {:.1} us; request_p99_us = {} us",
        qs.slices,
        qs.p50,
        qs.p90,
        qs.p99.or(q.p99).map_or("-".to_owned(), |v| format!("{v:.1}")),
        qs.rate,
        os.p50,
        os.p99.or(ops.p99).map_or("-".to_owned(), |v| format!("{v:.1}")),
    );
    out.insert("query_p50_us", qs.p50);
    // Process CPU time per answered query, over the same slices.
    let readings: Vec<(f64, f64)> = window
        .cpu
        .iter()
        .map(|&(t, ticks)| {
            (
                t.saturating_duration_since(window.start).as_secs_f64()
                    - window.start.saturating_duration_since(t).as_secs_f64(),
                ticks as f64 / setup::TICKS_PER_SECOND * 1e6,
            )
        })
        .collect();
    let answered: Vec<f64> = queries
        .iter()
        .filter(|s| s.reply.ok)
        .map(|s| (s.done - window.start).as_secs_f64())
        .collect();
    let cpu = stats::sliced_per_event(
        &readings,
        &answered,
        0.0,
        (window.end - window.start).as_secs_f64(),
        qs.slices,
    )
    .ok_or("the CPU readings do not span the window")?;
    println!(
        "medians over {} time slices: cpu_us_per_query = {cpu:.1} us",
        qs.slices
    );
    out.insert("cpu_us_per_query", cpu);
    for (name, keep) in [
        (
            "insert",
            (|op: &Op| matches!(op, Op::Insert(_))) as fn(&Op) -> bool,
        ),
        ("remove", |op| matches!(op, Op::Remove)),
        ("commit", |op| matches!(op, Op::Commit)),
    ] {
        if let Some(s) = Summary::of(&latencies(&of(keep))) {
            println!("timed from due time: {}", s.line(name, "us"));
        }
    }
    // Lateness per sender: each open-loop stream keeps its own schedule.
    for sender in 0..CLIENTS as u64 {
        let late: Vec<f64> = window
            .samples
            .iter()
            .filter(|s| s.id >> 32 == sender)
            .map(Sample::late_us)
            .collect();
        if late.len() < 4 || late.iter().all(|&l| l == 0.0) {
            continue;
        }
        // A stall delays a run of requests, after which the generator
        // catches up; a backlog that grows never does.
        let caught_up = late[late.len() - late.len() / 4..]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let growing = caught_up > BACKLOG_LATE_US;
        println!(
            "{} ; least lateness over the last quarter {caught_up:.1} us; backlog {}",
            Summary::of(&late).map_or_else(String::new, |s| s
                .line(&format!("sender{sender}_late"), "us")),
            if growing { "GROWING" } else { "steady" }
        );
    }
    let (mut recalls, mut precisions) = (Vec::new(), Vec::new());
    for s in &queries {
        if let (Op::Query(pair), Some(answer)) = (s.op, &s.reply.answer) {
            let (r, p) = recall_precision(&answer.ids, &corpus.truth(pair));
            recalls.push(r);
            precisions.extend(p);
        }
    }
    out.insert("recall", mean(&recalls));
    out.insert("precision", mean(&precisions));
    Ok(())
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    workload: Workload,
    args: &Args,
    corpus: &Corpus,
    plan: &Plan,
    inserts: &Inserts,
    served: &Served,
    reference: &Arc<Engine>,
    mut window: Window,
    times: &[SetupTimes],
    work: &std::path::Path,
    (stats0, stats1): (&[lshe_serve::json::Json], &[lshe_serve::json::Json]),
    out: &mut Metrics,
) -> Result<(), String> {
    // Tracing overhead: traced minus untraced query p50 within the run.
    let split = |traced: bool| -> Vec<f64> {
        window
            .samples
            .iter()
            .filter(|s| {
                matches!(s.op, Op::Query(_)) && s.reply.ok && load::is_traced(s.id) == traced
            })
            .map(Sample::latency_us)
            .collect()
    };
    let (on, off) = (split(true), split(false));
    if let (Some(on), Some(off)) = (Summary::of(&on), Summary::of(&off)) {
        out.insert("trace.overhead_us", on.p50 - off.p50);
    }
    let d = |path: &[&str]| sum(stats1, path) - sum(stats0, path);
    let (hits, misses) = (d(&["cache", "hits"]), d(&["cache", "misses"]));
    out.insert("cache.hit_ratio", hits / (hits + misses).max(1.0));
    out.insert(
        "reactor.wakeups_per_request",
        d(&["server", "event_loop_wakeups"]) / window.samples.len().max(1) as f64,
    );

    let traced: Vec<&Sample> = window
        .samples
        .iter()
        .filter(|s| matches!(s.op, Op::Query(_)) && s.reply.ok && load::is_traced(s.id))
        .collect();
    let step = (traced.len() / TRACE_SAMPLES).max(1);
    let sampled: Vec<&Sample> = traced
        .into_iter()
        .step_by(step)
        .take(TRACE_SAMPLES)
        .collect();
    let snap = reference.snapshot();
    layers::query_layers(corpus, &snap, &sampled, &mut window.tracer, out);
    drop(snap);

    // The write path: on the live engine for ingest, else on a heap probe.
    if workload == Workload::IngestChurn {
        layers::wait_maintenance_idle(served.addr, Duration::from_secs(20))?;
        let engine = served.engine.as_ref().ok_or("ingest serves one engine")?;
        layers::write_layers(
            engine,
            inserts,
            inserts.bodies.len() - 600,
            &mut window.tracer,
            out,
        )?;
    } else {
        let probe = setup(Layout::Heap, corpus, &work.join("write-probe"), &[])?;
        let engine = probe
            .served
            .engine
            .clone()
            .ok_or("heap probe serves one engine")?;
        let res = layers::write_layers(&engine, inserts, 0, &mut window.tracer, out);
        drop(engine);
        probe.served.teardown();
        res?;
    }
    // The cluster tier: live for cluster_scatter, else on a probe cluster.
    if workload == Workload::ClusterScatter {
        layers::cluster_layers(
            served.addr,
            &served.shard_addrs,
            corpus,
            &plan.cold,
            &mut window.tracer,
            out,
        )?;
    } else {
        let probe = setup(Layout::Cluster, corpus, &work.join("cluster-probe"), &[])?;
        let res = layers::cluster_layers(
            probe.served.addr,
            &probe.served.shard_addrs,
            corpus,
            &plan.cold,
            &mut window.tracer,
            out,
        );
        probe.served.teardown();
        res?;
    }
    out.insert(
        "store.open_ms",
        median(times.iter().map(|t| t.open_ms).collect()),
    );
    out.insert(
        "container.build_s",
        median(times.iter().map(|t| t.build_s).collect()),
    );
    out.insert(
        "container.persist_s",
        median(times.iter().map(|t| t.persist_s).collect()),
    );

    let spans = window.tracer.spans();
    let path = PathBuf::from(".perfbench").join("traces").join(format!(
        "{}-seed{}.jsonl",
        workload.name(),
        args.seed
    ));
    window
        .tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let by_name = trace::mean_self_us(spans);
    println!("spans: {} written to {}", spans.len(), path.display());
    for (name, (us, n)) in &by_name {
        println!("span self time: {name} mean {us:.1} us over {n}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_follow_metric_names() {
        assert_eq!(unit("query_p50_us"), "us");
        assert_eq!(unit("setup_s"), "s");
        assert_eq!(unit("container.clone_ms"), "ms");
        assert_eq!(unit("mapped_mb"), "MB");
        assert_eq!(unit("query_qps"), "1/s");
        assert_eq!(unit("recall"), "ratio");
        assert_eq!(unit("cache.hit_ratio"), "ratio");
        assert_eq!(unit("persist.bytes_per_merge"), "bytes");
        assert_eq!(unit("cluster.fanout"), "count");
    }
}
