//! The traced run's per-layer measurements. Every span wraps a call the
//! benchmark itself makes into one module's public functions; nothing is
//! recorded inside the program.

use crate::corpus::{Corpus, Inserts, Pair, THRESHOLDS};
use crate::load::{Client, Op, Sample};
use crate::setup::Counters;
use crate::stats::mean;
use crate::trace::Tracer;
use crate::wire::{scan_answer, Conn};
use lshe_core::{CompactionThresholds, MaintenancePlanner, MergePolicyKind, Query};
use lshe_corpus::Domain;
use lshe_serve::container::{DeltaOp, DomainRecord};
use lshe_serve::engine::{Engine, Snapshot};
use lshe_serve::http::RequestParser;
use lshe_serve::json::Json;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Query-path layers, in request order.
const QUERY_LAYERS: [&str; 6] = [
    "http.parse",
    "json.decode",
    "corpus.hash",
    "minhash.sketch",
    "core.search",
    "json.render",
];
/// The layers a cache hit runs (it skips sketch and search).
const HIT_LAYERS: [&str; 4] = ["http.parse", "json.decode", "corpus.hash", "json.render"];

/// Round trips, per-layer costs and unattributed remainders of one kind
/// of request (hits or misses), in µs.
type Budget = (Vec<f64>, BTreeMap<&'static str, Vec<f64>>, Vec<f64>);

/// Named per-layer values.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Replays sampled live requests layer by layer against `snap` and
/// charges each request's round trip to the layers the server ran for
/// it; the rest is `reactor.unattributed_us`. Prints the hit and miss
/// budgets, which reconcile to the measured round trip by construction.
pub fn query_layers(
    corpus: &Corpus,
    snap: &Snapshot,
    samples: &[&Sample],
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut rtt, mut unattributed) = (Vec::new(), Vec::new());
    let mut budgets: [Budget; 2] = Default::default();
    let (mut candidates, mut survivors, mut probed, mut total) = (0usize, 0usize, 0usize, 0usize);
    for s in samples {
        let (Op::Query(pair), Some(answer)) = (s.op, &s.reply.answer) else {
            continue;
        };
        let id = s.id;
        let root = tracer.open("replay", None, id);
        let parent = Some(root);
        let bytes = Conn::encode("POST", "/query", &corpus.body(pair));
        let request = tracer.time("http.parse", parent, id, || {
            let mut parser = RequestParser::new();
            parser.feed(&bytes);
            parser.next_request()
        });
        let Ok(Some(request)) = request else {
            continue;
        };
        let json = tracer.time("json.decode", parent, id, || {
            Json::parse(std::str::from_utf8(&request.body).unwrap_or(""))
        });
        let Ok(json) = json else {
            continue;
        };
        let domain = tracer.time("corpus.hash", parent, id, || {
            let values = json.get("values").and_then(Json::as_array).unwrap_or(&[]);
            Domain::from_strs(values.iter().filter_map(Json::as_str))
        });
        let sig = tracer.time("minhash.sketch", parent, id, || {
            domain.signature(snap.hasher())
        });
        let threshold = THRESHOLDS[pair.threshold];
        let outcome = tracer.time("core.search", parent, id, || {
            snap.query(&Query::threshold(&sig, threshold).with_size(domain.len() as u64))
        });
        let Ok(outcome) = outcome else {
            continue;
        };
        candidates += outcome.stats.candidates;
        survivors += outcome.stats.survivors;
        probed += outcome.stats.partitions_probed;
        total += outcome.stats.partitions_total;
        let mut rendered = String::new();
        tracer.time("json.render", parent, id, || {
            render_like_server(snap, &outcome.hits, answer.cached).render_into(&mut rendered)
        });
        tracer.close(root);

        let spans = tracer.spans();
        let layer_us = |name: &str| {
            spans
                .iter()
                .rev()
                .take(8)
                .find(|x| x.name == name && x.request == id)
                .map_or(0.0, |x| (x.end - x.start) as f64 / 1e3)
        };
        let ran: &[&str] = if answer.cached {
            &HIT_LAYERS
        } else {
            &QUERY_LAYERS
        };
        let charged: f64 = ran.iter().map(|l| layer_us(l)).sum();
        let budget = &mut budgets[usize::from(!answer.cached)];
        budget.0.push(s.rtt_us());
        for l in ran {
            budget.1.entry(l).or_default().push(layer_us(l));
        }
        budget.2.push(s.rtt_us() - charged);
        for l in QUERY_LAYERS {
            per_layer.entry(l).or_default().push(layer_us(l));
        }
        rtt.push(s.rtt_us());
        unattributed.push(s.rtt_us() - charged);
    }
    for l in QUERY_LAYERS {
        out.insert(
            metric_us(l),
            mean(per_layer.get(l).map_or(&[][..], Vec::as_slice)),
        );
    }
    out.insert(
        "core.candidates_per_hit",
        candidates as f64 / survivors.max(1) as f64,
    );
    out.insert("core.probe_ratio", probed as f64 / total.max(1) as f64);
    out.insert("reactor.round_trip_us", mean(&rtt));
    out.insert("reactor.unattributed_us", mean(&unattributed));
    for (name, (rtts, layers, rest)) in ["hit", "miss"].iter().zip(&budgets) {
        if rtts.is_empty() {
            continue;
        }
        let parts: Vec<String> = QUERY_LAYERS
            .iter()
            .filter_map(|l| layers.get(l).map(|v| format!("{l} {:.1}", mean(v))))
            .collect();
        println!(
            "{name} budget (n={}, mean µs): {} + reactor.unattributed {:.1} = round trip {:.1}",
            rtts.len(),
            parts.join(" + "),
            mean(rest),
            mean(rtts)
        );
    }
}

fn metric_us(layer: &str) -> &'static str {
    match layer {
        "http.parse" => "http.parse_us",
        "json.decode" => "json.decode_us",
        "corpus.hash" => "corpus.hash_us",
        "minhash.sketch" => "minhash.sketch_us",
        "core.search" => "core.search_us",
        _ => "json.render_us",
    }
}

/// The `/query` response the server renders for these hits.
fn render_like_server(snap: &Snapshot, hits: &[lshe_core::SearchHit], cached: bool) -> Json {
    let hits = hits
        .iter()
        .map(|h| {
            let (table, column, size) = snap.container().record(h.id).map_or(("?", "?", 0), |r| {
                (r.table.as_str(), r.column.as_str(), r.size)
            });
            Json::obj(vec![
                ("id", Json::uint(u64::from(h.id))),
                ("table", Json::str(table)),
                ("column", Json::str(column)),
                ("size", Json::uint(size)),
                ("estimate", h.estimate.map_or(Json::Null, Json::num)),
            ])
        })
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("count", Json::uint(hits.len() as u64)),
        ("cached", Json::Bool(cached)),
        ("generation", Json::uint(snap.generation())),
        ("query_time_us", Json::uint(0)),
        ("hits", Json::Arr(hits)),
    ])
}

/// Inserts staged per probe commit, and probe commits.
const PROBE_BATCH: usize = 64;
const PROBE_COMMITS: usize = 8;
/// Cap on probe merges.
const PROBE_MERGES: usize = 16;

/// The write path on a file-backed heap engine: staging (with its
/// delta-log fsync), the commit's clone and seal, the leveled merges the
/// planner schedules, and the base encode each merge persists.
///
/// # Errors
/// A message when a step the probe relies on fails.
pub fn write_layers(
    engine: &Engine,
    inserts: &Inserts,
    first: usize,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let hasher = engine.snapshot().hasher().clone();
    let mut k = first;
    for round in 0..PROBE_COMMITS {
        let id = round as u64;
        let mut ops = Vec::with_capacity(PROBE_BATCH);
        for _ in 0..PROBE_BATCH {
            let domain = &inserts.domains[k % inserts.domains.len()];
            let (table, column) = ("probe".to_owned(), format!("c{k}"));
            k += 1;
            let signature = domain.signature(&hasher);
            let size = domain.len() as u64;
            let staged = tracer.time("engine.stage", None, id, || {
                engine.stage_insert(table.clone(), column.clone(), size, signature.clone())
            });
            let (new_id, _) = staged.map_err(|e| format!("stage_insert: {e}"))?;
            ops.push(DeltaOp::Insert {
                record: DomainRecord {
                    id: new_id,
                    size,
                    table,
                    column,
                },
                signature,
            });
        }
        let snap = engine.snapshot();
        let mut container = tracer.time("container.clone", None, id, || snap.container().clone());
        let sealed = tracer.time("container.seal", None, id, || {
            container.apply(&ops).map(|_| container.commit_mutations())
        });
        sealed.map_err(|e| format!("seal: {e}"))?;
        drop(container);
        engine
            .commit_staged()
            .map_err(|e| format!("commit_staged: {e}"))?;
    }
    let planner =
        MaintenancePlanner::for_kind(MergePolicyKind::Leveled, CompactionThresholds::default());
    let (mut merges, mut folded, mut bytes) = (0usize, 0usize, 0u64);
    while merges < PROBE_MERGES {
        let tasks = planner.plan(&engine.segment_layout());
        if tasks.is_empty() {
            break;
        }
        for task in tasks.iter().take(PROBE_MERGES - merges) {
            let before = Counters::read()?;
            let merged = tracer.time("maintenance.merge", None, merges as u64, || {
                engine.apply_merge(task)
            });
            let (_, outcome) = merged.map_err(|e| format!("apply_merge: {e}"))?;
            bytes += Counters::read()?.write_bytes - before.write_bytes;
            folded += outcome.entries_folded;
            merges += 1;
        }
    }
    let snap = engine.snapshot();
    for i in 0..3 {
        std::hint::black_box(
            tracer.time("container.encode", None, i, || snap.container().to_bytes()),
        );
    }
    let means = crate::trace::mean_self_us(tracer.spans());
    let get = |name: &str| means.get(name).map_or(0.0, |&(us, _)| us);
    out.insert("engine.stage_us", get("engine.stage"));
    out.insert("container.clone_ms", get("container.clone") / 1e3);
    out.insert("container.seal_us", get("container.seal"));
    out.insert("maintenance.merge_ms", get("maintenance.merge") / 1e3);
    out.insert("maintenance.merges", merges as f64);
    out.insert("maintenance.entries_folded", folded as f64);
    out.insert(
        "persist.bytes_per_merge",
        bytes as f64 / merges.max(1) as f64,
    );
    out.insert("container.encode_ms", get("container.encode") / 1e3);
    Ok(())
}

/// Probe requests sent through the coordinator.
const CLUSTER_PROBES: usize = 200;
/// Thresholds between the workload's own, so probe requests miss every
/// cache the workload warmed.
const PROBE_THRESHOLDS: [f64; 4] = [0.55, 0.65, 0.75, 0.85];

/// The cluster tier: for probe queries sent through the coordinator, the
/// direct round trip to each shard, `merge::merge_hits` over the shards'
/// answers, the shard sub-requests per client query (from the shards'
/// `/stats`), and the coordinator's residual.
///
/// # Errors
/// A message when a probe request fails.
pub fn cluster_layers(
    coordinator: SocketAddr,
    shards: &[SocketAddr],
    corpus: &Corpus,
    pairs: &[Pair],
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let n = CLUSTER_PROBES.min(pairs.len());
    let body = |i: usize, debug: bool| {
        let pair = pairs[i * pairs.len() / n];
        let t = PROBE_THRESHOLDS[i % PROBE_THRESHOLDS.len()];
        let debug = if debug { ",\"debug\":true" } else { "" };
        format!(
            "{{\"values\":{},\"threshold\":{t}{debug}}}",
            corpus.query_json[pair.query]
        )
    };
    let before = sum_stat(shards, &["requests", "query"])?;
    let mut coord = Client::new(coordinator);
    let mut coord_rtt = Vec::with_capacity(n);
    for i in 0..n {
        let t0 = Instant::now();
        let reply = coord.query(&body(i, false));
        coord_rtt.push(t0.elapsed().as_secs_f64() * 1e6);
        if !reply.ok {
            return Err("cluster probe query failed".into());
        }
    }
    let fanout = (sum_stat(shards, &["requests", "query"])? - before) / n as f64;
    let mut clients: Vec<Client> = shards.iter().map(|&a| Client::new(a)).collect();
    let (mut shard_rtt, mut merge_us, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &rtt) in coord_rtt.iter().enumerate() {
        let root = tracer.open("cluster.request", None, i as u64);
        let text = body(i, true);
        let mut per_shard = Vec::with_capacity(shards.len());
        let mut slowest = 0.0f64;
        for client in &mut clients {
            let t0 = tracer.now();
            let (status, reply) = client
                .request("POST", "/query", &text)
                .map_err(|e| format!("shard probe: {e}"))?;
            let t1 = tracer.now();
            tracer.record("cluster.shard_rtt", t0, t1, Some(root), i as u64);
            if status != 200 || scan_answer(&reply).is_none() {
                return Err(format!("shard probe answered {status}"));
            }
            let us = (t1 - t0) as f64 / 1e3;
            shard_rtt.push(us);
            slowest = slowest.max(us);
            let hits = Json::parse(&reply)
                .ok()
                .and_then(|j| j.get("hits").and_then(Json::as_array).map(<[Json]>::to_vec));
            per_shard.push(hits.unwrap_or_default());
        }
        let t0 = tracer.now();
        let merged = lshe_cluster::merge::merge_hits(per_shard);
        let t1 = tracer.now();
        tracer.record("cluster.merge", t0, t1, Some(root), i as u64);
        tracer.close(root);
        merged?;
        let m = (t1 - t0) as f64 / 1e3;
        merge_us.push(m);
        overhead.push(rtt - slowest - m);
    }
    out.insert("cluster.shard_rtt_us", mean(&shard_rtt));
    out.insert("cluster.merge_us", mean(&merge_us));
    out.insert("cluster.fanout", fanout);
    out.insert("cluster.overhead_us", mean(&overhead));
    Ok(())
}

/// Fetches `/stats` from `addr`.
///
/// # Errors
/// A message when the request or its JSON fails.
pub fn stats(addr: SocketAddr) -> Result<Json, String> {
    let (status, body) = Client::new(addr)
        .request("GET", "/stats", "")
        .map_err(|e| format!("/stats: {e}"))?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    Json::parse(&body).map_err(|e| format!("/stats JSON: {e}"))
}

/// A numeric field of a `/stats` object by path.
#[must_use]
pub fn stat(json: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(json, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The sum of one `/stats` field over several servers.
///
/// # Errors
/// As [`stats`].
pub fn sum_stat(addrs: &[SocketAddr], path: &[&str]) -> Result<f64, String> {
    addrs
        .iter()
        .map(|&a| stats(a).map(|j| stat(&j, path)))
        .sum()
}

/// Waits until the server's maintenance thread has nothing running or
/// queued (at most `limit`).
///
/// # Errors
/// As [`stats`].
pub fn wait_maintenance_idle(addr: SocketAddr, limit: Duration) -> Result<(), String> {
    let until = Instant::now() + limit;
    loop {
        let s = stats(addr)?;
        let running = s
            .get("maintenance")
            .and_then(|m| m.get("running"))
            .is_some_and(|r| *r != Json::Null);
        if (!running && stat(&s, &["maintenance", "queued"]) == 0.0) || Instant::now() >= until {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
