//! `cluster`: a `ProcCluster` of two worker processes (re-execs of this
//! binary) takes a seeded Example 1 session stream with `view: 1`. Most
//! events go through `submit_batch` (64 events), one window of 400 events
//! through per-event `submit`, and migrations of eight virtual shards are
//! forced at a quarter, half and three quarters of the stream. Each round
//! spawns a fresh cluster, streams, and drains with `finish`, which reaps
//! the workers; its CPU time is the supervisor's plus both workers'. Set-up
//! is the same CPU time of a cluster spawned and finished with no events.
//!
//! Oracle: every session's final status and event count equal what the
//! generator planted, and `events_routed` equals the stream length.

use crate::common::{
    median, peak_rss_mib, ratio, Args, Calibrated, Cpu, CpuScope, Outcome, Traced,
};
use crate::sessions::{self, Item, Plan, Spec, EXAMPLE1};
use rega_cluster::proc::event_to_json;
use rega_cluster::{vshard, NodeAgent, ProcCluster, VSHARDS};
use rega_core::spec::parse_spec;
use rega_data::Database;
use rega_serve::proto::{write_frame, Framing};
use rega_stream::{CompiledSpec, EngineConfig, Event, SessionStatus};
use serde_json::{json, Value as Json};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events in one round.
const ROUND_EVENTS: usize = 4_000;
/// Sessions open at once.
const ACTIVE: usize = 32;
/// Events per `submit_batch` call.
const BATCH: usize = 64;
/// The per-event `submit` window: events `[WINDOW_AT, WINDOW_AT + WINDOW)`.
const WINDOW_AT: usize = 1_600;
const WINDOW: usize = 400;
/// Virtual shards moved per forced migration.
const MIGRATED: usize = 8;
const VIEW: Option<u16> = Some(1);
/// Empty clusters spawned and finished to time set-up.
const SETUPS: usize = 5;

/// The stream of one round and where its migrations fall.
struct Inputs {
    plans: Vec<Plan>,
    events: Vec<Event>,
}

fn inputs(seed: u64) -> Inputs {
    let (plans, items) = sessions::stream(seed, "c", ROUND_EVENTS, ACTIVE, &[Spec::Example1]);
    let events = items
        .iter()
        .filter_map(|item| match *item {
            Item::Event(s, i) => Some(plans[s].event(i)),
            Item::Open(_) => None,
        })
        .collect();
    Inputs { plans, events }
}

/// Stream positions of the forced migrations.
fn migration_points() -> [usize; 3] {
    [ROUND_EVENTS / 4, ROUND_EVENTS / 2, 3 * ROUND_EVENTS / 4]
}

/// One round's measurements.
struct Round {
    /// CPU seconds of the supervisor and both workers, spawn to reap.
    secs: f64,
    migration_ms: Vec<f64>,
    ops: u64,
    failed: u64,
    outcomes: Vec<(String, String, u64)>,
    routed: u64,
    retries: u64,
    sheds: u64,
    replayed: u64,
}

fn status(s: &SessionStatus) -> &'static str {
    match s {
        SessionStatus::Active => "active",
        SessionStatus::Ended => "ended",
        SessionStatus::Violated(_) => "violated",
    }
}

fn round(inp: &Inputs, seed: u64) -> Round {
    let cpu = Cpu::start(CpuScope::WithChildren);
    let mut cluster = ProcCluster::new(2, EXAMPLE1, VIEW, seed, None, 0).expect("workers spawn");
    let mut migration_ms = Vec::new();
    let (mut ops, mut failed) = (0u64, 0u64);
    let points = migration_points();
    // The vshards first owned by worker 0, moved to worker 1 and back.
    let moved: Vec<usize> = cluster.owned_by(0).into_iter().take(MIGRATED).collect();
    let mut at = 0;
    let mut migrations = 0;
    while at < inp.events.len() {
        if migrations < points.len() && at == points[migrations] {
            let to = if migrations % 2 == 0 { 1 } else { 0 };
            let _span = rega_obs::span!("cluster.migrate");
            let t = Instant::now();
            ops += 1;
            if cluster.migrate(&moved, to).is_err() {
                failed += 1;
            }
            migration_ms.push(t.elapsed().as_secs_f64() * 1e3);
            migrations += 1;
        }
        let next_point = points.get(migrations).copied().unwrap_or(usize::MAX);
        if (WINDOW_AT..WINDOW_AT + WINDOW).contains(&at) {
            let _span = rega_obs::span!("cluster.submit");
            ops += 1;
            if cluster.submit(inp.events[at].clone()).is_err() {
                failed += 1;
            }
            at += 1;
            continue;
        }
        let mut end = (at + BATCH).min(inp.events.len()).min(next_point);
        if at < WINDOW_AT {
            end = end.min(WINDOW_AT);
        }
        let _span = rega_obs::span!("cluster.submit_batch");
        ops += 1;
        if cluster.submit_batch(&inp.events[at..end]).is_err() {
            failed += 1;
        }
        at = end;
    }
    let metrics = cluster.metrics();
    let (retries, sheds, replayed) = (
        metrics.retries.get(),
        metrics.sheds_rebalancing.get(),
        metrics.events_replayed.get(),
    );
    ops += 1;
    let (outcomes, routed) = match cluster.finish() {
        Ok(report) => (
            report
                .outcomes
                .iter()
                .map(|o| (o.session.clone(), status(&o.status).to_string(), o.events))
                .collect(),
            report.metrics.events_routed.get(),
        ),
        Err(_) => {
            failed += 1;
            (Vec::new(), 0)
        }
    };
    Round {
        secs: cpu.secs(),
        migration_ms,
        ops,
        failed,
        outcomes,
        routed,
        retries,
        sheds,
        replayed,
    }
}

/// Rounds for `window`; at least one. Also returns their CPU times,
/// calibrated.
fn rounds(
    inp: &Inputs,
    seed: u64,
    window: Duration,
    out: &mut Outcome,
) -> (Vec<Round>, Calibrated) {
    let mut rounds = Vec::new();
    let mut cpu = Calibrated::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < window {
        let r = round(inp, seed);
        if let Err(e) = sessions::check_outcomes(&inp.plans, &r.outcomes) {
            out.check(false, || format!("round {}: {e}", rounds.len()));
        }
        out.check(r.routed == inp.events.len() as u64, || {
            format!(
                "round {}: {} events routed, {} sent",
                rounds.len(),
                r.routed,
                inp.events.len()
            )
        });
        cpu.push(r.secs);
        rounds.push(r);
    }
    let ops = rounds.iter().map(|r| r.ops).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    out.ops("submit, migrate and finish", ops, failed);
    (rounds, cpu)
}

fn round_cpu_secs(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(|r| r.secs).collect::<Vec<_>>())
}

/// CPU seconds (supervisor and workers) of spawning a cluster and
/// finishing it with no events.
fn empty_cycle(seed: u64) -> f64 {
    let cpu = Cpu::start(CpuScope::WithChildren);
    let cluster = ProcCluster::new(2, EXAMPLE1, VIEW, seed, None, 0).expect("workers spawn");
    cluster.finish().expect("an empty cluster finishes");
    cpu.secs()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let inp = inputs(args.seed);
    if args.trace {
        traced(args, &inp, &mut out);
        return out;
    }
    let mut setups = Calibrated::new();
    for _ in 0..SETUPS {
        setups.push(empty_cycle(args.seed));
    }
    let (_, round_cpu) = rounds(&inp, args.seed, args.window(), &mut out);
    let peak_rss = peak_rss_mib();
    out.metric("setup_s", setups.median_s(), "s");
    out.metric("pass_cpu_s", round_cpu.median_s(), "s");
    out.notes.push(round_cpu.note());
    out.metric("peak_rss_mib", peak_rss, "MiB");
    out.self_test(sessions::oracle_self_test());
    out
}

/// The traced run: untraced then traced rounds (tracing overhead), then
/// the supervisor's per-event work and the worker's apply repeated
/// in-process on the same stream.
fn traced(args: &Args, inp: &Inputs, out: &mut Outcome) {
    let quarter = args.window().mul_f64(0.25);
    let (plain, _) = rounds(inp, args.seed, quarter, out);
    let tracer = Traced::install();
    let (traced_rounds, _) = rounds(inp, args.seed, quarter, out);
    let ledger = tracer.finish();
    out.metric(
        "obs.trace_overhead_pct",
        (round_cpu_secs(&traced_rounds) / round_cpu_secs(&plain) - 1.0) * 100.0,
        "%",
    );
    let all: Vec<&Round> = plain.iter().chain(&traced_rounds).collect();
    let n = all.len() as f64;
    let events = ROUND_EVENTS as f64 * n;
    out.metric(
        "cluster.migration_ms",
        median(
            &all.iter()
                .flat_map(|r| r.migration_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    out.metric(
        "cluster.retries_per_event",
        all.iter().map(|r| r.retries).sum::<u64>() as f64 / events,
        "ratio",
    );
    out.metric(
        "cluster.sheds_rebalancing",
        all.iter().map(|r| r.sheds).sum::<u64>() as f64 / n,
        "count",
    );
    out.metric(
        "cluster.events_replayed",
        all.iter().map(|r| r.replayed).sum::<u64>() as f64 / n,
        "count",
    );
    let submit_batch = ledger.span("cluster.submit_batch");
    let batch_us = ratio(
        submit_batch.total_ns as f64 / 1e3,
        submit_batch.count as f64,
    );
    out.metric("cluster.submit_batch_us", batch_us, "us");
    // The supervisor's encoding of one batch: `event_to_json` per event
    // plus the framed `event-batch` document.
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        for e in &inp.events {
            std::hint::black_box(event_to_json(e));
        }
    }
    let to_json_ns = t.elapsed().as_secs_f64() * 1e9 / (reps * inp.events.len()) as f64;
    out.metric("cluster.event_to_json_ns", to_json_ns, "ns");
    let (frame_bytes, frame_us) = frames(inp);
    out.metric("cluster.frame_bytes_per_event", frame_bytes, "bytes");
    let (node_us, extract_ms, install_ms) = node_layers(inp, args.seed, args.window().mul_f64(0.2));
    out.metric("node.submit_us", node_us, "us");
    out.metric("node.extract_ms", extract_ms, "ms");
    out.metric("node.install_ms", install_ms, "ms");
    let encode_us = frame_us + to_json_ns * BATCH as f64 / 1e3;
    out.metric(
        "cluster.rpc_wait_us",
        (batch_us - encode_us - node_us).max(0.0),
        "us",
    );
    out.self_test(sessions::oracle_self_test());
}

/// Bytes per event of the `event-batch` frames the supervisor writes for
/// the stream (64-event batches), and the time to encode one such frame
/// (without `event_to_json`) in µs.
fn frames(inp: &Inputs) -> (f64, f64) {
    let mut seqs: BTreeMap<usize, u64> = BTreeMap::new();
    let docs: Vec<Json> = inp
        .events
        .chunks(BATCH)
        .map(|chunk| {
            let items: Vec<Json> = chunk
                .iter()
                .map(|e| {
                    let v = vshard(e.session());
                    let seq = seqs.entry(v).or_insert(0);
                    *seq += 1;
                    json!({"vshard": v as u64, "seq": *seq, "event": event_to_json(e)})
                })
                .collect();
            json!({"cmd": "event-batch", "epoch": 1u64, "items": Json::Array(items)})
        })
        .collect();
    let mut bytes = 0usize;
    let t = Instant::now();
    for d in &docs {
        let mut buf = Vec::new();
        write_frame(&mut buf, Framing::Binary, d).expect("encode");
        bytes += buf.len();
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / docs.len() as f64;
    (bytes as f64 / inp.events.len() as f64, us)
}

/// `NodeAgent` in-process on the same stream: µs per 64-event batch of
/// `submit`, and ms of one `extract` / `install` of the migrated vshards
/// mid-stream.
fn node_layers(inp: &Inputs, seed: u64, window: Duration) -> (f64, f64, f64) {
    let ext = parse_spec(EXAMPLE1).expect("spec parses");
    let db = Database::new(ext.ra().schema().clone());
    let spec = Arc::new(CompiledSpec::compile(ext, db, VIEW).expect("spec compiles"));
    let all: BTreeSet<usize> = (0..VSHARDS).collect();
    let moved: Vec<usize> = (0..VSHARDS).step_by(VSHARDS / MIGRATED).collect();
    let (mut submit_s, mut batches, mut extract, mut install) = (0.0, 0u64, Vec::new(), Vec::new());
    let start = Instant::now();
    while batches == 0 || start.elapsed() < window {
        let mut a = NodeAgent::new(Arc::clone(&spec), EngineConfig::default(), seed, 0);
        let mut b = NodeAgent::new(Arc::clone(&spec), EngineConfig::default(), seed, 1);
        a.reassign(1, all.clone()).expect("assign");
        b.reassign(1, BTreeSet::new()).expect("assign");
        let mut seqs: BTreeMap<usize, u64> = BTreeMap::new();
        let half = inp.events.len() / 2;
        for chunk in inp.events[..half].chunks(BATCH) {
            let _span = rega_obs::span!("node.submit");
            let t = Instant::now();
            for e in chunk {
                let v = vshard(e.session());
                let seq = seqs.entry(v).or_insert(0);
                *seq += 1;
                a.submit(1, v, *seq, e.clone()).expect("fresh apply");
            }
            submit_s += t.elapsed().as_secs_f64();
            batches += 1;
        }
        b.begin_incoming(2, &moved).expect("incoming");
        let t = Instant::now();
        let bundle = a.extract(2, &moved).expect("extract");
        extract.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        b.install(2, &bundle).expect("install");
        install.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box((a.finish(), b.finish()));
    }
    (
        submit_s * 1e6 / batches as f64,
        median(&extract),
        median(&install),
    )
}
