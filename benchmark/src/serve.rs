//! `serve`: an in-process `rega-serve` server on loopback with two tenants —
//! `a` runs Example 1 loaded with `view: 1` (sessions carry a
//! `ViewObserver`), `b` runs the all-distinct spec, whose constraint
//! monitor grows with session length.
//!
//! * Phase A, closed loop: one connection sends binary `event-batch`
//!   frames (64 events) and `open-session` requests; a round ends when both
//!   specs are closed, which drains their engines and returns every
//!   session's verdict.
//! * Phase B, open loop: a sender thread writes JSONL `event` requests on a
//!   fixed schedule (with a 0.5% share of `snapshot`/`stats` reads) and a
//!   receiver thread reads the responses; each request is timed from the
//!   moment it was due.
//!
//! Oracle: every session's final status and event count equal what the
//! generator planted, and the reports account for every event sent.

use crate::common::{
    median, peak_rss_mib, quantile, ratio, windowed_quantile, Args, Calibrated, Cpu, CpuScope,
    Outcome, Traced,
};
use crate::sessions::{self, Item, Plan, Spec, ALL_DISTINCT, EXAMPLE1};
use rega_core::spec::parse_spec;
use rega_data::{Database, Value};
use rega_serve::proto::{event_line, parse_request, read_frame, write_frame, Framing};
use rega_serve::{Server, ServerConfig, TenantQuotas, TenantRegistry};
use rega_stream::{parse_event_checked, CompiledSpec, EngineConfig, Session};
use serde_json::{json, Value as Json};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Events in one phase A round.
const ROUND_EVENTS: usize = 5_000;
/// Sessions open at once.
const ACTIVE: usize = 32;
const BOTH: [Spec; 2] = [Spec::Example1, Spec::AllDistinct];
/// Requests that end a round: a `snapshot` and a `close` per tenant, then
/// a `load-spec` per tenant.
const ROUND_CLOSE_REQUESTS: usize = 6;
/// Events per `event-batch` frame.
const BATCH: usize = 64;
/// Phase B request rate (requests per second) and event count.
const RATE: f64 = 1_000.0;
const PHASE_B_EVENTS: usize = 10_000;
/// Every `READ_EVERY`-th phase B request is a read.
const READ_EVERY: usize = 200;

fn tenant_of(spec: Spec) -> (&'static str, &'static str) {
    match spec {
        Spec::Example1 => ("a", "ex1"),
        Spec::AllDistinct => ("b", "ad"),
    }
}

fn engine_config() -> EngineConfig {
    // Two cores: one worker thread per spec engine.
    EngineConfig {
        shards: 2,
        workers: 1,
        ..EngineConfig::default()
    }
}

/// A client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone stream");
        Conn {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn call(&mut self, framing: Framing, doc: &Json) -> Json {
        write_frame(&mut self.writer, framing, doc).expect("write frame");
        read_frame(&mut self.reader)
            .expect("read frame")
            .expect("server closed the connection")
            .1
    }
}

/// A running server with both tenants loaded.
struct Running {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Json>,
    conn: Conn,
}

impl Running {
    /// Binds and loads both tenants. Returns the server and the set-up
    /// time: the process's CPU time from the bind to the end of the
    /// `hello` and `load-spec` round trips (the accept loop's 100 ms poll
    /// for the new connection costs no CPU).
    fn start() -> (Running, f64) {
        let config = ServerConfig {
            engine: engine_config(),
            quotas: TenantQuotas {
                max_sessions: 100_000,
                ..TenantQuotas::default()
            },
            ..ServerConfig::default()
        };
        let cpu = Cpu::start(CpuScope::Process);
        let server = Server::bind(config).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || server.run(flag));
        let mut conn = Conn::connect(addr);
        expect_ok(&conn.call(Framing::Binary, &json!({"cmd": "health"})));
        for (tenant, name, text, view) in [
            ("a", "ex1", EXAMPLE1, Some(1u16)),
            ("b", "ad", ALL_DISTINCT, None),
        ] {
            expect_ok(&conn.call(Framing::Binary, &json!({"cmd": "hello", "tenant": tenant})));
            load(&mut conn, tenant, name, text, view);
        }
        let secs = cpu.secs();
        let running = Running {
            addr,
            shutdown,
            thread,
            conn,
        };
        (running, secs)
    }

    fn stop(self) -> Json {
        drop(self.conn);
        self.shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.thread.join().expect("server thread")
    }
}

fn load(conn: &mut Conn, tenant: &str, name: &str, text: &str, view: Option<u16>) {
    let mut doc = json!({"cmd": "load-spec", "tenant": tenant, "name": name, "spec": text});
    if let (Some(m), Json::Object(map)) = (view, &mut doc) {
        map.insert("view".into(), json!(u64::from(m)));
    }
    expect_ok(&conn.call(Framing::Binary, &doc));
}

fn expect_ok(response: &Json) {
    assert_eq!(
        response["ok"],
        json!(true),
        "request failed: {}",
        serde_json::to_string(response).unwrap_or_default()
    );
}

/// Requests of one phase A round, in send order.
fn round_requests(plans: &[Plan], items: &[Item]) -> Vec<Json> {
    let mut out = Vec::new();
    let mut pending: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    let flush = |out: &mut Vec<Json>, spec: Spec, events: &mut Vec<Json>| {
        if !events.is_empty() {
            let (tenant, name) = tenant_of(spec);
            out.push(json!({"cmd": "event-batch", "tenant": tenant, "spec": name,
                            "events": Json::Array(std::mem::take(events))}));
        }
    };
    for item in items {
        match *item {
            Item::Open(s) => {
                let (tenant, name) = tenant_of(plans[s].spec);
                out.push(
                    json!({"cmd": "open-session", "tenant": tenant, "spec": name,
                                "session": plans[s].name.as_str()}),
                );
            }
            Item::Event(s, i) => {
                let spec = plans[s].spec;
                let slot = &mut pending[spec as usize];
                slot.push(plans[s].event_json(i));
                if slot.len() == BATCH {
                    flush(&mut out, spec, slot);
                }
            }
        }
    }
    for spec in [Spec::Example1, Spec::AllDistinct] {
        flush(&mut out, spec, &mut pending[spec as usize]);
    }
    out
}

/// Requests of phase B, in send order: `(is_read, request)`.
fn phase_b_requests(plans: &[Plan], items: &[Item]) -> Vec<(bool, Json)> {
    let mut out = Vec::new();
    for item in items {
        if out.len() % READ_EVERY == READ_EVERY - 1 {
            let read = if (out.len() / READ_EVERY).is_multiple_of(2) {
                json!({"cmd": "snapshot", "tenant": "a"})
            } else {
                json!({"cmd": "stats"})
            };
            out.push((true, read));
        }
        let req = match *item {
            Item::Open(s) => {
                let (tenant, name) = tenant_of(plans[s].spec);
                json!({"cmd": "open-session", "tenant": tenant, "spec": name,
                       "session": plans[s].name.as_str()})
            }
            Item::Event(s, i) => {
                let (tenant, name) = tenant_of(plans[s].spec);
                json!({"cmd": "event", "tenant": tenant, "spec": name,
                       "event": plans[s].event_json(i)})
            }
        };
        out.push((false, req));
    }
    out
}

/// Closes both specs, returning every `(session, status, events)` outcome
/// and the engines' queue-depth peak.
fn close_specs(conn: &mut Conn, queue_peak: &mut u64) -> Vec<(String, String, u64)> {
    for tenant in ["a", "b"] {
        let r = conn.call(
            Framing::Binary,
            &json!({"cmd": "snapshot", "tenant": tenant}),
        );
        for spec in r["snapshot"]["specs"].as_array().into_iter().flatten() {
            for q in spec["engine"]["queues"].as_array().into_iter().flatten() {
                *queue_peak = (*queue_peak).max(q["peak"].as_u64().unwrap_or(0));
            }
        }
    }
    let mut outcomes = Vec::new();
    for spec in [Spec::Example1, Spec::AllDistinct] {
        let (tenant, name) = tenant_of(spec);
        let r = conn.call(
            Framing::Binary,
            &json!({"cmd": "close", "tenant": tenant, "spec": name}),
        );
        expect_ok(&r);
        for o in r["report"]["outcomes"].as_array().into_iter().flatten() {
            outcomes.push((
                o["session"].as_str().unwrap_or("").to_string(),
                o["status"].as_str().unwrap_or("").to_string(),
                o["events"].as_u64().unwrap_or(0),
            ));
        }
    }
    outcomes
}

fn reload(conn: &mut Conn) {
    load(conn, "a", "ex1", EXAMPLE1, Some(1));
    load(conn, "b", "ad", ALL_DISTINCT, None);
}

/// One phase A round's measurements.
struct Round {
    /// CPU seconds of the whole process (server threads and the client).
    secs: f64,
    outcomes: Vec<(String, String, u64)>,
    failed: u64,
}

fn phase_a_round(conn: &mut Conn, requests: &[Json], queue_peak: &mut u64) -> Round {
    let cpu = Cpu::start(CpuScope::Process);
    let mut failed = 0;
    for req in requests {
        let r = conn.call(Framing::Binary, req);
        if r["ok"] != json!(true) {
            failed += 1;
        }
    }
    let outcomes = close_specs(conn, queue_peak);
    let secs = cpu.secs();
    reload(conn);
    Round {
        secs,
        outcomes,
        failed,
    }
}

/// Sets this thread's timer slack to 1 ns, so its sleeps end on time.
fn set_min_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument, changes only
    // the calling thread's timer slack and touches no memory of ours.
    let ok = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) } == 0;
    assert!(ok, "prctl(PR_SET_TIMERSLACK) failed");
}

/// Phase B measurements.
struct OpenLoop {
    event_us: Vec<f64>,
    read_us: Vec<f64>,
    late_us: Vec<f64>,
    outcomes: Vec<(String, String, u64)>,
    failed: u64,
}

fn phase_b(
    addr: std::net::SocketAddr,
    requests: &[(bool, Json)],
    queue_peak: &mut u64,
) -> OpenLoop {
    let mut conn = Conn::connect(addr);
    // Wait until the server has accepted the connection, so the schedule
    // does not start inside the accept loop's poll interval.
    expect_ok(&conn.call(Framing::Jsonl, &json!({"cmd": "health"})));
    let Conn { reader, writer } = conn;
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|(_, r)| {
            let mut buf = Vec::new();
            write_frame(&mut buf, Framing::Jsonl, r).expect("encode");
            buf
        })
        .collect();
    let n = frames.len();
    let period = Duration::from_secs_f64(1.0 / RATE);
    let t0 = Instant::now() + Duration::from_millis(5);
    let receiver = std::thread::spawn(move || {
        let mut reader = reader;
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            let (_, doc) = read_frame(&mut reader).expect("read").expect("response");
            got.push((Instant::now(), doc["ok"] == json!(true)));
        }
        (reader, got)
    });
    let mut writer = writer;
    // Sleeps of a normal thread may overrun by its timer slack (50 us by
    // default), and the latency is timed from the due time: without this
    // the median would mostly measure the generator's slack.
    set_min_timer_slack();
    let mut late_us = Vec::with_capacity(n);
    for (i, frame) in frames.iter().enumerate() {
        let due = t0 + period * i as u32;
        // Sleep, never spin: on two cores a spinning generator would
        // take a core from the server it measures.
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
        use std::io::Write;
        writer.write_all(frame).expect("send");
    }
    let (reader, got) = receiver.join().expect("receiver thread");
    let mut event_us = Vec::new();
    let mut read_us = Vec::new();
    let mut failed = 0;
    for (i, (at, ok)) in got.iter().enumerate() {
        let due = t0 + period * i as u32;
        let us = at.saturating_duration_since(due).as_secs_f64() * 1e6;
        if requests[i].0 {
            read_us.push(us);
        } else {
            event_us.push(us);
        }
        if !ok {
            failed += 1;
        }
    }
    let mut conn = Conn { reader, writer };
    let outcomes = close_specs(&mut conn, queue_peak);
    reload(&mut conn);
    OpenLoop {
        event_us,
        read_us,
        late_us,
        outcomes,
        failed,
    }
}

/// The generated inputs of one run.
struct Inputs {
    round_plans: Vec<Plan>,
    round_requests: Vec<Json>,
    b_plans: Vec<Plan>,
    b_requests: Vec<(bool, Json)>,
}

fn inputs(seed: u64) -> Inputs {
    let (round_plans, items) = sessions::stream(seed, "a", ROUND_EVENTS, ACTIVE, &BOTH);
    let round_requests = round_requests(&round_plans, &items);
    let (b_plans, b_items) = sessions::stream(seed ^ 0xb, "b", PHASE_B_EVENTS, ACTIVE, &BOTH);
    let b_requests = phase_b_requests(&b_plans, &b_items);
    Inputs {
        round_plans,
        round_requests,
        b_plans,
        b_requests,
    }
}

/// Phase A rounds for `window`; at least one. Also returns the rounds'
/// CPU times, calibrated.
fn phase_a(
    conn: &mut Conn,
    inp: &Inputs,
    window: Duration,
    queue_peak: &mut u64,
    out: &mut Outcome,
) -> (Vec<Round>, Calibrated) {
    let mut rounds = Vec::new();
    let mut cpu = Calibrated::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < window {
        let round = phase_a_round(conn, &inp.round_requests, queue_peak);
        if let Err(e) = sessions::check_outcomes(&inp.round_plans, &round.outcomes) {
            out.check(false, || format!("phase A: {e}"));
        }
        cpu.push(round.secs);
        rounds.push(round);
    }
    (rounds, cpu)
}

fn round_cpu_secs(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(|r| r.secs).collect::<Vec<_>>())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let inp = inputs(args.seed);
    // Set-up: bind, connect, two hellos and two `load-spec` compilations
    // (Example 1's view is built here), fifteen times; the last server
    // serves, the others are drained and stopped untimed.
    let mut setups = Calibrated::new();
    let mut running = None;
    for _ in 0..15 {
        if let Some(r) = running.take() {
            Running::stop(r);
        }
        let (r, secs) = Running::start();
        running = Some(r);
        setups.push(secs);
    }
    let setup_s = setups.median_s();
    let mut running = running.expect("a server was started");
    let mut queue_peak = 0u64;
    let phase_a_window = args.window().mul_f64(0.35);
    if args.trace {
        traced(args, &inp, &mut running, &mut out);
        running.stop();
        return out;
    }
    let (rounds, round_cpu) = phase_a(
        &mut running.conn,
        &inp,
        phase_a_window,
        &mut queue_peak,
        &mut out,
    );
    let b = phase_b(running.addr, &inp.b_requests, &mut queue_peak);
    if let Err(e) = sessions::check_outcomes(&inp.b_plans, &b.outcomes) {
        out.check(false, || format!("phase B: {e}"));
    }
    let peak_rss = peak_rss_mib();
    running.stop();
    let a_requests = (rounds.len() * (inp.round_requests.len() + ROUND_CLOSE_REQUESTS)) as u64;
    let a_failed: u64 = rounds.iter().map(|r| r.failed).sum();
    out.ops("phase A request", a_requests, a_failed);
    out.ops(
        "phase B request",
        (inp.b_requests.len() + ROUND_CLOSE_REQUESTS) as u64,
        b.failed,
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("pass_cpu_s", round_cpu.median_s(), "s");
    out.notes.push(round_cpu.note());
    out.metric("peak_rss_mib", peak_rss, "MiB");
    out.self_test(sessions::oracle_self_test());
    // Wall-clock latencies go to standard error only: on a shared host
    // they moved past any bound between runs of the same code.
    out.notes.push(format!(
        "phase B: event p50 {:.1} us, p90 {:.1} us (median of half-second windows); \
         {} reads, read p50 {:.1} us; generator late p99 {:.1} us",
        windowed_quantile(&b.event_us, RATE as usize / 2, 0.5),
        windowed_quantile(&b.event_us, RATE as usize / 2, 0.9),
        b.read_us.len(),
        quantile(&b.read_us, 0.5),
        quantile(&b.late_us, 0.99)
    ));
    out
}

/// The traced run: untraced then traced phase A rounds (for the tracing
/// overhead), a traced phase B, then the layer calls repeated in-process
/// on the same requests under the benchmark's own spans.
fn traced(args: &Args, inp: &Inputs, running: &mut Running, out: &mut Outcome) {
    let quarter = args.window().mul_f64(0.25);
    let mut queue_peak = 0u64;
    let (plain, _) = phase_a(&mut running.conn, inp, quarter, &mut queue_peak, out);
    let tracer = Traced::install();
    let (rounds, _) = phase_a(&mut running.conn, inp, quarter, &mut queue_peak, out);
    let b = phase_b(running.addr, &inp.b_requests, &mut queue_peak);
    let ledger = tracer.finish();
    if let Err(e) = sessions::check_outcomes(&inp.b_plans, &b.outcomes) {
        out.check(false, || format!("phase B: {e}"));
    }
    let requests = ((plain.len() + rounds.len() + 1) * ROUND_CLOSE_REQUESTS
        + (plain.len() + rounds.len()) * inp.round_requests.len()
        + inp.b_requests.len()) as u64;
    let failed = plain.iter().chain(&rounds).map(|r| r.failed).sum::<u64>() + b.failed;
    out.ops("request", requests, failed);
    out.metric(
        "obs.trace_overhead_pct",
        (round_cpu_secs(&rounds) / round_cpu_secs(&plain) - 1.0) * 100.0,
        "%",
    );
    out.metric("loadgen.late_p99_us", quantile(&b.late_us, 0.99), "us");
    out.metric("serve.read_p50_us", quantile(&b.read_us, 0.5), "us");
    out.metric("stream.queue_depth_peak", queue_peak as f64, "count");
    let request = ledger.span("serve.request");
    out.metric(
        "serve.request_us",
        ratio(request.self_ns as f64 / 1e3, request.count as f64),
        "us",
    );
    let batch = ledger.span("stream.shard_batch");
    out.metric(
        "stream.shard_batch_us",
        ratio(batch.self_ns as f64 / 1e3, batch.count as f64),
        "us",
    );
    layers(inp, args.window().mul_f64(0.15), out);
    out.self_test(sessions::oracle_self_test());
}

/// Repeats the per-request and per-event layer calls in-process on the
/// round's own requests: frame decode, request parsing, response encoding,
/// event parsing, tenant ingest and the session step.
fn layers(inp: &Inputs, window: Duration, out: &mut Outcome) {
    let frames: Vec<Vec<u8>> = inp
        .round_requests
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            write_frame(&mut buf, Framing::Binary, r).expect("encode");
            buf
        })
        .collect();
    let events: Vec<(Spec, Json)> = inp
        .round_requests
        .iter()
        .filter(|r| r["cmd"] == json!("event-batch"))
        .flat_map(|r| {
            let spec = if r["tenant"] == json!("a") {
                Spec::Example1
            } else {
                Spec::AllDistinct
            };
            r["events"]
                .as_array()
                .cloned()
                .unwrap_or_default()
                .into_iter()
                .map(move |e| (spec, e))
        })
        .collect();
    let start = Instant::now();
    let mut reps = 0u64;
    let (mut decode, mut parse, mut encode, mut ev_parse, mut ingest, mut step) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    while reps == 0 || start.elapsed() < window {
        reps += 1;
        let t = Instant::now();
        let docs: Vec<Json> = {
            let _span = rega_obs::span!("proto.decode");
            frames
                .iter()
                .map(|f| read_frame(&mut &f[..]).expect("decode").expect("frame").1)
                .collect()
        };
        decode += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for d in &docs {
            std::hint::black_box(parse_request(d).expect("valid request"));
        }
        parse += t.elapsed().as_secs_f64();
        let response = json!({"ok": true, "cmd": "event-batch", "accepted": BATCH, "req": "srv-1"});
        let t = Instant::now();
        for _ in &docs {
            let mut buf = Vec::with_capacity(128);
            write_frame(&mut buf, Framing::Binary, &response).expect("encode");
            std::hint::black_box(buf);
        }
        encode += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for (spec, e) in &events {
            let regs = if *spec == Spec::Example1 { 2 } else { 1 };
            let line = event_line(e).expect("event object");
            std::hint::black_box(parse_event_checked(&line, regs).expect("valid event"));
        }
        ev_parse += t.elapsed().as_secs_f64();
        ingest += ingest_pass(inp);
        step += step_pass(inp);
    }
    let reps = reps as f64;
    let n_frames = frames.len() as f64 * reps;
    let n_events = events.len() as f64 * reps;
    out.metric("proto.decode_us", decode * 1e6 / n_frames, "us");
    out.metric("proto.parse_request_us", parse * 1e6 / n_frames, "us");
    out.metric("proto.encode_us", encode * 1e6 / n_frames, "us");
    out.metric("event.parse_us", ev_parse * 1e6 / n_events, "us");
    out.metric("tenant.ingest_us", ingest * 1e6 / n_events, "us");
    out.metric("session.step_ns", step * 1e9 / n_events, "ns");
}

/// `TenantRegistry::ingest` on the round's batches (engine drain not
/// timed). Returns the seconds spent in `ingest`.
fn ingest_pass(inp: &Inputs) -> f64 {
    let reg = TenantRegistry::new(
        4,
        TenantQuotas {
            max_sessions: 100_000,
            ..TenantQuotas::default()
        },
        rega_data::BudgetSpec::none(),
        engine_config(),
        Arc::new(rega_obs::Registry::new()),
    );
    for (tenant, name, text, view) in [
        ("a", "ex1", EXAMPLE1, Some(1u16)),
        ("b", "ad", ALL_DISTINCT, None),
    ] {
        reg.hello(tenant).expect("tenant admitted");
        reg.load_spec(tenant, name, text, view)
            .expect("spec compiles");
    }
    let mut secs = 0.0;
    for req in &inp.round_requests {
        let tenant = req["tenant"].as_str().expect("tenant");
        let spec = req["spec"].as_str().expect("spec");
        if req["cmd"] == json!("open-session") {
            reg.open_session(tenant, spec, req["session"].as_str().expect("session"))
                .expect("session admitted");
        } else {
            let events = req["events"].as_array().expect("events");
            let _span = rega_obs::span!("tenant.ingest");
            let t = Instant::now();
            reg.ingest(tenant, spec, events).expect("events accepted");
            secs += t.elapsed().as_secs_f64();
        }
    }
    reg.start_draining();
    std::hint::black_box(reg.drain_all());
    secs
}

/// `Session::step` for every event of the round, per spec. Returns seconds.
fn step_pass(inp: &Inputs) -> f64 {
    let compile = |text: &str, view: Option<u16>| {
        let ext = parse_spec(text).expect("spec parses");
        let db = Database::new(ext.ra().schema().clone());
        CompiledSpec::compile(ext, db, view).expect("spec compiles")
    };
    let specs = [compile(EXAMPLE1, Some(1)), compile(ALL_DISTINCT, None)];
    let _span = rega_obs::span!("session.step");
    let t = Instant::now();
    for plan in &inp.round_plans {
        let spec = &specs[plan.spec as usize];
        let mut session = Session::new(spec, engine_config().max_view_frontier);
        for s in &plan.steps {
            match s {
                sessions::Step::Step { state, regs } => {
                    let regs: Vec<Value> = regs.iter().map(|&v| Value(v)).collect();
                    std::hint::black_box(session.step(spec, state, &regs));
                }
                sessions::Step::End => {
                    std::hint::black_box(session.end());
                }
            }
        }
    }
    t.elapsed().as_secs_f64()
}
