//! Shared plumbing: run arguments, the result line, statistics, peak
//! memory, and the traced-run ledger (a `MemorySink` folded through
//! `rega_obs::report::summarize`).

use rega_obs::report::{summarize, SpanNode, TraceSummary};
use rega_obs::{FieldValue, MemorySink, SinkGuard, TraceEvent, TraceEventKind};
use serde_json::{json, Value as Json};
use std::collections::BTreeMap;
use std::time::Duration;

/// The command line every workload receives.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What one run reports: whether every check passed, how many operations
/// were attempted and failed, and the metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Human-readable lines for stderr: failed checks and per-kind counts.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// Records a failed correctness check: the run stays whole but
    /// reports `correct: false` and exits non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Records the result of an oracle self-test: a corrupted output the
    /// oracle failed to reject makes the run incorrect.
    pub fn self_test(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self
                .notes
                .push("oracle self-test: corrupted output rejected".into()),
            Err(e) => self.check(false, || format!("oracle self-test: {e}")),
        }
    }

    /// Counts `attempted` operations of one kind, `failed` of which failed.
    pub fn ops(&mut self, kind: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.notes.push(format!(
            "ops {kind}: attempted {attempted}, failed {failed}"
        ));
    }

    pub fn to_json(&self) -> Json {
        let mut metrics = BTreeMap::new();
        for (name, (value, unit)) in &self.metrics {
            metrics.insert(
                name.clone(),
                json!({"value": *value, "unit": unit.as_str()}),
            );
        }
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Json::Object(metrics),
        })
    }
}

/// Median of a sample (the mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median, over consecutive windows of `width` samples, of each window's
/// quantile `q`. A tail taken this way is that of a typical stretch of the
/// run, not of the few seconds in which a shared host ran slow.
pub fn windowed_quantile(values: &[f64], width: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = values.chunks(width).map(|w| quantile(w, q)).collect();
    median(&per_window)
}

/// Whose CPU time a [`Cpu`] clock counts.
#[derive(Clone, Copy, Debug)]
pub enum CpuScope {
    /// The calling thread.
    Thread,
    /// Every thread of this process.
    Process,
    /// Every thread of this process plus every child process that has
    /// ended and been waited for.
    WithChildren,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: the two times, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_CHILDREN: i32 = -1;

fn clock_secs(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn children_secs() -> f64 {
    let tv = || Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut ru = Rusage {
        utime: tv(),
        stime: tv(),
        _rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN)");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// CPU seconds consumed so far in `scope`.
pub fn cpu_now(scope: CpuScope) -> f64 {
    match scope {
        CpuScope::Thread => clock_secs(CLOCK_THREAD_CPUTIME_ID),
        CpuScope::Process => clock_secs(CLOCK_PROCESS_CPUTIME_ID),
        CpuScope::WithChildren => clock_secs(CLOCK_PROCESS_CPUTIME_ID) + children_secs(),
    }
}

/// A running CPU-time clock. Every timed metric of the benchmark is CPU
/// time, not wall time: on a shared host the wall time of the same work
/// moved by 2× and more between runs, as other tenants took the cores,
/// while the CPU time the work itself consumed did not.
#[derive(Clone, Copy, Debug)]
pub struct Cpu {
    scope: CpuScope,
    start: f64,
}

impl Cpu {
    pub fn start(scope: CpuScope) -> Cpu {
        Cpu {
            scope,
            start: cpu_now(scope),
        }
    }

    /// CPU seconds since [`Cpu::start`].
    pub fn secs(&self) -> f64 {
        cpu_now(self.scope) - self.start
    }
}

/// The kernel time calibrated samples are scaled to: they read as CPU
/// seconds on a host where [`calibrate`] takes 10 ms (two vCPUs of a
/// shared Intel Xeon host took 14–16 ms in a busy period). See
/// [`Calibrated`].
const CAL_REF_S: f64 = 0.010;

/// A fixed computation shaped like the program's own work (hashing into
/// a map, sorting, allocation), in well under 1 MiB so it does not raise `peak_rss_mib`. Returns
/// its CPU time on this thread.
pub fn calibrate() -> f64 {
    let cpu = Cpu::start(CpuScope::Thread);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map: std::collections::HashMap<u64, u64> = Default::default();
    let mut acc = 0u64;
    for i in 0..300_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 16_384).or_default() += i;
        if i % 256 == 0 {
            let mut keys: Vec<u64> = map.keys().copied().take(256).collect();
            keys.sort_unstable();
            acc = acc.wrapping_add(keys[0]);
        }
    }
    std::hint::black_box((acc, map.len()));
    cpu.secs()
}

/// CPU-time samples, each taken between two runs of [`calibrate`]. The
/// CPU time of the same work moved by 2.5× between quiet and busy periods
/// of a shared host (other tenants on the same physical cores), and the
/// calibration kernel moved with it; so each sample is divided by the
/// mean of the kernel's times just before and just after it and
/// multiplied by `CAL_REF_S`.
#[derive(Debug)]
pub struct Calibrated {
    cal: Vec<f64>,
    samples: Vec<f64>,
}

impl Calibrated {
    /// Starts with one calibration run.
    pub fn new() -> Calibrated {
        Calibrated {
            cal: vec![calibrate()],
            samples: Vec::new(),
        }
    }

    /// Adds a CPU-time sample taken since the last calibration run, then
    /// runs the kernel again.
    pub fn push(&mut self, secs: f64) {
        self.samples.push(secs);
        self.cal.push(calibrate());
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// A line for standard error: the kernel's median CPU time here.
    pub fn note(&self) -> String {
        format!(
            "calibration kernel: median {:.2} ms CPU (reference {:.2} ms); \
             uncalibrated median {:.4} s",
            median(&self.cal) * 1e3,
            CAL_REF_S * 1e3,
            median(&self.samples)
        )
    }

    /// Median of the calibrated samples, in seconds.
    pub fn median_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .samples
            .iter()
            .enumerate()
            .map(|(i, s)| s / ((self.cal[i] + self.cal[i + 1]) / 2.0) * CAL_REF_S)
            .collect();
        median(&scaled)
    }
}

/// CPU time of one call of `f` on this thread, in seconds.
pub fn time_secs(f: impl FnOnce()) -> f64 {
    let cpu = Cpu::start(CpuScope::Thread);
    f();
    cpu.secs()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// An installed in-memory trace sink. Dropping it uninstalls the sink.
pub struct Traced {
    sink: MemorySink,
    _guard: SinkGuard,
}

impl Traced {
    pub fn install() -> Traced {
        let (sink, guard) = rega_obs::install_memory();
        Traced {
            sink,
            _guard: guard,
        }
    }

    /// Stops tracing and folds what was recorded.
    pub fn finish(self) -> Ledger {
        let events = self.sink.events();
        drop(self._guard);
        Ledger::new(events)
    }
}

/// The folded trace: the `trace-report` span tree plus the raw events
/// (their numeric fields are summed, where the report keeps only the
/// latest value).
pub struct Ledger {
    pub summary: TraceSummary,
    pub events: Vec<TraceEvent>,
}

/// Count, total and self time (total minus time covered by child spans)
/// of every span with one name, wherever it sits in the tree.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

impl Ledger {
    fn new(events: Vec<TraceEvent>) -> Ledger {
        let mut text = String::new();
        for e in &events {
            e.write_jsonl(&mut text);
            text.push('\n');
        }
        let summary = summarize(&text).expect("the tracer writes well-formed JSONL");
        Ledger { summary, events }
    }

    /// Aggregates all spans named `name` (outermost occurrences only, so
    /// a recursive span is not counted twice).
    pub fn span(&self, name: &str) -> SpanTotals {
        fn walk(node: &SpanNode, name: &str, acc: &mut SpanTotals) {
            for (child_name, child) in &node.children {
                if child_name == name {
                    let covered: u64 = child.children.values().map(|c| c.total_ns).sum();
                    acc.count += child.count;
                    acc.total_ns += child.total_ns;
                    acc.self_ns += child.total_ns.saturating_sub(covered);
                } else {
                    walk(child, name, acc);
                }
            }
        }
        let mut acc = SpanTotals::default();
        walk(&self.summary.tree, name, &mut acc);
        acc
    }

    /// Sum of a numeric field over every event named `event`.
    pub fn event_sum(&self, event: &str, field: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Event && e.name == event)
            .filter_map(|e| e.fields.iter().find(|(k, _)| *k == field))
            .map(|(_, v)| match v {
                FieldValue::U64(n) => *n as f64,
                FieldValue::I64(n) => *n as f64,
                FieldValue::F64(n) => *n,
                FieldValue::Bool(b) => f64::from(u8::from(*b)),
                FieldValue::Str(_) => 0.0,
            })
            .sum()
    }

    /// Number of events named `event`.
    pub fn event_count(&self, event: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Event && e.name == event)
            .count() as u64
    }
}

/// Ratio that reads 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
