//! `views`: spec text → `parse_spec` → Proposition 20 / Theorem 13 /
//! Theorem 24 projection views, each input with a fresh `SatCache` (as one
//! `rega project` call has).
//!
//! Oracle (outside the timed passes, on the first pass's outputs):
//! * every Proposition 20 / Theorem 13 view's projected traces (visible
//!   values in {1, 2}, lengths 1..=3) lie between the source's: those of
//!   source prefixes that extend two more steps are in the view, and every
//!   view trace is one of a source prefix that extends one more step — a
//!   brute-force enumeration of concrete runs (`simulate` successors and a
//!   `ConstraintMonitor`), independent of the symbolic constructions;
//! * every Proposition 20 / Theorem 13 view is LR-bounded (Theorem 18);
//! * every Theorem 24 view hides the database and carries one finiteness
//!   constraint per visible register; Example 23's view at m = 1 carries
//!   tuple-inequality constraints, as the paper states;
//! * every later pass produces the same outputs as the first.

use crate::common::{
    median, peak_rss_mib, ratio, time_secs, Args, Calibrated, Cpu, CpuScope, Outcome, Traced,
};
use rega_analysis::lr::{is_lr_bounded, LrOptions};
use rega_core::enhanced::EnhancedAutomaton;
use rega_core::generate::{random_automaton, GenParams};
use rega_core::monitor::ConstraintMonitor;
use rega_core::simulate::{initial_configs, successors_cached};
use rega_core::spec::{parse_spec, to_spec};
use rega_core::transform::{complete_cached, state_driven_cached};
use rega_core::Config;
use rega_core::{paper, ExtendedAutomaton, RegisterAutomaton};
use rega_data::{Database, RegIdx, SatCache, Value};
use rega_views::thm24::Thm24Options;
use rega_views::{
    eliminate_global_equalities, lemma21, project_extended_cached, project_hiding_database_cached,
    project_register_automaton_cached,
};
use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Construction {
    Prop20,
    Thm13,
    Thm24,
}

/// One suite entry: a spec text and the projection to build from it.
#[derive(Clone, Debug)]
pub struct Input {
    pub name: String,
    pub text: String,
    pub construction: Construction,
    pub m: u16,
}

/// A construction's output, kept for the oracle.
#[derive(Clone, Debug)]
pub enum View {
    Extended {
        view: ExtendedAutomaton,
        normalized: Option<RegisterAutomaton>,
    },
    Enhanced {
        view: EnhancedAutomaton,
        normalized: RegisterAutomaton,
    },
}

impl View {
    /// Output shape compared across passes: transitions, constraints,
    /// finiteness constraints, tuple inequalities.
    pub fn shape(&self) -> [usize; 4] {
        match self {
            View::Extended { view, .. } => {
                [view.ra().num_transitions(), view.constraints().len(), 0, 0]
            }
            View::Enhanced { view, .. } => [
                view.ext().ra().num_transitions(),
                view.ext().constraints().len(),
                view.finiteness_constraints().len(),
                view.tuple_inequalities().len(),
            ],
        }
    }
}

fn schema_free(states: usize, k: u16, literals: usize) -> GenParams {
    GenParams {
        states,
        k,
        out_degree: 2,
        literals_per_type: literals,
        unary_relations: 0,
        relational_probability: 0.0,
    }
}

fn text_of(ra: RegisterAutomaton) -> String {
    to_spec(&ExtendedAutomaton::new(ra)).expect("generated automata render")
}

/// The suite for one seed. Paper examples are fixed; the random automata
/// vary states (3–6), registers (1–3), literal density (1–4) and, for
/// Theorem 24, a unary relation.
pub fn suite(seed: u64) -> Vec<Input> {
    let mut inputs = Vec::new();
    let mut push = |name: String, text: String, construction, m| {
        inputs.push(Input {
            name,
            text,
            construction,
            m,
        })
    };
    let ex1 = text_of(paper::example1().0);
    for m in 0..=2 {
        push(
            format!("example1-p20-m{m}"),
            ex1.clone(),
            Construction::Prop20,
            m,
        );
    }
    push("example1-t13-m1".into(), ex1, Construction::Thm13, 1);
    // Example 5 at m = 0 only: at m = 1 its Prop 6 elimination yields a
    // 1 521-transition view that took a third of a pass and varied by 30%
    // between runs of one commit, more than anything else in the suite.
    push(
        "example5-t13-m0".into(),
        to_spec(&paper::example5()).expect("example 5 renders"),
        Construction::Thm13,
        0,
    );
    let ex23 = text_of(paper::example23());
    for m in 0..=1 {
        push(
            format!("example23-t24-m{m}"),
            ex23.clone(),
            Construction::Thm24,
            m,
        );
    }
    let base = seed.wrapping_mul(1_000_003);
    // Proposition 20, two registers: 54 automata over literal density 1–3
    // with 3–5 states (3–4 at m = 2, where the m² Lemma 21 builds grow
    // fastest).
    for i in 0..54u64 {
        let m = [0, 1, 2, 1][(i % 4) as usize];
        let states = 3 + (i / 4 % if m == 2 { 2 } else { 3 }) as usize;
        let literals = 1 + (i / 12 % 3) as usize;
        let ra = random_automaton(&schema_free(states, 2, literals), base + i);
        push(
            format!("rand-p20-s{states}-k2-l{literals}-m{m}-{i}"),
            text_of(ra),
            Construction::Prop20,
            m,
        );
    }
    // One and three registers.
    for i in 0..4u64 {
        let ra = random_automaton(&schema_free(3 + i as usize, 1, 1), base + 100 + i);
        push(
            format!("rand-p20-s{}-k1-l1-m1-{i}", 3 + i),
            text_of(ra),
            Construction::Prop20,
            1,
        );
    }
    for i in 0..2u64 {
        let states = 2;
        let ra = random_automaton(&schema_free(states, 3, 5), base + 200 + i);
        push(
            format!("rand-p20-s{states}-k3-l5-m0-{i}"),
            text_of(ra),
            Construction::Prop20,
            0,
        );
    }
    // Theorem 13 through the extended-automaton front end.
    for i in 0..6u64 {
        let states = 3 + (i % 2) as usize;
        let ra = random_automaton(&schema_free(states, 2, 2), base + 300 + i);
        push(
            format!("rand-t13-s{states}-k2-l2-m1-{i}"),
            text_of(ra),
            Construction::Thm13,
            1,
        );
    }
    // Theorem 24: one unary relation, hidden with the database. At m = 1
    // the selector worklists of random inputs range over two orders of
    // magnitude from seed to seed; Example 23 carries that case.
    for i in 0..6u64 {
        let m = 0;
        let ra = random_automaton(
            &GenParams {
                states: 2,
                k: 2,
                out_degree: 2,
                literals_per_type: 2,
                unary_relations: 1,
                relational_probability: 0.4,
            },
            base + 400 + i,
        );
        push(
            format!("rand-t24-s2-k2-m{m}-{i}"),
            text_of(ra),
            Construction::Thm24,
            m,
        );
    }
    inputs
}

/// Parses and projects one input with a fresh cache. Returns the view and
/// the cache's statistics.
fn construct(input: &Input) -> Result<(View, rega_data::CacheStats), String> {
    let ext = {
        let _span = rega_obs::span!("spec.parse");
        parse_spec(&input.text).map_err(|e| format!("{}: {e}", input.name))?
    };
    let cache = SatCache::new(ext.ra().schema().clone());
    let err = |e: rega_core::CoreError| format!("{}: {e}", input.name);
    let view = match input.construction {
        Construction::Prop20 => {
            let p = project_register_automaton_cached(ext.ra(), input.m, &cache).map_err(err)?;
            View::Extended {
                view: p.view,
                normalized: Some(p.normalized),
            }
        }
        Construction::Thm13 => {
            let p = project_extended_cached(&ext, input.m, &cache).map_err(err)?;
            View::Extended {
                view: p.view,
                normalized: None,
            }
        }
        Construction::Thm24 => {
            let p =
                project_hiding_database_cached(ext.ra(), input.m, &Thm24Options::default(), &cache)
                    .map_err(err)?;
            View::Enhanced {
                view: p.view,
                normalized: p.normalized,
            }
        }
    };
    Ok((view, cache.stats()))
}

/// The Theorem 13 normalized automaton (Proposition 6, completion,
/// state-driven form), rebuilt outside the traced passes so Lemma 21 can be
/// timed on it.
fn thm13_normalized(input: &Input) -> RegisterAutomaton {
    let ext = parse_spec(&input.text).expect("suite parses");
    let inter = eliminate_global_equalities(&ext).expect("suite is in the Thm 13 fragment");
    let cache = SatCache::new(ext.ra().schema().clone());
    let completed = complete_cached(inter.automaton.ra(), &cache).expect("completes");
    state_driven_cached(&completed, &cache).automaton
}

/// The `m²` Lemma 21 DFA builds of a projection, as the constructions run
/// them.
fn lemma21_builds(normalized: &RegisterAutomaton, m: u16) -> usize {
    let _span = rega_obs::span!("views.lemma21");
    let mut states = 0;
    for i in 0..m {
        for j in 0..m {
            let eq = lemma21::eq_dfa(normalized, RegIdx(i), RegIdx(j)).expect("Lemma 21 builds");
            let neq = lemma21::neq_dfa(normalized, RegIdx(i), RegIdx(j)).expect("Lemma 21 builds");
            states += eq.num_states() + neq.num_states();
        }
    }
    states
}

/// Trace length the view oracle checks up to.
const ORACLE_LEN: usize = 3;

/// Projected traces (first `m` registers, first `keep` positions) of the
/// run prefixes of length `len` whose visible values lie in {1, 2}: a
/// breadth-first walk over concrete configurations and constraint-monitor
/// states, deduped per step on (configuration, monitor, trace so far).
/// Values come from {1, …, `pool`}. For a source without global
/// constraints (every source of this kind has none) one step relates 2k
/// terms, so a pool of 2k values realizes every step a larger supply would.
fn traces(
    ext: &ExtendedAutomaton,
    len: usize,
    keep: usize,
    m: usize,
    pool: usize,
) -> Result<BTreeSet<Vec<Vec<Value>>>, String> {
    type Node = (Config, ConstraintMonitor, Vec<Vec<Value>>);
    let pool: Vec<Value> = (1..=pool.max(2) as u64).map(Value).collect();
    let visible = |c: &Config| c.regs[..m].iter().all(|v| v.0 <= 2);
    let db = Database::new(ext.ra().schema().clone());
    let cache = SatCache::new(ext.ra().schema().clone());
    let project = |c: &Config| c.regs[..m].to_vec();
    // Dedup within one step only: a configuration may recur at later
    // steps with the same (already complete) trace.
    type Seen = HashSet<(Config, Vec<u8>, Vec<Vec<Value>>)>;
    let admit = |seen: &mut Seen,
                 frontier: &mut Vec<Node>,
                 c: Config,
                 mon: ConstraintMonitor,
                 tr: Vec<Vec<Value>>| {
        if seen.insert((c.clone(), mon.fingerprint(), tr.clone())) {
            frontier.push((c, mon, tr));
        }
    };
    let mut seen = Seen::new();
    let mut frontier: Vec<Node> = Vec::new();
    for c in initial_configs(ext, &pool) {
        let mut mon = ConstraintMonitor::new(ext);
        if (keep == 0 || visible(&c)) && mon.step(ext, c.state, &c.regs).is_none() {
            let tr = if keep > 0 {
                vec![project(&c)]
            } else {
                Vec::new()
            };
            admit(&mut seen, &mut frontier, c, mon, tr);
        }
    }
    for _ in 1..len {
        seen.clear();
        let mut next = Vec::new();
        for (c, mon, tr) in &frontier {
            for (_, c2) in successors_cached(ext, &db, c, &pool, &cache) {
                let mut mon2 = mon.clone();
                if mon2.step(ext, c2.state, &c2.regs).is_some() {
                    continue;
                }
                let mut tr2 = tr.clone();
                if tr2.len() < keep {
                    if !visible(&c2) {
                        continue;
                    }
                    tr2.push(project(&c2));
                }
                admit(&mut seen, &mut next, c2, mon2, tr2);
            }
        }
        if next.len() > ORACLE_MAX_FRONTIER {
            return Err(format!(
                "trace enumeration frontier exceeds {ORACLE_MAX_FRONTIER}"
            ));
        }
        frontier = next;
    }
    Ok(frontier.into_iter().map(|(_, _, tr)| tr).collect())
}

/// Bound on the oracle's per-step frontier.
const ORACLE_MAX_FRONTIER: usize = 200_000;

/// The correctness checks over one input's view.
pub fn check_view(input: &Input, view: &View) -> Result<(), String> {
    let source = parse_spec(&input.text).map_err(|e| e.to_string())?;
    match (input.construction, view) {
        (Construction::Prop20 | Construction::Thm13, View::Extended { view, .. }) => {
            // A finite prefix of the source may run into a dead end; the
            // view, whose states carry their outgoing type, drops prefixes
            // that cannot take one more step. So the view's settled traces
            // are sandwiched: every source prefix that extends two more
            // steps is in the view, and every view trace is a source trace.
            let m = input.m as usize;
            for len in 1..=ORACLE_LEN {
                let local = 2 * usize::from(source.k());
                let deep = traces(&source, len + 2, len, m, local)?;
                let settled = traces(&source, len + 1, len, m, local)?;
                // The view's Lemma 21 constraints relate distant positions:
                // give every position room for a value unlike all earlier.
                let got = traces(view, len + 1, len, m, m * (len + 1) + 1)?;
                if !deep.is_subset(&got) || !got.is_subset(&settled) {
                    return Err(format!(
                        "{}: projected traces of length {len}: {} view, {} source prefixes \
                         that extend two steps, {} that extend one",
                        input.name,
                        got.len(),
                        deep.len(),
                        settled.len()
                    ));
                }
            }
            // A view without registers is trivially LR-bounded.
            if m == 0 {
                return Ok(());
            }
            let lr = is_lr_bounded(view, &LrOptions::default()).map_err(|e| e.to_string())?;
            if !lr.bounded {
                return Err(format!("{}: view is not LR-bounded", input.name));
            }
            Ok(())
        }
        (Construction::Thm24, View::Enhanced { view, .. }) => {
            if !view.ext().ra().has_no_database() {
                return Err(format!("{}: Theorem 24 view keeps a database", input.name));
            }
            if view.finiteness_constraints().len() != input.m as usize {
                return Err(format!(
                    "{}: {} finiteness constraints, want one per visible register ({})",
                    input.name,
                    view.finiteness_constraints().len(),
                    input.m
                ));
            }
            if input.name.starts_with("example23")
                && input.m == 1
                && view.tuple_inequalities().is_empty()
            {
                return Err(format!(
                    "{}: Example 23 needs tuple inequalities",
                    input.name
                ));
            }
            Ok(())
        }
        _ => Err(format!(
            "{}: view kind does not match the construction",
            input.name
        )),
    }
}

/// Drops one transition from Example 1's Proposition 20 view (m = 1) and
/// confirms the oracle, as the runs use it, rejects the result.
pub fn oracle_self_test() -> Result<(), String> {
    let input = suite(0)
        .into_iter()
        .find(|i| i.name == "example1-p20-m1")
        .expect("example 1 is in the suite");
    let (view, _) = construct(&input)?;
    check_view(&input, &view)?;
    let View::Extended { view, normalized } = view else {
        return Err("Proposition 20 yields an extended automaton".into());
    };
    let ra = view.ra();
    let mut dropped = RegisterAutomaton::new(ra.k(), ra.schema().clone());
    for s in ra.states() {
        dropped.add_state(ra.state_name(s));
        if ra.is_initial(s) {
            dropped.set_initial(s);
        }
        if ra.is_accepting(s) {
            dropped.set_accepting(s);
        }
    }
    // Transition 0 leaves an initial state.
    for t in ra.transition_ids().skip(1) {
        let tr = ra.transition(t);
        dropped
            .add_transition(tr.from, tr.ty.clone(), tr.to)
            .map_err(|e| e.to_string())?;
    }
    let mut corrupted = ExtendedAutomaton::new(dropped);
    for c in view.constraints() {
        corrupted
            .add_lifted_constraint(c, |s| s)
            .map_err(|e| e.to_string())?;
    }
    let corrupted = View::Extended {
        view: corrupted,
        normalized,
    };
    match check_view(&input, &corrupted) {
        Ok(()) => Err("a view with a dropped transition was accepted".into()),
        Err(_) => Ok(()),
    }
}

/// One timed pass: its CPU time and output shapes (`None` for a
/// failed construction); the first pass also keeps the views.
struct Pass {
    secs: f64,
    shapes: Vec<Option<[usize; 4]>>,
    views: Vec<Result<View, String>>,
}

fn run_pass(inputs: &[Input], keep_views: bool) -> Pass {
    let start = Cpu::start(CpuScope::Thread);
    let mut shapes = Vec::with_capacity(inputs.len());
    let mut views = Vec::new();
    for input in inputs {
        let out = std::hint::black_box(construct(input));
        shapes.push(out.as_ref().ok().map(|(v, _)| v.shape()));
        if keep_views {
            views.push(out.map(|(v, _)| v));
        }
    }
    Pass {
        secs: start.secs(),
        shapes,
        views,
    }
}

fn setup(seed: u64) -> Vec<Input> {
    let inputs = suite(seed);
    for input in &inputs {
        parse_spec(&input.text).expect("generated spec texts parse");
    }
    inputs
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let inputs = setup(args.seed);
    if args.trace {
        traced(args, &inputs, &mut out);
        return out;
    }
    let mut setups = Calibrated::new();
    let mut pass_cpu = Calibrated::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < args.window() {
        // Set-up is timed before every pass, so its median samples the
        // whole window rather than the first moments of the process.
        setups.push(time_secs(|| drop(std::hint::black_box(setup(args.seed)))));
        let pass = run_pass(&inputs, passes.is_empty());
        pass_cpu.push(pass.secs);
        passes.push(pass);
    }
    // Read before the oracle, whose brute-force enumeration is not part
    // of the workload.
    let peak_rss = peak_rss_mib();
    let failed: u64 = passes
        .iter()
        .map(|p| p.shapes.iter().filter(|o| o.is_none()).count() as u64)
        .sum();
    out.ops("construction", (passes.len() * inputs.len()) as u64, failed);
    verify(&inputs, &passes, &mut out);
    out.metric("setup_s", setups.median_s(), "s");
    out.metric("pass_cpu_s", pass_cpu.median_s(), "s");
    out.notes.push(pass_cpu.note());
    out.metric("peak_rss_mib", peak_rss, "MiB");
    out.self_test(oracle_self_test());
    out
}

/// The oracle over the first pass, plus output identity across passes.
fn verify(inputs: &[Input], passes: &[Pass], out: &mut Outcome) {
    for (i, input) in inputs.iter().enumerate() {
        let view = match &passes[0].views[i] {
            Ok(view) => view,
            Err(e) => {
                out.notes.push(format!("construction failed: {e}"));
                continue;
            }
        };
        if let Err(e) = check_view(input, view) {
            out.check(false, || e);
        }
        let shape = Some(view.shape());
        for p in &passes[1..] {
            out.check(p.shapes[i].is_none() || p.shapes[i] == shape, || {
                format!("{}: output changed between passes", input.name)
            });
        }
    }
}

/// Median pass time of untraced passes run for `window` (at least one).
fn untraced_pass_secs(inputs: &[Input], window: std::time::Duration) -> f64 {
    let mut secs = Vec::new();
    let start = Instant::now();
    while secs.is_empty() || start.elapsed() < window {
        secs.push(run_pass(inputs, false).secs);
    }
    median(&secs)
}

/// The traced run: the same passes under a `MemorySink`, plus the Lemma 21
/// builds timed on each projection's normalized automaton.
fn traced(args: &Args, inputs: &[Input], out: &mut Outcome) {
    let thm13_norm: Vec<Option<RegisterAutomaton>> = inputs
        .iter()
        .map(|i| (i.construction == Construction::Thm13 && i.m > 0).then(|| thm13_normalized(i)))
        .collect();
    let plain = untraced_pass_secs(inputs, args.window().mul_f64(0.25));
    let tracer = Traced::install();
    let mut pass_secs = Vec::new();
    let mut passes = 0u64;
    let mut failed = 0u64;
    let mut lemma21_ms = [0.0f64; 3];
    let (mut hits, mut lookups) = (0u64, 0u64);
    let (mut normalized_tr, mut view_tr, mut view_cons) = (0usize, 0usize, 0usize);
    let mut first = Vec::new();
    let start = Instant::now();
    while passes == 0 || start.elapsed() < args.window().mul_f64(0.75) {
        passes += 1;
        let mut pass_s = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            let t = Cpu::start(CpuScope::Thread);
            let constructed = construct(input);
            pass_s += t.secs();
            let (view, stats) = match constructed {
                Ok(v) => v,
                Err(_) => {
                    failed += 1;
                    continue;
                }
            };
            hits += stats.hits;
            lookups += stats.hits + stats.misses;
            let shape = view.shape();
            view_tr += shape[0];
            view_cons += shape[1] + shape[2] + shape[3];
            let normalized = match &view {
                View::Extended { normalized, .. } => normalized.as_ref().or(thm13_norm[i].as_ref()),
                View::Enhanced { normalized, .. } => Some(normalized),
            };
            if let Some(n) = normalized {
                normalized_tr += n.num_transitions();
                let t = Cpu::start(CpuScope::Thread);
                std::hint::black_box(lemma21_builds(n, input.m));
                lemma21_ms[input.construction as usize] += t.secs() * 1e3;
            }
            if passes == 1 {
                first.push((input, view));
            }
        }
        pass_secs.push(pass_s);
    }
    let ledger = tracer.finish();
    // The oracle over the first traced pass, as the untraced run checks
    // its first pass.
    for (input, view) in &first {
        if let Err(e) = check_view(input, view) {
            out.check(false, || e);
        }
    }
    out.self_test(oracle_self_test());
    out.metric(
        "obs.trace_overhead_pct",
        (median(&pass_secs) / plain - 1.0) * 100.0,
        "%",
    );
    out.ops("construction", passes * inputs.len() as u64, failed);
    let per = |v: f64| v / passes as f64;
    let prop20 = ledger.span("views.prop20");
    let thm13 = ledger.span("views.thm13");
    let thm24 = ledger.span("views.thm24");
    out.metric(
        "spec.parse_ms",
        per(ledger.span("spec.parse").total_ms()),
        "ms",
    );
    out.metric(
        "transform.complete_ms",
        per(ledger.span("transform.complete").total_ms()),
        "ms",
    );
    out.metric(
        "transform.state_driven_ms",
        per(ledger.span("transform.state_driven").total_ms()),
        "ms",
    );
    out.metric("views.lemma21_ms", per(lemma21_ms.iter().sum()), "ms");
    out.metric(
        "views.restrict_ms",
        per((prop20.self_ms() - lemma21_ms[0]).max(0.0)),
        "ms",
    );
    out.metric(
        "views.thm13_ms",
        per((thm13.self_ms() - lemma21_ms[1]).max(0.0)),
        "ms",
    );
    out.metric(
        "views.thm24_ms",
        per((thm24.self_ms() - lemma21_ms[2]).max(0.0)),
        "ms",
    );
    out.metric(
        "transform.completed_transitions",
        per(ledger.event_sum("transform.completed", "transitions_out")),
        "count",
    );
    out.metric(
        "transform.normalized_transitions",
        per(normalized_tr as f64),
        "count",
    );
    out.metric("views.view_transitions", per(view_tr as f64), "count");
    out.metric("views.view_constraints", per(view_cons as f64), "count");
    out.metric(
        "satcache.hit_ratio",
        ratio(hits as f64, lookups as f64),
        "ratio",
    );
    let fast = ledger.event_sum("typebits.stats", "fast");
    let fallback = ledger.event_sum("typebits.stats", "fallback");
    out.metric("typebits.fast_ratio", ratio(fast, fast + fallback), "ratio");
}
