//! `decide`: extended automata → Corollary 10 emptiness (with witness), the
//! chase (`universal_witness_database`), Theorem 18 LR-boundedness and
//! Theorem 12 LTL-FO verification.
//!
//! Oracle: every non-empty verdict's witness passes the run checkers
//! (`check_finite_prefix`, `check_lasso_run`) over its own database; every
//! chase witness passes them over the universal database; every verdict
//! matches the answer known by construction or from the paper.

use crate::common::{
    median, peak_rss_mib, ratio, time_secs, Args, Calibrated, Cpu, CpuScope, Outcome, Traced,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_analysis::chase::universal_witness_database_governed;
use rega_analysis::emptiness::{check_emptiness_cached, EmptinessOptions, EmptinessVerdict};
use rega_analysis::lr::{is_lr_bounded, LrOptions};
use rega_analysis::verify::{verify, VerifyOptions};
use rega_automata::Regex;
use rega_core::extended::ConstraintKind;
use rega_core::generate::{random_automaton, GenParams};
use rega_core::spec::{parse_spec, to_spec};
use rega_core::{paper, Budget, ExtendedAutomaton, RegisterAutomaton, StateId};
use rega_data::{Literal, Qf, QfTerm, RegIdx, SatCache, Schema, SigmaType, Term, Value};
use rega_logic::LtlFo;
use std::time::Instant;

/// What one input asks of the program, with the answer known in advance.
#[derive(Clone, Debug)]
pub enum Task {
    /// Emptiness with witness; `true` = non-empty.
    Emptiness(bool),
    /// The universal witness database (every input here is non-empty).
    Chase,
    /// LR-boundedness; `true` = bounded.
    Lr(bool),
    /// LTL-FO verification of `G (x_r = y_r)`; `true` = holds.
    Verify { register: u16, holds: bool },
}

#[derive(Clone, Debug)]
pub struct Input {
    pub name: String,
    pub text: String,
    pub task: Task,
}

/// The result of one task, kept for the oracle.
pub enum Answer {
    Emptiness(EmptinessVerdict),
    Chase(rega_analysis::chase::UniversalWitness),
    Lr(bool),
    Verify(bool),
}

impl Answer {
    /// The verdict as a bool, in the sense of [`Task`].
    pub fn verdict(&self) -> bool {
        match self {
            Answer::Emptiness(v) => v.is_nonempty(),
            Answer::Chase(u) => !u.witnesses.is_empty(),
            Answer::Lr(b) | Answer::Verify(b) => *b,
        }
    }
}

fn relational(states: usize, out_degree: usize) -> GenParams {
    GenParams {
        states,
        k: 2,
        out_degree,
        literals_per_type: 2,
        unary_relations: 1,
        relational_probability: 0.4,
    }
}

/// Random global constraints `a b* c` over the first `n` states (the shape
/// `generate::random_extended` draws).
fn add_random_constraints(ext: &mut ExtendedAutomaton, n: usize, count: usize, rng: &mut StdRng) {
    let k = ext.k();
    let mut added = 0;
    while added < count {
        let kind = if rng.gen_bool(0.5) {
            ConstraintKind::Equal
        } else {
            ConstraintKind::NotEqual
        };
        let i = RegIdx(rng.gen_range(0..k));
        let j = RegIdx(rng.gen_range(0..k));
        let [a, b, c] = [0; 3].map(|_| StateId(rng.gen_range(0..n) as u32));
        if kind == ConstraintKind::NotEqual && a == c && i == j {
            continue; // a one-position self-inequality is unsatisfiable
        }
        let regex = Regex::Concat(vec![
            Regex::Sym(a),
            Regex::Star(Box::new(Regex::Sym(b))),
            Regex::Sym(c),
        ]);
        ext.add_constraint(kind, i, j, regex)
            .expect("states in range");
        added += 1;
    }
}

/// A random automaton with a run planted in it: from the initial state a
/// transition leaves for two fresh states `p0` (accepting) and `p1` that
/// cycle with every register kept. The random global constraints mention
/// only the original states, and no factor of the planted run past its
/// first position does, so the run satisfies them: non-empty.
pub fn planted(
    states: usize,
    out_degree: usize,
    constraints: usize,
    seed: u64,
) -> ExtendedAutomaton {
    let random = random_automaton(&relational(states, out_degree), seed);
    let mut ra = RegisterAutomaton::new(random.k(), random.schema().clone());
    for s in random.states() {
        ra.add_state(random.state_name(s));
        if random.is_initial(s) {
            ra.set_initial(s);
        }
        if random.is_accepting(s) {
            ra.set_accepting(s);
        }
    }
    for t in random.transition_ids() {
        let tr = random.transition(t);
        ra.add_transition(tr.from, tr.ty.clone(), tr.to)
            .expect("copied");
    }
    let p0 = ra.add_state("p0");
    let p1 = ra.add_state("p1");
    ra.set_accepting(p0);
    let keep = SigmaType::new(
        ra.k(),
        (0..ra.k()).map(|r| Literal::eq(Term::x(r), Term::y(r))),
    );
    ra.add_transition(StateId(0), SigmaType::empty(ra.k()), p0)
        .expect("valid");
    ra.add_transition(p0, keep.clone(), p1).expect("valid");
    ra.add_transition(p1, keep, p0).expect("valid");
    let mut ext = ExtendedAutomaton::new(ra);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    add_random_constraints(&mut ext, states, constraints, &mut rng);
    ext
}

/// An automaton that is empty by construction: every transition keeps
/// register 1 (`x1 = y1`), every state is accepting, and the constraint
/// `e≠₁₁` over every two consecutive positions demands that it change.
/// Register 2 and the unary relation vary at random, so the search still
/// has many symbolic lassos to refute.
pub fn empty_by_construction(states: usize, out_degree: usize, seed: u64) -> ExtendedAutomaton {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schema = Schema::empty();
    let u = schema.add_relation("U", 1).expect("fresh name");
    let mut ra = RegisterAutomaton::new(2, schema.clone());
    for s in 0..states {
        let id = ra.add_state(&format!("s{s}"));
        ra.set_accepting(id);
    }
    ra.set_initial(StateId(0));
    let term = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            Term::x(1)
        } else {
            Term::y(1)
        }
    };
    for from in 0..states {
        for d in 0..out_degree {
            let to = if d == 0 {
                (from + 1) % states
            } else {
                rng.gen_range(0..states)
            };
            let mut ty = SigmaType::new(2, [Literal::eq(Term::x(0), Term::y(0))]);
            let extra = if rng.gen_bool(0.5) {
                Literal::eq(term(&mut rng), term(&mut rng))
            } else if rng.gen_bool(0.5) {
                Literal::neq(Term::x(1), Term::y(1))
            } else {
                Literal::rel(u, vec![term(&mut rng)])
            };
            let candidate = ty.with(extra);
            if candidate.is_satisfiable(&schema) {
                ty = candidate;
            }
            ra.add_transition(StateId(from as u32), ty, StateId(to as u32))
                .expect("satisfiable");
        }
    }
    let all: Vec<StateId> = ra.states().collect();
    let mut ext = ExtendedAutomaton::new(ra);
    let any = Regex::any_of(all);
    ext.add_constraint(
        ConstraintKind::NotEqual,
        RegIdx(0),
        RegIdx(0),
        Regex::Concat(vec![any.clone(), any]),
    )
    .expect("states in range");
    ext
}

/// The suite: paper examples with the paper's answers, plus seeded planted
/// (non-empty) and empty-by-construction automata.
pub fn suite(seed: u64) -> Vec<Input> {
    let mut inputs = Vec::new();
    let mut push = |name: String, ext: &ExtendedAutomaton, task: Task| {
        inputs.push(Input {
            name,
            text: to_spec(ext).expect("suite automata render"),
            task,
        })
    };
    let ex1 = ExtendedAutomaton::new(paper::example1().0);
    let ex23 = ExtendedAutomaton::new(paper::example23());
    // Corollary 10: Examples 1, 5, 7, 8 and 23 are non-empty; Example 5
    // with the contradicting inequality e≠₁₁ = p1 p2* p1 is empty.
    push("example1-empty".into(), &ex1, Task::Emptiness(true));
    push(
        "example5-empty".into(),
        &paper::example5(),
        Task::Emptiness(true),
    );
    push(
        "example7-empty".into(),
        &paper::example7(),
        Task::Emptiness(true),
    );
    push(
        "example8-empty".into(),
        &paper::example8(),
        Task::Emptiness(true),
    );
    push("example23-empty".into(), &ex23, Task::Emptiness(true));
    let mut contradiction = paper::example5();
    contradiction
        .add_constraint_str(ConstraintKind::NotEqual, RegIdx(0), RegIdx(0), "p1 p2* p1")
        .expect("valid constraint");
    push(
        "example5-contradiction-empty".into(),
        &contradiction,
        Task::Emptiness(false),
    );
    // The chase on Examples 1 and 8.
    push("example1-chase".into(), &ex1, Task::Chase);
    push("example8-chase".into(), &paper::example8(), Task::Chase);
    // Theorem 18 on Examples 16 (𝒜 bounded, 𝒜′ not), 7 (not) and 5
    // (bounded).
    push(
        "example16a-lr".into(),
        &paper::example16_a(),
        Task::Lr(true),
    );
    push(
        "example16a-prime-lr".into(),
        &paper::example16_a_prime(),
        Task::Lr(false),
    );
    push("example7-lr".into(), &paper::example7(), Task::Lr(false));
    push("example5-lr".into(), &paper::example5(), Task::Lr(true));
    // Theorem 12 on Example 1: register 2 never changes, register 1 does.
    push(
        "example1-verify-x2".into(),
        &ex1,
        Task::Verify {
            register: 1,
            holds: true,
        },
    );
    push(
        "example1-verify-x1".into(),
        &ex1,
        Task::Verify {
            register: 0,
            holds: false,
        },
    );
    let base = seed.wrapping_mul(1_000_003);
    for i in 0..32u64 {
        let states = 8 + 4 * (i % 4) as usize;
        let degree = 2 + (i % 3) as usize;
        let ext = planted(states, degree, 1 + (i % 3) as usize, base + i);
        push(
            format!("planted-s{states}-d{degree}-{i}-empty"),
            &ext,
            Task::Emptiness(true),
        );
    }
    for i in 0..80u64 {
        let states = 6 + 2 * (i % 4) as usize;
        let degree = 2 + (i % 2) as usize;
        let ext = empty_by_construction(states, degree, base + 1_000 + i);
        push(
            format!("constructed-s{states}-d{degree}-{i}-empty"),
            &ext,
            Task::Emptiness(false),
        );
    }
    for i in 0..16u64 {
        let ext = planted(4, 2, 1, base + 2_000 + i);
        push(format!("planted-s4-d2-{i}-chase"), &ext, Task::Chase);
    }
    inputs
}

/// A parsed input, ready to run.
pub struct Ready {
    pub input: Input,
    pub ext: ExtendedAutomaton,
}

fn setup(seed: u64) -> Vec<Ready> {
    suite(seed)
        .into_iter()
        .map(|input| {
            let ext = parse_spec(&input.text).expect("generated spec texts parse");
            Ready { input, ext }
        })
        .collect()
}

fn stable(register: u16) -> LtlFo {
    LtlFo::new(
        "G stable",
        [("stable", Qf::Eq(QfTerm::x(register), QfTerm::y(register)))],
    )
    .expect("well-formed formula")
}

/// Runs one task. Returns the answer and the cache statistics of the
/// caller-supplied cache, where the entry point takes one.
fn decide(ready: &Ready) -> Result<(Answer, Option<rega_data::CacheStats>), String> {
    let ext = &ready.ext;
    let opts = EmptinessOptions::default();
    let err = |e: rega_core::CoreError| format!("{}: {e}", ready.input.name);
    match ready.input.task {
        Task::Emptiness(_) => {
            let cache = SatCache::new(ext.ra().schema().clone());
            let v = check_emptiness_cached(ext, &opts, &cache).map_err(err)?;
            Ok((Answer::Emptiness(v), Some(cache.stats())))
        }
        Task::Chase => {
            let cache = SatCache::new(ext.ra().schema().clone());
            let u = universal_witness_database_governed(ext, &opts, &cache, &Budget::unlimited())
                .map_err(err)?;
            Ok((Answer::Chase(u), Some(cache.stats())))
        }
        Task::Lr(_) => {
            let _span = rega_obs::span!("lr.check");
            let v = is_lr_bounded(ext, &LrOptions::default()).map_err(err)?;
            Ok((Answer::Lr(v.bounded), None))
        }
        Task::Verify { register, .. } => {
            let _span = rega_obs::span!("verify.check");
            let r = verify(ext, &stable(register), &VerifyOptions::default()).map_err(err)?;
            Ok((Answer::Verify(r.holds()), None))
        }
    }
}

/// The oracle for one answer.
pub fn check_answer(ready: &Ready, answer: &Answer) -> Result<(), String> {
    let name = &ready.input.name;
    let want = match ready.input.task {
        Task::Emptiness(nonempty) => nonempty,
        Task::Chase => true,
        Task::Lr(bounded) => bounded,
        Task::Verify { holds, .. } => holds,
    };
    if answer.verdict() != want {
        return Err(format!(
            "{name}: verdict {} but the known answer is {want}",
            answer.verdict()
        ));
    }
    let ext = &ready.ext;
    let witnesses: Vec<(&rega_analysis::Witness, &rega_data::Database)> = match answer {
        Answer::Emptiness(EmptinessVerdict::NonEmpty(w)) => vec![(&**w, &w.database)],
        Answer::Chase(u) => u.witnesses.iter().map(|w| (w, &u.database)).collect(),
        _ => Vec::new(),
    };
    for (w, db) in witnesses {
        ext.check_finite_prefix(db, &w.prefix_run)
            .map_err(|e| format!("{name}: witness prefix rejected: {e}"))?;
        if let Some(run) = &w.lasso_run {
            ext.check_lasso_run(db, run)
                .map_err(|e| format!("{name}: witness lasso rejected: {e}"))?;
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let suite = setup(args.seed);
    if args.trace {
        traced(args, &suite, &mut out);
        return out;
    }
    let mut setups = Calibrated::new();
    let mut pass_secs = Calibrated::new();
    let mut failed = 0u64;
    let mut first: Vec<Option<Answer>> = Vec::new();
    let mut verdicts: Vec<Vec<Option<bool>>> = Vec::new();
    let start = Instant::now();
    while pass_secs.is_empty() || start.elapsed() < args.window() {
        // Set-up is timed before every pass, so its median samples the
        // whole window rather than the first moments of the process.
        setups.push(time_secs(|| drop(std::hint::black_box(setup(args.seed)))));
        let pass_start = Cpu::start(CpuScope::Thread);
        let mut row = Vec::with_capacity(suite.len());
        for ready in &suite {
            let answer = std::hint::black_box(decide(ready));
            match answer {
                Ok((a, _)) => {
                    row.push(Some(a.verdict()));
                    if pass_secs.is_empty() {
                        first.push(Some(a));
                    }
                }
                Err(e) => {
                    failed += 1;
                    row.push(None);
                    if pass_secs.is_empty() {
                        out.notes.push(format!("decision failed: {e}"));
                        first.push(None);
                    }
                }
            }
        }
        pass_secs.push(pass_start.secs());
        verdicts.push(row);
    }
    let peak_rss = peak_rss_mib();
    out.ops("decision", (verdicts.len() * suite.len()) as u64, failed);
    for (i, ready) in suite.iter().enumerate() {
        if let Some(answer) = &first[i] {
            if let Err(e) = check_answer(ready, answer) {
                out.check(false, || e);
            }
        }
        let v0 = verdicts[0][i];
        out.check(
            verdicts.iter().all(|row| row[i].is_none() || row[i] == v0),
            || format!("{}: verdict changed between passes", ready.input.name),
        );
    }
    out.metric("setup_s", setups.median_s(), "s");
    out.metric("pass_cpu_s", pass_secs.median_s(), "s");
    out.notes.push(pass_secs.note());
    out.metric("peak_rss_mib", peak_rss, "MiB");
    out.self_test(oracle_self_test());
    out
}

/// The traced run: the same passes under a `MemorySink`.
fn traced(args: &Args, suite: &[Ready], out: &mut Outcome) {
    let mut plain = Vec::new();
    let start = Instant::now();
    while plain.is_empty() || start.elapsed() < args.window().mul_f64(0.25) {
        let t = Cpu::start(CpuScope::Thread);
        for ready in suite {
            let _ = std::hint::black_box(decide(ready));
        }
        plain.push(t.secs());
    }
    let tracer = Traced::install();
    let mut pass_secs = Vec::new();
    let mut passes = 0u64;
    let mut failed = 0u64;
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut first = Vec::new();
    let start = Instant::now();
    while passes == 0 || start.elapsed() < args.window().mul_f64(0.75) {
        passes += 1;
        let t = Cpu::start(CpuScope::Thread);
        for ready in suite {
            match decide(ready) {
                Ok((answer, stats)) => {
                    if let Some(stats) = stats {
                        hits += stats.hits;
                        lookups += stats.hits + stats.misses;
                    }
                    if passes == 1 {
                        first.push((ready, answer));
                    }
                }
                Err(_) => failed += 1,
            }
        }
        pass_secs.push(t.secs());
    }
    let ledger = tracer.finish();
    // The oracle over the first traced pass, as the untraced run checks
    // its first pass.
    for (ready, answer) in &first {
        if let Err(e) = check_answer(ready, answer) {
            out.check(false, || e);
        }
    }
    out.self_test(oracle_self_test());
    out.metric(
        "obs.trace_overhead_pct",
        (median(&pass_secs) / median(&plain) - 1.0) * 100.0,
        "%",
    );
    out.ops("decision", passes * suite.len() as u64, failed);
    let per = |v: f64| v / passes as f64;
    let classes =
        ledger.span("classes.build_stable").total_ms() + ledger.span("classes.build").total_ms();
    out.metric(
        "symbolic.scontrol_nba_ms",
        per(ledger.span("scontrol.nba_build").total_ms()),
        "ms",
    );
    out.metric(
        "emptiness.search_ms",
        per(ledger.span("emptiness.on_the_fly.search").self_ms()),
        "ms",
    );
    out.metric(
        "emptiness.witness_ms",
        per(ledger.span("emptiness.witness").self_ms()),
        "ms",
    );
    out.metric("classes.build_ms", per(classes), "ms");
    out.metric(
        "emptiness.nodes_expanded",
        per(ledger.event_sum("emptiness.lassos", "nodes_expanded")),
        "count",
    );
    out.metric(
        "emptiness.candidates_per_verdict",
        ratio(
            ledger.event_sum("emptiness.lassos", "candidates"),
            ledger.event_count("emptiness.verdict") as f64,
        ),
        "ratio",
    );
    out.metric(
        "chase.universal_witness_ms",
        per(ledger.span("chase.universal_witness").total_ms()),
        "ms",
    );
    out.metric(
        "chase.rounds",
        per(ledger.span("chase.round").count as f64),
        "count",
    );
    out.metric("lr.check_ms", per(ledger.span("lr.check").total_ms()), "ms");
    out.metric(
        "verify.check_ms",
        per(ledger.span("verify.check").total_ms()),
        "ms",
    );
    out.metric(
        "satcache.hit_ratio",
        ratio(hits as f64, lookups as f64),
        "ratio",
    );
    let fast = ledger.event_sum("typebits.stats", "fast");
    let fallback = ledger.event_sum("typebits.stats", "fallback");
    out.metric("typebits.fast_ratio", ratio(fast, fast + fallback), "ratio");
}

/// Corrupts one verdict and one witness value and confirms the oracle
/// rejects both.
pub fn oracle_self_test() -> Result<(), String> {
    let suite = setup(0);
    let ex1 = suite
        .iter()
        .find(|r| r.input.name == "example1-empty")
        .expect("example 1 is in the suite");
    let (answer, _) = decide(ex1)?;
    check_answer(ex1, &answer)?;
    let Answer::Emptiness(EmptinessVerdict::NonEmpty(witness)) = answer else {
        return Err("example 1 must be non-empty".into());
    };
    // A non-empty verdict on an input that is empty by construction.
    let empty = suite
        .iter()
        .find(|r| matches!(r.input.task, Task::Emptiness(false)))
        .expect("an empty input is in the suite");
    let flipped = Answer::Emptiness(EmptinessVerdict::NonEmpty(witness.clone()));
    if check_answer(empty, &flipped).is_ok() {
        return Err("a flipped verdict was accepted".into());
    }
    // Register 2 of Example 1 never changes: a fresh value at position 1
    // breaks the run.
    let mut altered = witness;
    altered.prefix_run.configs[1].regs[1] = Value(1_000_000);
    altered.lasso_run = None;
    if check_answer(ex1, &Answer::Emptiness(EmptinessVerdict::NonEmpty(altered))).is_ok() {
        return Err("an altered witness value was accepted".into());
    }
    Ok(())
}
