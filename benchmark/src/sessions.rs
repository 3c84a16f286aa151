//! Seeded monitoring sessions with planted ground truth, shared by the
//! `serve` and `cluster` workloads.
//!
//! Two specifications are driven:
//! * Example 1 (`specs/example1.rega`, two registers): register 2 keeps the
//!   session's first value forever; register 1 equals it at every `q1`
//!   position and is free at `q2` positions. A planted violation changes
//!   register 2, which no transition allows.
//! * All-distinct (`specs/all_distinct.rega`, one register, Example 7):
//!   every value differs from every earlier one, so the constraint
//!   monitor's state grows with the session. A planted violation repeats
//!   the session's first value.
//!
//! A session either ends with a terminal event (status `ended`, events =
//! steps + 1) or stops at its planted violation (status `violated`,
//! events = the 1-based index of the violating step). Lifetimes are
//! skewed: log-uniform between 3 and 200 steps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_data::Value;
use rega_stream::Event;
use serde_json::{json, Value as Json};

pub const EXAMPLE1: &str = include_str!("../../specs/example1.rega");
pub const ALL_DISTINCT: &str = include_str!("../../specs/all_distinct.rega");

/// Which specification a session runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spec {
    Example1,
    AllDistinct,
}

/// One event of a session.
#[derive(Clone, Debug)]
pub enum Step {
    Step { state: &'static str, regs: Vec<u64> },
    End,
}

/// A session and the verdict planted in it.
#[derive(Clone, Debug)]
pub struct Plan {
    pub name: String,
    pub spec: Spec,
    pub steps: Vec<Step>,
    /// 1-based index of the violating step, if one is planted.
    pub violate_at: Option<usize>,
}

impl Plan {
    /// The expected final `(status, events)` of the session: violated at
    /// its planted step, ended after its terminal event, or still active
    /// when the stream was cut before either.
    pub fn expected(&self) -> (&'static str, u64) {
        let events = self.steps.len() as u64;
        match (self.violate_at, self.steps.last()) {
            (Some(v), _) => ("violated", v as u64),
            (None, Some(Step::End)) => ("ended", events),
            (None, _) => ("active", events),
        }
    }

    pub fn event_json(&self, i: usize) -> Json {
        match &self.steps[i] {
            Step::Step { state, regs } => {
                json!({"session": self.name.as_str(), "state": *state, "regs": regs.clone()})
            }
            Step::End => json!({"session": self.name.as_str(), "end": true}),
        }
    }

    pub fn event(&self, i: usize) -> Event {
        match &self.steps[i] {
            Step::Step { state, regs } => Event::Step {
                session: self.name.clone(),
                state: (*state).to_string(),
                regs: regs.iter().map(|&v| Value(v)).collect(),
            },
            Step::End => Event::End {
                session: self.name.clone(),
            },
        }
    }
}

/// Share of sessions with a planted violation.
const VIOLATION_SHARE: f64 = 0.2;

fn lifetime(rng: &mut StdRng) -> usize {
    // Log-uniform in [3, 200]: many short sessions, a few long ones.
    let u = rng.gen_range(0..1_000_000u64) as f64 / 1e6;
    (3.0 * (200.0f64 / 3.0).powf(u)) as usize
}

fn plan(name: String, spec: Spec, id: u64, rng: &mut StdRng) -> Plan {
    let len = lifetime(rng);
    let violate_at = rng
        .gen_bool(VIOLATION_SHARE)
        .then(|| rng.gen_range(2..len + 1));
    let mut steps = Vec::with_capacity(len + 1);
    // Values are session-private so sessions never interact.
    let base = 1 + id * 1_000_000;
    let mut state = "q1";
    for i in 1..=len {
        let violating = violate_at == Some(i);
        let step = match spec {
            Spec::Example1 => {
                if i > 1 {
                    state = if state == "q1" || rng.gen_bool(0.6) {
                        "q2"
                    } else {
                        "q1"
                    };
                }
                let r1 = if state == "q1" {
                    base
                } else {
                    base + rng.gen_range(1..4)
                };
                let r2 = if violating { base + 999 } else { base };
                Step::Step {
                    state: if state == "q1" { "q1" } else { "q2" },
                    regs: vec![r1, r2],
                }
            }
            Spec::AllDistinct => Step::Step {
                state: "q",
                regs: vec![if violating { base + 1 } else { base + i as u64 }],
            },
        };
        steps.push(step);
        if violating {
            break;
        }
    }
    if violate_at.is_none() {
        steps.push(Step::End);
    }
    Plan {
        name,
        spec,
        steps,
        violate_at,
    }
}

/// `count` sessions per specification in `specs`, named
/// `<prefix>-<spec>-<n>`.
fn plans(seed: u64, prefix: &str, count: usize, specs: &[Spec]) -> Vec<Plan> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(specs.len() * count);
    for n in 0..count {
        for &spec in specs {
            let tag = match spec {
                Spec::Example1 => "e1",
                Spec::AllDistinct => "ad",
            };
            let id = out.len() as u64;
            out.push(plan(format!("{prefix}-{tag}-{n}"), spec, id, &mut rng));
        }
    }
    out
}

/// One item of an interleaved stream.
#[derive(Clone, Copy, Debug)]
pub enum Item {
    /// The session's first event is next: open it.
    Open(usize),
    /// Event `.1` of session `.0`.
    Event(usize, usize),
}

/// Interleaves the sessions with at most `active` open at once: each step
/// picks a random open session and emits its next event; a finished
/// session makes room for the next one.
fn interleave(plans: &[Plan], active: usize, seed: u64) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1f1e_a5e5);
    let mut items = Vec::new();
    let mut next_session = 0usize;
    let mut open: Vec<(usize, usize)> = Vec::new();
    loop {
        while open.len() < active && next_session < plans.len() {
            items.push(Item::Open(next_session));
            open.push((next_session, 0));
            next_session += 1;
        }
        if open.is_empty() {
            break;
        }
        let pick = rng.gen_range(0..open.len());
        let (s, i) = open[pick];
        items.push(Item::Event(s, i));
        if i + 1 == plans[s].steps.len() {
            open.swap_remove(pick);
        } else {
            open[pick].1 += 1;
        }
    }
    items
}

/// A stream of exactly `events` events: sessions (`prefix`, seeded) are
/// interleaved with at most `active` open per specification, the stream is
/// cut after `events` events, and every session is cut to the events it
/// was sent (sessions never reached are dropped).
pub fn stream(
    seed: u64,
    prefix: &str,
    events: usize,
    active: usize,
    specs: &[Spec],
) -> (Vec<Plan>, Vec<Item>) {
    // Lifetimes average about 40 steps; over-provision sessions, then cut.
    let mut plans = plans(seed, prefix, events / 10 + 8, specs);
    let full = interleave(&plans, active, seed);
    let mut sent = vec![0usize; plans.len()];
    let mut items = Vec::with_capacity(events + events / 8);
    let mut count = 0;
    for item in full {
        if count == events {
            break;
        }
        if let Item::Event(s, _) = item {
            sent[s] += 1;
            count += 1;
        }
        items.push(item);
    }
    assert_eq!(count, events, "over-provisioned sessions cover the stream");
    for (p, &n) in plans.iter_mut().zip(&sent) {
        p.steps.truncate(n);
        if p.violate_at.is_some_and(|v| v > n) {
            p.violate_at = None;
        }
    }
    // Sessions that never received an event are not opened.
    items.retain(|item| !matches!(item, Item::Open(s) if sent[*s] == 0));
    (plans, items)
}

/// Checks reported `(session, status, events)` outcomes against the plans:
/// every session present once, with its planted status and event count.
pub fn check_outcomes(plans: &[Plan], outcomes: &[(String, String, u64)]) -> Result<(), String> {
    let plans: Vec<&Plan> = plans.iter().filter(|p| !p.steps.is_empty()).collect();
    if outcomes.len() != plans.len() {
        return Err(format!(
            "{} sessions reported, {} planted",
            outcomes.len(),
            plans.len()
        ));
    }
    let mut by_name: std::collections::HashMap<&str, (&str, u64)> =
        std::collections::HashMap::new();
    for (name, status, events) in outcomes {
        by_name.insert(name.as_str(), (status.as_str(), *events));
    }
    for p in plans {
        let want = p.expected();
        match by_name.get(p.name.as_str()) {
            Some(&got) if got == want => {}
            Some(got) => {
                return Err(format!(
                    "session {}: reported {got:?}, planted {want:?}",
                    p.name
                ))
            }
            None => return Err(format!("session {} missing from the report", p.name)),
        }
    }
    Ok(())
}

/// Drops one event from a stream's correct outcomes and confirms the
/// oracle notices.
pub fn oracle_self_test() -> Result<(), String> {
    let (plans, _) = stream(0, "t", 500, 8, &[Spec::Example1, Spec::AllDistinct]);
    let mut outcomes: Vec<(String, String, u64)> = plans
        .iter()
        .filter(|p| !p.steps.is_empty())
        .map(|p| {
            let (status, events) = p.expected();
            (p.name.clone(), status.to_string(), events)
        })
        .collect();
    check_outcomes(&plans, &outcomes)?;
    outcomes[0].2 -= 1;
    match check_outcomes(&plans, &outcomes) {
        Ok(()) => Err("a lost event was accepted".into()),
        Err(_) => Ok(()),
    }
}
