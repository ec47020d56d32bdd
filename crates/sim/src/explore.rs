//! Schedule exploration: exhaustive bounded DFS with state pruning, and
//! a seeded-random walker for larger configurations, plus schedule
//! replay and greedy shrinking to a minimal counterexample.
//!
//! The explorer is generic over the state space it walks: anything
//! implementing [`SimWorld`] (a clonable state with an enumerable choice
//! alphabet) can be explored against any [`Checker`]. The single-process
//! [`World`] walks client ops, timer firings and crash points; the
//! multi-node [`crate::ClusterWorld`] adds message deliveries, losses,
//! duplicates, per-node crashes and failovers to the same machinery.

use crate::invariants::{Invariants, Violation};
use crate::world::{Choice, StepError, World};
use owte_core::SplitMix64;
use std::collections::HashMap;
use std::fmt;

/// A state the explorer can walk: clonable (the DFS forks worlds at every
/// branch), with a self-describing choice alphabet and a pruning
/// fingerprint.
pub trait SimWorld: Clone {
    /// One scheduler decision in this state space. Position-independent:
    /// a recorded choice sequence replays deterministically from the
    /// initial world.
    type Choice: Clone + PartialEq + fmt::Debug + fmt::Display;

    /// Every choice enabled here under `budget`, in a stable order.
    /// `reduction` enables the world's partial-order rules; prunes are
    /// counted into `stats`.
    fn enabled_choices(
        &self,
        budget: &Budget,
        reduction: bool,
        stats: &mut Stats,
    ) -> Vec<Self::Choice>;

    /// Apply one choice, transforming this world into its successor.
    fn apply_choice(&mut self, choice: &Self::Choice) -> Result<(), StepError<Self::Choice>>;

    /// Human-readable description of what `choice` would do here.
    fn describe_choice(&self, choice: &Self::Choice) -> String;

    /// An order-independent digest of everything observable about this
    /// state. Two worlds with equal fingerprints behave identically under
    /// every future schedule, so the exhaustive explorer prunes revisits.
    fn fingerprint(&self) -> u64;

    /// Crash/restart cycles taken so far (bounded by the budget).
    fn crashes(&self) -> usize;

    /// The sequence of applied choices that produced this world from its
    /// initial state.
    fn schedule_choices(&self) -> &[Self::Choice];
}

/// An invariant suite evaluated against worlds of type `W` after every
/// scheduler step.
pub trait Checker<W: SimWorld> {
    /// The first violation observable in `world`, if any.
    fn check(&self, world: &W) -> Option<Violation>;
}

/// Exploration limits.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Longest schedule (steps) considered.
    pub max_steps: usize,
    /// Crash/restart cycles allowed per schedule.
    pub max_crashes: usize,
    /// Random mode: schedules sampled.
    pub max_schedules: usize,
    /// Exhaustive mode: states expanded before giving up (the report
    /// then says the sweep was incomplete).
    pub max_states: usize,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_steps: 12,
            max_crashes: 2,
            max_schedules: 256,
            max_states: 250_000,
        }
    }
}

/// How to drive the scheduler.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Sample whole schedules from a seed (CI-friendly on medium
    /// configurations).
    Random {
        /// Base seed; schedule `i` uses `seed + i`.
        seed: u64,
    },
    /// Depth-first enumeration of every interleaving within the budget.
    Exhaustive {
        /// Enable state-fingerprint pruning and the world's partial-order
        /// rules (crash-stutter, delivery commutation). Turning it off
        /// walks the raw schedule tree — same verdict, far more states
        /// (used to validate the reductions themselves).
        reduction: bool,
    },
}

/// Exploration counters, for reports and the experiment log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// States expanded.
    pub explored: usize,
    /// Successors discarded because an equal-fingerprint state was
    /// already explored at no higher crash budget.
    pub pruned_fingerprint: usize,
    /// Crash choices discarded by the stutter rule (crashing again
    /// immediately after a restart, which provably re-recovers the same
    /// state).
    pub pruned_stutter: usize,
    /// Message choices discarded by the delivery-commutation rule
    /// (deliveries to distinct destinations commute, so only the earliest
    /// in-flight message per destination is branched on).
    pub pruned_commute: usize,
    /// Random mode: schedules completed.
    pub schedules: usize,
    /// Whether the sweep covered everything the budget asked for.
    pub complete: bool,
}

/// A replayable schedule: the exact choice sequence from the initial
/// world to the violating state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule<C = Choice>(pub Vec<C>);

impl<C: fmt::Display> fmt::Display for Schedule<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.0.iter().enumerate() {
            writeln!(f, "  {:>3}. {c}", i + 1)?;
        }
        Ok(())
    }
}

impl<C> Schedule<C> {
    /// Annotated step script: replays the schedule against `initial`
    /// (without invariant checking) and describes each step in terms of
    /// what it actually resolved to.
    pub fn script<W: SimWorld<Choice = C>>(&self, initial: &W) -> String {
        let mut w = initial.clone();
        let mut out = String::new();
        for (i, c) in self.0.iter().enumerate() {
            out.push_str(&format!("  {:>3}. {}\n", i + 1, w.describe_choice(c)));
            if w.apply_choice(c).is_err() {
                out.push_str("       (schedule diverged here)\n");
                break;
            }
        }
        out
    }
}

/// The result of one exploration run.
#[derive(Debug, Clone)]
pub enum Outcome<C = Choice> {
    /// No reachable state violated any invariant.
    Clean(Stats),
    /// A violation was found; `schedule` is the shrunk, minimal
    /// counterexample.
    Violation {
        /// What failed.
        violation: Violation,
        /// Minimal replayable schedule reaching it.
        schedule: Schedule<C>,
        /// Counters up to the find.
        stats: Stats,
    },
}

/// What [`crate::check`] returns: the outcome plus the seeds needed to
/// rebuild the exact same initial world.
#[derive(Debug, Clone)]
pub struct CheckReport<C = Choice> {
    /// Exploration outcome.
    pub outcome: Outcome<C>,
    /// Enterprise seed the world was generated from.
    pub ent_seed: u64,
    /// Trace seed the client script was generated from.
    pub trace_seed: u64,
}

impl<C> CheckReport<C> {
    pub(crate) fn new(outcome: Outcome<C>, ent_seed: u64, trace_seed: u64) -> CheckReport<C> {
        CheckReport {
            outcome,
            ent_seed,
            trace_seed,
        }
    }

    /// Did every explored schedule satisfy every invariant?
    pub fn is_clean(&self) -> bool {
        matches!(self.outcome, Outcome::Clean(_))
    }

    /// The exploration counters.
    pub fn stats(&self) -> &Stats {
        match &self.outcome {
            Outcome::Clean(s) => s,
            Outcome::Violation { stats, .. } => stats,
        }
    }
}

impl<C: fmt::Display> fmt::Display for CheckReport<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            Outcome::Clean(s) => write!(
                f,
                "CLEAN — {} states explored ({} fingerprint-pruned, {} stutter-pruned, \
                 {} commute-pruned, {} schedules), ent_seed={} trace_seed={}",
                s.explored,
                s.pruned_fingerprint,
                s.pruned_stutter,
                s.pruned_commute,
                s.schedules,
                self.ent_seed,
                self.trace_seed
            ),
            Outcome::Violation {
                violation,
                schedule,
                stats,
            } => write!(
                f,
                "VIOLATION after {} states (ent_seed={} trace_seed={}): {violation}\n\
                 minimal schedule ({} steps):\n{schedule}",
                stats.explored,
                self.ent_seed,
                self.trace_seed,
                schedule.0.len()
            ),
        }
    }
}

/// Explore from `initial` under `strategy` and `budget`, checking
/// `invariants` after every step. Violations are shrunk to a minimal
/// schedule before being reported.
pub fn explore<W: SimWorld, K: Checker<W>>(
    initial: &W,
    invariants: &K,
    strategy: Strategy,
    budget: Budget,
) -> Outcome<W::Choice> {
    match strategy {
        Strategy::Exhaustive { reduction } => dfs(initial, invariants, &budget, reduction),
        Strategy::Random { seed } => random(initial, invariants, &budget, seed),
    }
}

fn violation_outcome<W: SimWorld, K: Checker<W>>(
    initial: &W,
    invariants: &K,
    violation: Violation,
    schedule: Vec<W::Choice>,
    stats: Stats,
) -> Outcome<W::Choice> {
    let schedule = shrink(initial, invariants, &schedule, &violation);
    // Report the violation the *minimal* schedule produces: shrinking
    // preserves the violation kind but may change its details (e.g. fewer
    // acknowledged ops are lost once redundant ops are dropped).
    let violation = match run_schedule(initial, invariants, &schedule.0) {
        Ok(Some((v, _))) => v,
        _ => violation,
    };
    Outcome::Violation {
        violation,
        schedule,
        stats,
    }
}

fn dfs<W: SimWorld, K: Checker<W>>(
    initial: &W,
    invariants: &K,
    budget: &Budget,
    reduction: bool,
) -> Outcome<W::Choice> {
    let mut stats = Stats {
        complete: true,
        ..Stats::default()
    };
    // Fingerprint → fewest crashes with which the state was expanded. A
    // revisit with crash budget to spare must be re-expanded, or crash
    // successors could be missed.
    let mut seen: HashMap<u64, usize> = HashMap::new();
    if let Some(v) = invariants.check(initial) {
        return violation_outcome(initial, invariants, v, Vec::new(), stats);
    }
    let mut stack: Vec<W> = vec![initial.clone()];
    if reduction {
        seen.insert(initial.fingerprint(), initial.crashes());
    }
    while let Some(world) = stack.pop() {
        stats.explored += 1;
        if stats.explored > budget.max_states {
            stats.complete = false;
            break;
        }
        for choice in world.enabled_choices(budget, reduction, &mut stats) {
            let mut child = world.clone();
            match child.apply_choice(&choice) {
                Ok(()) => {}
                Err(StepError::Violation(v)) => {
                    return violation_outcome(
                        initial,
                        invariants,
                        v,
                        child.schedule_choices().to_vec(),
                        stats,
                    );
                }
                Err(StepError::NotEnabled(c)) => {
                    unreachable!("enumerator offered a disabled choice: {c}")
                }
            }
            if let Some(v) = invariants.check(&child) {
                return violation_outcome(
                    initial,
                    invariants,
                    v,
                    child.schedule_choices().to_vec(),
                    stats,
                );
            }
            if child.schedule_choices().len() >= budget.max_steps {
                continue;
            }
            if reduction {
                let fp = child.fingerprint();
                let crashes = child.crashes();
                match seen.get(&fp) {
                    Some(&prev) if prev <= crashes => {
                        stats.pruned_fingerprint += 1;
                        continue;
                    }
                    _ => {
                        seen.insert(fp, crashes);
                    }
                }
            }
            stack.push(child);
        }
    }
    Outcome::Clean(stats)
}

fn random<W: SimWorld, K: Checker<W>>(
    initial: &W,
    invariants: &K,
    budget: &Budget,
    seed: u64,
) -> Outcome<W::Choice> {
    let mut stats = Stats {
        complete: true,
        ..Stats::default()
    };
    if let Some(v) = invariants.check(initial) {
        return violation_outcome(initial, invariants, v, Vec::new(), stats);
    }
    for i in 0..budget.max_schedules {
        let mut rng = SplitMix64(seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9) ^ seed);
        let mut world = initial.clone();
        for _ in 0..budget.max_steps {
            let choices = world.enabled_choices(budget, true, &mut stats);
            if choices.is_empty() {
                break;
            }
            let pick = choices[rng.below(choices.len())].clone();
            stats.explored += 1;
            let failed = match world.apply_choice(&pick) {
                Ok(()) => invariants.check(&world),
                Err(StepError::Violation(v)) => Some(v),
                Err(StepError::NotEnabled(c)) => {
                    unreachable!("enumerator offered a disabled choice: {c}")
                }
            };
            if let Some(v) = failed {
                return violation_outcome(
                    initial,
                    invariants,
                    v,
                    world.schedule_choices().to_vec(),
                    stats,
                );
            }
        }
        stats.schedules += 1;
    }
    Outcome::Clean(stats)
}

/// Replay `schedule` from `initial`, checking invariants after every
/// step. Returns the violation and the 0-based index of the violating
/// step, `None` if the schedule runs clean, or `Err` if a choice is not
/// enabled when its turn comes (an over-shrunk candidate).
pub fn run_schedule<W: SimWorld, K: Checker<W>>(
    initial: &W,
    invariants: &K,
    schedule: &[W::Choice],
) -> Result<Option<(Violation, usize)>, usize> {
    let mut world = initial.clone();
    if let Some(v) = invariants.check(&world) {
        return Ok(Some((v, 0)));
    }
    for (i, choice) in schedule.iter().enumerate() {
        let failed = match world.apply_choice(choice) {
            Ok(()) => invariants.check(&world),
            Err(StepError::Violation(v)) => Some(v),
            Err(StepError::NotEnabled(_)) => return Err(i),
        };
        if let Some(v) = failed {
            return Ok(Some((v, i)));
        }
    }
    Ok(None)
}

/// Greedy delta-debugging shrink: truncate at the violating step, then
/// repeatedly try dropping single steps — and adjacent pairs, so a
/// redundant `crash`+`restart` couple can go together (neither replays
/// alone: dropping just the crash leaves a restart that is not enabled,
/// dropping just the restart leaves a dead world) — while the *same
/// kind* of violation still reproduces.
fn shrink<W: SimWorld, K: Checker<W>>(
    initial: &W,
    invariants: &K,
    schedule: &[W::Choice],
    target: &Violation,
) -> Schedule<W::Choice> {
    let same_kind = |v: &Violation| std::mem::discriminant(v) == std::mem::discriminant(target);
    let mut best: Vec<W::Choice> = match run_schedule(initial, invariants, schedule) {
        Ok(Some((v, at))) if same_kind(&v) => schedule[..=at].to_vec(),
        // The recorded schedule already includes exactly the violating
        // steps (explorers stop at the first violation), so this arm is
        // only reached if replay disagrees — keep the original.
        _ => schedule.to_vec(),
    };
    let mut improved = true;
    while improved {
        improved = false;
        'removals: for width in [1usize, 2] {
            for i in 0..best.len().saturating_sub(width - 1) {
                let mut candidate = best.clone();
                candidate.drain(i..i + width);
                if let Ok(Some((v, at))) = run_schedule(initial, invariants, &candidate) {
                    if same_kind(&v) {
                        candidate.truncate(at + 1);
                        best = candidate;
                        improved = true;
                        break 'removals;
                    }
                }
            }
        }
    }
    Schedule(best)
}

/// The single-process [`World`]'s choice enumeration, including the
/// crash-point probe and the crash-stutter partial-order rule.
impl SimWorld for World {
    type Choice = Choice;

    fn enabled_choices(&self, budget: &Budget, reduction: bool, stats: &mut Stats) -> Vec<Choice> {
        if self.is_crashed() {
            return vec![Choice::Restart];
        }
        let mut out = Vec::new();
        let ops_left = self.ops_left();
        if ops_left {
            out.push(Choice::NextOp);
        }
        if self
            .engine()
            .and_then(|d| d.engine().next_timer_at())
            .is_some()
        {
            out.push(Choice::FireNextTimer);
        }
        if self.crashes() < budget.max_crashes {
            if ops_left {
                // One crash point before each storage op of the next
                // client op, each in a clean and a torn-write variant.
                let writes = self.probe_next_op_storage_ops();
                for at in 1..=writes {
                    out.push(Choice::CrashDuringNextOp { at, keep: 0 });
                    out.push(Choice::CrashDuringNextOp { at, keep: 1 });
                }
            }
            // Crashing again immediately after a restart is a stutter:
            // recovery is deterministic and every byte it recovered from
            // is still synced, so re-crash + restart reproduces the
            // identical engine state and acknowledged ledger — it only
            // spends crash budget (and accretes an empty WAL segment the
            // invariants never see). Any violation reachable beyond the
            // re-crash is therefore reachable without it, with crash
            // budget to spare.
            let stutter = reduction && self.schedule().last() == Some(&Choice::Restart);
            if stutter {
                stats.pruned_stutter += 1;
            } else {
                out.push(Choice::CrashNow);
            }
        }
        out
    }

    fn apply_choice(&mut self, choice: &Choice) -> Result<(), StepError<Choice>> {
        self.apply(choice)
    }

    fn describe_choice(&self, choice: &Choice) -> String {
        self.describe(choice)
    }

    fn fingerprint(&self) -> u64 {
        World::fingerprint(self)
    }

    fn crashes(&self) -> usize {
        World::crashes(self)
    }

    fn schedule_choices(&self) -> &[Choice] {
        self.schedule()
    }
}

/// The single-process invariant suite plugs into the generic explorer.
impl Checker<World> for Invariants {
    fn check(&self, world: &World) -> Option<Violation> {
        Invariants::check(self, world)
    }
}
