//! Bounded model checking of the durable OWTE stack, end to end:
//!
//! 1. **Exhaustive sweep** — every interleaving of client ops, GTRBAC
//!    timer firings and crash/restart points on the tiny reference
//!    enterprise satisfies every invariant (SoD, cardinality, cascade
//!    bound, no acked-op loss, recovery ≡ prefix replay).
//! 2. **Seeded bugs** — an engine built from a doctored policy (SoD sets
//!    stripped) and a journal that acknowledges before syncing are both
//!    caught, each reported as a minimal replayable schedule.
//! 3. **Seeded-random sweep** — the CI strategy on a generated medium
//!    enterprise/workload, too big to exhaust.
//!
//! Exits nonzero if any honest sweep finds a violation or a seeded bug
//! goes unnoticed, so CI can run it as a gate.
//!
//! Run with: `cargo run --release --example model_check`
//! (`OWTE_MC_SEED=n` reseeds the random sweep.)

use owte_core::DurableConfig;
use sim::{
    check, explore, strip_sod, tiny_enterprise, tiny_ops, Budget, CheckConfig, Invariants, Outcome,
    Strategy, World,
};
use workload::EnterpriseSpec;

fn main() {
    let mut failed = false;

    // --- 1. Exhaustive sweep over the tiny enterprise. -----------------
    let graph = tiny_enterprise();
    let config = DurableConfig {
        snapshot_every: Some(4),
        ..DurableConfig::default()
    };
    let world = World::new(&graph, tiny_ops(), config).expect("tiny policy instantiates");
    let invariants = Invariants::from_reference(&graph);
    let budget = Budget {
        max_steps: 10,
        max_crashes: 1,
        max_states: 2_000_000,
        ..Budget::default()
    };
    println!("== exhaustive sweep: tiny enterprise, 1 crash budget ==");
    match explore(
        &world,
        &invariants,
        Strategy::Exhaustive { reduction: true },
        budget.clone(),
    ) {
        Outcome::Clean(stats) => println!(
            "CLEAN — {} states explored, {} fingerprint-pruned, {} stutter-pruned, complete={}",
            stats.explored, stats.pruned_fingerprint, stats.pruned_stutter, stats.complete
        ),
        Outcome::Violation {
            violation,
            schedule,
            stats,
        } => {
            failed = true;
            println!(
                "VIOLATION after {} states: {violation}\nminimal schedule:\n{}",
                stats.explored,
                schedule.script(&world)
            );
        }
    }

    // --- 2a. Seeded bug: SoD sets stripped from the engine's policy. ---
    println!("\n== seeded bug: engine built with SoD sets stripped ==");
    let doctored = strip_sod(tiny_enterprise());
    let world = World::new(&doctored, tiny_ops(), DurableConfig::default())
        .expect("doctored policy instantiates");
    let no_crash = Budget {
        max_crashes: 0,
        ..budget.clone()
    };
    match explore(
        &world,
        &invariants,
        Strategy::Exhaustive { reduction: true },
        no_crash,
    ) {
        Outcome::Violation {
            violation,
            schedule,
            stats,
        } => println!(
            "caught after {} states: {violation}\nminimal schedule:\n{}",
            stats.explored,
            schedule.script(&world)
        ),
        Outcome::Clean(_) => {
            failed = true;
            println!("MISSED: the under-enforcing engine passed the reference invariants");
        }
    }

    // --- 2b. Seeded bug: acknowledge journal appends before syncing. ---
    println!("== seeded bug: sync_on_append disabled ==");
    let lossy = DurableConfig {
        sync_on_append: false,
        snapshot_every: None,
        ..DurableConfig::default()
    };
    let world = World::new(&graph, tiny_ops(), lossy).expect("tiny policy instantiates");
    match explore(
        &world,
        &invariants,
        Strategy::Exhaustive { reduction: true },
        budget,
    ) {
        Outcome::Violation {
            violation,
            schedule,
            stats,
        } => println!(
            "caught after {} states: {violation}\nminimal schedule:\n{}",
            stats.explored,
            schedule.script(&world)
        ),
        Outcome::Clean(_) => {
            failed = true;
            println!("MISSED: unsynced acknowledgements passed the durability invariants");
        }
    }

    // --- 3. Seeded-random sweep on a generated medium enterprise. ------
    let seed = std::env::var("OWTE_MC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xA11CE);
    println!("== seeded-random sweep: generated medium enterprise (seed {seed}) ==");
    let report = check(&CheckConfig {
        enterprise: EnterpriseSpec::sized(10),
        steps: 40,
        ent_seed: seed,
        trace_seed: seed ^ 0x5EED,
        durable: DurableConfig {
            snapshot_every: Some(8),
            ..DurableConfig::default()
        },
        strategy: Strategy::Random { seed },
        budget: Budget {
            max_steps: 24,
            max_crashes: 2,
            max_schedules: 128,
            ..Budget::default()
        },
    });
    println!("{report}");
    failed |= !report.is_clean();

    if failed {
        std::process::exit(1);
    }
}
