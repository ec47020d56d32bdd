//! Prints the evaluation tables recorded in EXPERIMENTS.md — rule-pool
//! composition per enterprise size (E2), regeneration scope (E3), the
//! XYZ / Figure-1 pool breakdown (E1), the bounded model-check sweep
//! (E11), and the compiled-dispatch gap per-op (E5), end-to-end (E13),
//! replication failover/shipping cost (E14), and sharded mutation scaling
//! (E15) — and emits each as a machine-readable `BENCH_<id>.json` so CI
//! can track the perf trajectory across PRs.
//!
//! Run with: `cargo run -p bench --bin report --release`
//! (`BENCH_JSON_DIR=path` overrides the default `target/bench-report`.)

use bench::{replay_direct, replay_owte, replay_owte_interpreted};
use owte_core::{DirectEngine, DurableConfig, Engine};
use policy::{instantiate, regenerate, DailyWindow, PolicyGraph};
use rbac::RoleId;
use sim::{
    explore, strip_sod, tiny_enterprise, tiny_ops, Budget, Invariants, Outcome, Strategy, World,
};
use snoop::Ts;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use workload::{generate_enterprise, generate_trace, EnterpriseSpec, TraceSpec};

/// Where the `BENCH_*.json` files land.
fn json_dir() -> PathBuf {
    std::env::var_os("BENCH_JSON_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/bench-report"))
}

/// Write one experiment's JSON body (already a valid JSON value).
fn emit_json(id: &str, body: &str) {
    let dir = json_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("BENCH_{id}.json"));
    match std::fs::write(&path, body) {
        Ok(()) => println!("  -> {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn main() {
    println!("== E1: enterprise XYZ (Figure 1) ==");
    let xyz = PolicyGraph::enterprise_xyz();
    let inst = instantiate(&xyz, Ts::ZERO).unwrap();
    let s = inst.pool.stats();
    println!(
        "roles: {}   rules: {}   events: {}",
        xyz.roles.len(),
        s.total,
        inst.stats.event_nodes
    );
    println!(
        "classes: administrative={} activity-control={} active-security={}",
        s.administrative, s.activity_control, s.active_security
    );
    println!(
        "granularity: specialized={} localized={} globalized={}",
        s.specialized, s.localized, s.globalized
    );
    println!("activation-rule variants per role flags:");
    for role in ["PM", "PC", "AM", "AC", "Clerk"] {
        let rule = (1..=4)
            .find_map(|v| inst.pool.get_by_name(&format!("AAR{v}_{role}")))
            .expect("one variant per role");
        println!("  {role:<6} -> {}", rule.name.split('_').next().unwrap());
    }
    emit_json(
        "E1",
        &format!(
            "{{\"roles\":{},\"rules\":{},\"events\":{},\"administrative\":{},\
             \"activity_control\":{},\"active_security\":{}}}\n",
            xyz.roles.len(),
            s.total,
            inst.stats.event_nodes,
            s.administrative,
            s.activity_control,
            s.active_security
        ),
    );

    println!("\n== E2: roles -> rules (\"hundreds of roles, thousands of rules\") ==");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12} {:>14}",
        "roles", "rules", "checks", "events", "gen time", "rules/role"
    );
    let mut e2_rows = Vec::new();
    for &roles in &[10usize, 50, 100, 200, 500, 1000] {
        let g = generate_enterprise(&EnterpriseSpec::sized(roles), 42);
        let t0 = Instant::now();
        let inst = instantiate(&g, Ts::ZERO).unwrap();
        let dt = t0.elapsed();
        let s = inst.pool.stats();
        println!(
            "{roles:>8} {:>10} {:>10} {:>10} {:>12?} {:>14.2}",
            s.total,
            s.checks,
            inst.stats.event_nodes,
            dt,
            s.total as f64 / roles as f64
        );
        e2_rows.push(format!(
            "{{\"roles\":{roles},\"rules\":{},\"checks\":{},\"events\":{},\"gen_ms\":{:.3}}}",
            s.total,
            s.checks,
            inst.stats.event_nodes,
            dt.as_secs_f64() * 1e3
        ));
    }
    emit_json("E2", &format!("[{}]\n", e2_rows.join(",")));

    println!("\n== E3: regeneration scope on a shift change (one role) ==");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "roles", "total rules", "rewritten", "incr time", "rebuild time"
    );
    let mut e3_rows = Vec::new();
    for &roles in &[50usize, 200, 500, 1000] {
        let base = generate_enterprise(&EnterpriseSpec::sized(roles), 42);
        let mut changed = base.clone();
        changed.role("role0").enabling = Some(DailyWindow {
            start_h: 9,
            start_m: 0,
            end_h: 17,
            end_m: 0,
        });
        let mut inst = instantiate(&base, Ts::ZERO).unwrap();
        let t0 = Instant::now();
        let report = regenerate(&mut inst, &changed).unwrap();
        let incr = t0.elapsed();
        let t0 = Instant::now();
        let fresh = instantiate(&changed, Ts::ZERO).unwrap();
        let full = t0.elapsed();
        println!(
            "{roles:>8} {:>12} {:>12} {:>14?} {:>14?}",
            fresh.pool.len(),
            report.rules_rewritten,
            incr,
            full
        );
        e3_rows.push(format!(
            "{{\"roles\":{roles},\"total_rules\":{},\"rewritten\":{},\
             \"incr_ms\":{:.3},\"rebuild_ms\":{:.3}}}",
            fresh.pool.len(),
            report.rules_rewritten,
            incr.as_secs_f64() * 1e3,
            full.as_secs_f64() * 1e3
        ));
    }
    emit_json("E3", &format!("[{}]\n", e3_rows.join(",")));

    println!("\n== E11: bounded model check (tiny enterprise, exhaustive) ==");
    let graph = tiny_enterprise();
    let invariants = Invariants::from_reference(&graph);
    let config = DurableConfig {
        snapshot_every: Some(4),
        ..DurableConfig::default()
    };
    let budget = Budget {
        max_steps: 10,
        max_crashes: 1,
        max_states: 2_000_000,
        ..Budget::default()
    };
    let mut e11 = String::from("{");
    for (label, reduction) in [("reduced", true), ("raw", false)] {
        // The raw walk validates the reduction on a smaller space: two
        // client ops and five steps are already thousands of schedules.
        let (ops, steps) = if reduction {
            (tiny_ops(), budget.max_steps)
        } else {
            (tiny_ops()[..2].to_vec(), 5)
        };
        let world = World::new(&graph, ops, config.clone()).expect("tiny policy instantiates");
        let t0 = Instant::now();
        let outcome = explore(
            &world,
            &invariants,
            Strategy::Exhaustive { reduction },
            Budget {
                max_steps: steps,
                ..budget.clone()
            },
        );
        let dt = t0.elapsed();
        let Outcome::Clean(stats) = outcome else {
            panic!("honest tiny enterprise must sweep clean");
        };
        println!(
            "{label:>8}: {} states explored, {} fingerprint-pruned, {} stutter-pruned, \
             complete={} ({dt:?}, {} steps, {} ops)",
            stats.explored,
            stats.pruned_fingerprint,
            stats.pruned_stutter,
            stats.complete,
            steps,
            if reduction { 7 } else { 2 },
        );
        let _ = write!(
            e11,
            "\"{label}\":{{\"explored\":{},\"pruned_fingerprint\":{},\
             \"pruned_stutter\":{},\"complete\":{},\"ms\":{:.3}}},",
            stats.explored,
            stats.pruned_fingerprint,
            stats.pruned_stutter,
            stats.complete,
            dt.as_secs_f64() * 1e3
        );
    }
    // Seeded-bug detection: both doctored stacks must fail, minimally.
    for (label, doctored_graph, dconfig, crashes) in [
        (
            "seeded_ssd",
            strip_sod(tiny_enterprise()),
            DurableConfig::default(),
            0usize,
        ),
        (
            "seeded_durability",
            tiny_enterprise(),
            DurableConfig {
                sync_on_append: false,
                snapshot_every: None,
                ..DurableConfig::default()
            },
            1,
        ),
    ] {
        let world =
            World::new(&doctored_graph, tiny_ops(), dconfig).expect("doctored policy instantiates");
        let outcome = explore(
            &world,
            &invariants,
            Strategy::Exhaustive { reduction: true },
            Budget {
                max_crashes: crashes,
                ..budget.clone()
            },
        );
        let Outcome::Violation {
            violation,
            schedule,
            stats,
        } = outcome
        else {
            panic!("{label}: seeded bug went unnoticed");
        };
        println!(
            "{label:>18}: caught after {} states, minimal schedule {} steps — {violation}",
            stats.explored,
            schedule.0.len()
        );
        let _ = write!(
            e11,
            "\"{label}\":{{\"explored\":{},\"minimal_steps\":{}}},",
            stats.explored,
            schedule.0.len()
        );
    }
    e11.pop(); // trailing comma
    e11.push_str("}\n");
    emit_json("E11", &e11);

    println!("\n== E5: per-op interpreter gap — interpreted vs compiled vs direct ==");
    println!(
        "{:>8} {:>14} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "roles", "op", "direct", "interp", "compiled", "interp/d", "compiled/d"
    );
    let mut e5_rows = Vec::new();
    for &roles in &[10usize, 100] {
        let g = generate_enterprise(&EnterpriseSpec::flat(roles), 42);
        let mut compiled = Engine::from_policy(&g, Ts::ZERO).unwrap();
        assert!(
            compiled.compiled_active(),
            "E5 needs the compiled plan armed"
        );
        let mut interp = Engine::interpreted(&g, Ts::ZERO).unwrap();
        let mut direct = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let user = compiled
            .system()
            .all_users()
            .collect::<Vec<_>>()
            .into_iter()
            .find(|&u| {
                compiled
                    .system()
                    .assigned_roles(u)
                    .is_ok_and(|r| !r.is_empty())
            })
            .expect("some user holds a role");
        let assigned: Vec<RoleId> = compiled
            .system()
            .assigned_roles(user)
            .unwrap()
            .into_iter()
            .collect();
        let role = *assigned.first().expect("assignment set is non-empty");
        let sc = compiled.create_session(user, &assigned).unwrap();
        let si = interp.create_session(user, &assigned).unwrap();
        let sd = direct.create_session(user, &assigned).unwrap();
        let op = compiled.system().op_by_name("op0").unwrap();
        let obj = compiled.system().obj_by_name("obj0").unwrap();

        // check_access: the paper's Rule-5 hot path.
        let iters = 20_000usize;
        let check = |t: &mut dyn FnMut() -> bool| {
            let t0 = Instant::now();
            let mut hits = 0usize;
            for _ in 0..iters {
                hits += usize::from(t());
            }
            assert!(hits == 0 || hits == iters, "decision flapped mid-loop");
            t0.elapsed() / iters as u32
        };
        let d = check(&mut || direct.check_access(sd, op, obj).unwrap());
        let i = check(&mut || interp.check_access(si, op, obj).unwrap());
        let c = check(&mut || compiled.check_access(sc, op, obj).unwrap());

        // add/drop activation round trip (AAR + deactivation rules).
        let toggle = |t: &mut dyn FnMut()| {
            let t0 = Instant::now();
            for _ in 0..iters {
                t();
            }
            t0.elapsed() / (2 * iters as u32)
        };
        let dt = toggle(&mut || {
            direct.drop_active_role(user, sd, role).unwrap();
            direct.add_active_role(user, sd, role).unwrap();
        });
        let it = toggle(&mut || {
            interp.drop_active_role(user, si, role).unwrap();
            interp.add_active_role(user, si, role).unwrap();
        });
        let ct = toggle(&mut || {
            compiled.drop_active_role(user, sc, role).unwrap();
            compiled.add_active_role(user, sc, role).unwrap();
        });

        for (op_name, d, i, c) in [("check_access", d, i, c), ("activation", dt, it, ct)] {
            let fi = i.as_secs_f64() / d.as_secs_f64();
            let fc = c.as_secs_f64() / d.as_secs_f64();
            println!("{roles:>8} {op_name:>14} {d:>12?} {i:>12?} {c:>12?} {fi:>9.2}x {fc:>9.2}x");
            e5_rows.push(format!(
                "{{\"roles\":{roles},\"op\":\"{op_name}\",\"direct_ns\":{},\
                 \"interpreted_ns\":{},\"compiled_ns\":{},\
                 \"interpreted_factor\":{fi:.3},\"compiled_factor\":{fc:.3}}}",
                d.as_nanos(),
                i.as_nanos(),
                c.as_nanos()
            ));
        }
    }
    emit_json("E5", &format!("[{}]\n", e5_rows.join(",")));

    println!("\n== E13: mixed-workload throughput — compiled plan end to end ==");
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "roles", "steps", "direct", "interp", "compiled", "interp/d", "compiled/d"
    );
    let mut e13_rows = Vec::new();
    for &roles in &[20usize, 100] {
        let spec = EnterpriseSpec::sized(roles);
        let graph = generate_enterprise(&spec, 42);
        let steps = 2_000usize;
        let trace = generate_trace(
            &TraceSpec {
                steps,
                users: spec.users,
                roles: spec.roles,
                objects: spec.permissions,
                ..TraceSpec::default()
            },
            42,
        );
        // Identical outcomes before timing anything.
        let stats = replay_owte(&graph, &trace, spec.users);
        assert_eq!(stats, replay_owte_interpreted(&graph, &trace, spec.users));
        assert_eq!(stats, replay_direct(&graph, &trace, spec.users));
        // Best of three full replays per engine (engine build included,
        // matching the criterion series in `mixed_workload.rs`).
        let best = |f: &dyn Fn() -> bench::ReplayStats| {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    let s = f();
                    assert_eq!(s, stats);
                    t0.elapsed()
                })
                .min()
                .unwrap()
        };
        let d = best(&|| replay_direct(&graph, &trace, spec.users));
        let i = best(&|| replay_owte_interpreted(&graph, &trace, spec.users));
        let c = best(&|| replay_owte(&graph, &trace, spec.users));
        let fi = i.as_secs_f64() / d.as_secs_f64();
        let fc = c.as_secs_f64() / d.as_secs_f64();
        println!("{roles:>8} {steps:>8} {d:>12?} {i:>12?} {c:>12?} {fi:>9.2}x {fc:>9.2}x");
        e13_rows.push(format!(
            "{{\"roles\":{roles},\"steps\":{steps},\"direct_ms\":{:.3},\
             \"interpreted_ms\":{:.3},\"compiled_ms\":{:.3},\
             \"interpreted_factor\":{fi:.3},\"compiled_factor\":{fc:.3}}}",
            d.as_secs_f64() * 1e3,
            i.as_secs_f64() * 1e3,
            c.as_secs_f64() * 1e3
        ));
    }
    emit_json("E13", &format!("[{}]\n", e13_rows.join(",")));

    println!("\n== E14: replication — shipped bytes and failover recovery vs trace length ==");
    println!(
        "{:>8} {:>8} {:>12} {:>8} {:>14} {:>14}",
        "steps", "ops", "bytes", "sends", "bytes/op", "failover"
    );
    let mut e14_rows = Vec::new();
    for &steps in &[50usize, 200, 800] {
        let spec = EnterpriseSpec::sized(20);
        let graph = generate_enterprise(&spec, 42);
        let trace = generate_trace(
            &TraceSpec {
                steps,
                users: spec.users,
                roles: spec.roles,
                objects: spec.permissions,
                ..TraceSpec::default()
            },
            42,
        );
        let ops = sim::op::from_trace(&trace);
        let config = repl::ReplConfig {
            jitter: false,
            ..repl::ReplConfig::default()
        };
        let mut c = repl::Cluster::new(&graph, 3, config).expect("cluster boots");
        let mut sessions: Vec<Option<rbac::SessionId>> = vec![None; spec.users];
        for op in &ops {
            c.with_leader(|d| {
                sim::apply_client_op(d, &mut sessions, op);
            })
            .expect("leader up");
        }
        c.settle();
        let shipped = c.transport().stats();
        let committed = c.commit();
        // Failover: kill the leader, promote a follower, re-ship until
        // the survivors converge. Best of three via cloned clusters —
        // the cluster is a value, so the scenario replays exactly.
        let failover = (0..3)
            .map(|_| {
                let mut f = c.clone();
                let t0 = Instant::now();
                f.crash(0).expect("leader dies");
                f.promote(1).expect("follower promotes");
                f.settle();
                let dt = t0.elapsed();
                assert_eq!(
                    f.node_engine(1).map(|d| d.op_count()),
                    f.node_engine(2).map(|d| d.op_count()),
                    "survivors converge after failover"
                );
                dt
            })
            .min()
            .unwrap();
        let per_op = shipped.bytes_sent as f64 / committed.max(1) as f64;
        println!(
            "{steps:>8} {committed:>8} {:>12} {:>8} {per_op:>13.1}B {failover:>14?}",
            shipped.bytes_sent, shipped.sends
        );
        e14_rows.push(format!(
            "{{\"steps\":{steps},\"ops_committed\":{committed},\
             \"shipped_bytes\":{},\"sends\":{},\"bytes_per_op\":{per_op:.1},\
             \"failover_recovery_ms\":{:.3}}}",
            shipped.bytes_sent,
            shipped.sends,
            failover.as_secs_f64() * 1e3
        ));
    }
    emit_json("E14", &format!("[{}]\n", e14_rows.join(",")));

    println!("\n== E15: sharding — mutation throughput vs shard count ==");
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>10}",
        "shards", "ops", "wall", "kops/s", "speedup"
    );
    let fx = bench::sharded::e15_fixture(20_000, 42);
    let mut e15_rows = Vec::new();
    let mut base_tput = None;
    let mut baseline_ops = None;
    for &shards in &[1usize, 2, 4, 8] {
        // Best of three, fresh engines per run (session churn must not
        // accumulate across runs).
        let (ops, wall) = (0..3)
            .map(|_| {
                let front = shard::ShardedEngine::new(&fx.graph, shards, Ts::ZERO)
                    .expect("generated policy shards");
                let parts = bench::sharded::partition(&front, &fx.trace, fx.users);
                let t0 = Instant::now();
                let ops = bench::sharded::drive_partitions(&front, &parts, fx.users, fx.roles);
                (ops, t0.elapsed())
            })
            .min_by_key(|&(_, d)| d)
            .unwrap();
        // The skip rule depends only on each user's own step sequence,
        // so every shard count must drive the identical workload.
        let baseline = *baseline_ops.get_or_insert(ops);
        assert_eq!(ops, baseline, "shard counts drove different workloads");
        let tput = ops as f64 / wall.as_secs_f64();
        let base = *base_tput.get_or_insert(tput);
        let speedup = tput / base;
        println!(
            "{shards:>8} {ops:>8} {wall:>12?} {:>12.1} {speedup:>9.2}x",
            tput / 1e3
        );
        e15_rows.push(format!(
            "{{\"shards\":{shards},\"ops\":{ops},\"wall_ms\":{:.3},\
             \"ops_per_sec\":{tput:.0},\"speedup\":{speedup:.3}}}",
            wall.as_secs_f64() * 1e3
        ));
    }
    emit_json("E15", &format!("[{}]\n", e15_rows.join(",")));
}
