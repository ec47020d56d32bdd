//! Read-path equivalence under concurrency: N reader threads racing one
//! mutator over a [`SharedEngine`] must produce exactly the state a
//! mutex-only sequential replay produces, and the lock-free fast path
//! must never leak a stale grant.

use owte_core::{Engine, SharedEngine};
use policy::PolicyGraph;
use rbac::{ObjId, OpId};
use snoop::{Dur, Ts};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

fn xyz_shared() -> SharedEngine {
    let mut g = PolicyGraph::enterprise_xyz();
    g.user("alice");
    g.user("bob");
    g.assign("alice", "PM");
    g.assign("bob", "AC");
    SharedEngine::new(Engine::from_policy(&g, Ts::ZERO).unwrap())
}

fn op_obj(e: &SharedEngine) -> (OpId, ObjId) {
    e.with(|e| {
        (
            e.system().op_by_name("create").unwrap(),
            e.system().obj_by_name("purchase_order").unwrap(),
        )
    })
}

/// Many readers, no writers: every decision must come out identical to
/// the locked engine's, and nearly all grants must be served lock-free.
#[test]
fn readers_agree_with_locked_engine() {
    let engine = xyz_shared();
    let alice = engine.user_id("alice").unwrap();
    let pm = engine.role_id("PM").unwrap();
    let s = engine.create_session(alice, &[pm]).unwrap();
    let (create, po) = op_obj(&engine);
    let expected = engine.with(|e| e.check_access(s, create, po).unwrap());
    assert!(expected);

    let mut handles = Vec::new();
    for _ in 0..8 {
        let e = engine.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..500 {
                assert!(e.check_access(s, create, po).unwrap());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let (fast, slow) = engine.read_stats();
    assert!(
        fast >= 8 * 500,
        "grants served from the snapshot (fast {fast}, slow {slow})"
    );
}

/// N readers race one mutator that repeatedly activates/deactivates the
/// permission-carrying role. Per-read results are racy by design (reads
/// concurrent with a write may order before it); what must hold is:
/// readers only ever see decisions the engine could have produced, and
/// the final state equals a mutex-only sequential replay.
#[test]
fn readers_race_one_mutator_equivalently() {
    let engine = xyz_shared();
    let alice = engine.user_id("alice").unwrap();
    let pm = engine.role_id("PM").unwrap();
    let s = engine.create_session(alice, &[pm]).unwrap();
    let (create, po) = op_obj(&engine);

    const ROUNDS: usize = 200;
    const READERS: usize = 4;
    let stop = Arc::new(AtomicBool::new(false));
    // Every reader is running before the first write, and reads at least
    // once, however the threads are scheduled.
    let start = Arc::new(Barrier::new(READERS + 1));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let e = engine.clone();
        let (stop, start) = (stop.clone(), start.clone());
        readers.push(thread::spawn(move || {
            let mut grants = 0usize;
            let mut checks = 0usize;
            start.wait();
            loop {
                if e.check_access(s, create, po).unwrap() {
                    grants += 1;
                }
                checks += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            (grants, checks)
        }));
    }
    start.wait();
    for _ in 0..ROUNDS {
        engine.drop_active_role(alice, s, pm).unwrap();
        engine.add_active_role(alice, s, pm).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_checks = 0;
    for r in readers {
        let (_, checks) = r.join().unwrap();
        total_checks += checks;
    }
    assert!(total_checks > 0);

    // Final state must equal a mutex-only sequential replay of the same
    // mutation history (the readers are decision-only and cannot have
    // perturbed it). Denial counts are not compared: racy reads may have
    // hit windows where the role was dropped, which is legal behavior.
    let replay = xyz_shared();
    let r_alice = replay.user_id("alice").unwrap();
    let r_pm = replay.role_id("PM").unwrap();
    let r_s = replay.create_session(r_alice, &[r_pm]).unwrap();
    for _ in 0..ROUNDS {
        replay.drop_active_role(r_alice, r_s, r_pm).unwrap();
        replay.add_active_role(r_alice, r_s, r_pm).unwrap();
    }
    let (roles, sessions) = engine.with(|e| {
        (
            e.system().session_roles(s).unwrap(),
            e.system().session_count(),
        )
    });
    let (r_roles, r_sessions) = replay.with(|e| {
        (
            e.system().session_roles(r_s).unwrap(),
            e.system().session_count(),
        )
    });
    assert_eq!(roles, r_roles, "active role sets diverged");
    assert_eq!(sessions, r_sessions);
    // And the post-race engine answers exactly like the replay.
    assert_eq!(
        engine.check_access(s, create, po).unwrap(),
        replay.check_access(r_s, create, po).unwrap()
    );
}

/// After a mutation completes, no reader may be served the pre-mutation
/// grant: sequential staleness check.
#[test]
fn completed_mutation_is_immediately_visible() {
    let engine = xyz_shared();
    let alice = engine.user_id("alice").unwrap();
    let pm = engine.role_id("PM").unwrap();
    let s = engine.create_session(alice, &[pm]).unwrap();
    let (create, po) = op_obj(&engine);
    for _ in 0..50 {
        assert!(engine.check_access(s, create, po).unwrap());
        engine.drop_active_role(alice, s, pm).unwrap();
        assert!(
            !engine.check_access(s, create, po).unwrap(),
            "stale snapshot grant leaked past a completed drop"
        );
        engine.add_active_role(alice, s, pm).unwrap();
    }
}

/// A snapshot whose validity is bounded by a pending Δ timer must refuse
/// to answer exactly at the horizon: the timed deactivation belongs to
/// the serialized write path, and a fast-path grant at that instant would
/// leak access the rules are about to revoke.
#[test]
fn read_exactly_on_the_horizon_takes_the_locked_path() {
    let mut g = PolicyGraph::enterprise_xyz();
    g.user("alice");
    g.assign("alice", "PM");
    g.role("PM").max_activation = Some(Dur::from_hours(2));
    let engine = SharedEngine::new(Engine::from_policy(&g, Ts::ZERO).unwrap());
    let alice = engine.user_id("alice").unwrap();
    let pm = engine.role_id("PM").unwrap();
    let s = engine.create_session(alice, &[pm]).unwrap();
    let (create, po) = op_obj(&engine);

    let snap = engine.snapshot().expect("published");
    let until = snap.valid_until().expect("Δ timer bounds the snapshot");
    assert_eq!(until, Ts::ZERO + Dur::from_hours(2));
    // Strictly inside the horizon: lock-free grant.
    let (fast0, _) = engine.read_stats();
    assert!(engine
        .check_access_at(Ts(until.0 - 1), s, create, po)
        .unwrap());
    let (fast1, slow1) = engine.read_stats();
    assert_eq!(fast1, fast0 + 1, "in-horizon read served from snapshot");

    // Exactly at the horizon: must take the locked path, which fires the
    // deactivation timer first and therefore denies.
    assert!(!engine.check_access_at(until, s, create, po).unwrap());
    let (fast2, slow2) = engine.read_stats();
    assert_eq!(fast2, fast1, "horizon read did not use the snapshot");
    assert_eq!(slow2, slow1 + 1);
    // The Δ rule deactivated PM at the horizon.
    assert!(engine.with(|e| e.system().session_roles(s).unwrap().is_empty()));
}

/// The fast path stays sound when the CA rule is disabled mid-flight
/// (active-security lockdown): reads must immediately fall back to the
/// locked path, which reports the lockdown.
#[test]
fn lockdown_disables_the_fast_path() {
    let engine = xyz_shared();
    let alice = engine.user_id("alice").unwrap();
    let pm = engine.role_id("PM").unwrap();
    let s = engine.create_session(alice, &[pm]).unwrap();
    let (create, po) = op_obj(&engine);
    assert!(engine.check_access(s, create, po).unwrap());

    engine.with(|e| {
        e.disable_rule_class(sentinel::RuleClass::ActivityControl);
    });
    // The republished snapshot failed the soundness gate, so the read
    // takes the locked path, where no enabled rule answers: not granted.
    assert!(
        !engine.check_access(s, create, po).unwrap(),
        "lockdown must not be masked by a stale snapshot grant"
    );

    engine.with(|e| {
        e.enable_rule_class(sentinel::RuleClass::ActivityControl);
    });
    assert!(engine.check_access(s, create, po).unwrap());
    let snap = engine.snapshot().unwrap();
    assert!(snap.has_fast_path(), "fast path re-armed after recovery");
}

/// A snapshot shares the session table with the live engine instead of
/// copying it. A reader that keeps one `Arc<AuthSnapshot>` while other
/// threads apply 1 000 writes to the very sessions it covers — role
/// drops and re-adds, session deletes and creates, all within one chunk
/// of the table — must get the answers of the snapshot's own epoch every
/// time it asks, during the writes and after them.
#[test]
fn held_snapshot_answers_are_frozen_across_concurrent_writes() {
    const USERS: usize = 8;
    const WRITERS: usize = 2;
    const WRITES_EACH: usize = 500;

    let mut g = PolicyGraph::new("frozen");
    g.role("worker");
    g.role("aux");
    g.permission("use_tool", "use", "tool");
    g.permission("read_log", "read", "log");
    g.grant("use_tool", "worker");
    g.grant("read_log", "aux");
    for i in 0..USERS {
        let name = format!("u{i}");
        g.user(&name);
        g.assign(&name, "worker");
        g.assign(&name, "aux");
    }
    let engine = SharedEngine::new(Engine::from_policy(&g, Ts::ZERO).unwrap());
    let worker = engine.role_id("worker").unwrap();
    let aux = engine.role_id("aux").unwrap();
    let users: Vec<_> = (0..USERS)
        .map(|i| engine.user_id(&format!("u{i}")).unwrap())
        .collect();
    // Even users start with `worker` active, odd users with `aux`.
    let sessions: Vec<_> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            let role = if i % 2 == 0 { worker } else { aux };
            engine.create_session(u, &[role]).unwrap()
        })
        .collect();
    let perms = engine.with(|e| {
        let sys = e.system();
        [("use", "tool"), ("read", "log")]
            .map(|(op, obj)| (sys.op_by_name(op).unwrap(), sys.obj_by_name(obj).unwrap()))
    });

    let snap = engine.snapshot().expect("published");
    assert!(snap.has_fast_path());
    // Sessions that exist now, and ids the writers will create later.
    let questions: Vec<_> = (0..(USERS + WRITERS * WRITES_EACH) as u32)
        .flat_map(|s| perms.map(|(op, obj)| (rbac::SessionId(s), op, obj)))
        .collect();
    let ask = |snap: &owte_core::AuthSnapshot| -> Vec<bool> {
        questions
            .iter()
            .map(|&(s, op, obj)| snap.grants(s, op, obj, None))
            .collect()
    };
    let frozen = ask(&snap);
    assert_eq!(
        frozen.iter().filter(|&&g| g).count(),
        USERS,
        "one grant per open session, none for ids not handed out yet"
    );

    // The reader has its answers before the first write is applied, and
    // keeps asking until the last one has been.
    let start = Barrier::new(WRITERS + 1);
    let done = AtomicBool::new(false);
    let asked = thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (engine, start, users, sessions) = (&engine, &start, &users, &sessions);
                scope.spawn(move || {
                    start.wait();
                    // Each writer owns every WRITERS-th user.
                    let mine: Vec<usize> = (w..USERS).step_by(WRITERS).collect();
                    let mut current: Vec<_> = mine.iter().map(|&i| sessions[i]).collect();
                    for k in 0..WRITES_EACH {
                        let slot = k % mine.len();
                        let (u, s) = (users[mine[slot]], current[slot]);
                        match k % 4 {
                            0 => {
                                let _ = engine.drop_active_role(u, s, worker);
                                let _ = engine.add_active_role(u, s, aux);
                            }
                            1 => {
                                let _ = engine.drop_active_role(u, s, aux);
                            }
                            2 => {
                                let _ = engine.add_active_role(u, s, worker);
                            }
                            _ => {
                                engine.delete_session(u, s).unwrap();
                                current[slot] = engine.create_session(u, &[worker, aux]).unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            start.wait();
            let mut asked = 0usize;
            while !done.load(Ordering::Acquire) {
                // (Not `assert_eq!`: it would print both 2 016-entry lists.)
                let leak = ask(&snap)
                    .iter()
                    .zip(&frozen)
                    .position(|(now, then)| now != then);
                assert_eq!(leak, None, "a later write leaked into a held snapshot");
                asked += 1;
            }
            asked
        });
        for w in writers {
            w.join().expect("writer thread panicked");
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    assert!(asked > 0);

    // After all the writes: the held snapshot is unchanged, the engine is
    // not, and a fresh snapshot follows the engine.
    assert!(ask(&snap) == frozen, "the held snapshot changed");
    let fresh = engine.snapshot().expect("published");
    assert!(fresh.epoch() > snap.epoch());
    assert!(
        ask(&fresh) != frozen,
        "the writes did change what is granted"
    );
    engine.with(|e| {
        for &(s, op, obj) in &questions {
            assert_eq!(
                fresh.grants(s, op, obj, None),
                e.system().check_access(s, op, obj).unwrap_or(false),
                "fresh snapshot disagrees with the monitor on {s}"
            );
        }
    });
}
