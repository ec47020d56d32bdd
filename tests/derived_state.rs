//! The monitor's derived state across a store: the role → holders index
//! and the junior closures are not written, so an engine read back from
//! disk has to come up with them rebuilt. An empty index would answer
//! "nobody holds this role" and grant past every cardinality cap.

use owte_core::{DurableConfig, DurableEngine, FileStorage, JournalOp, MemStorage};
use policy::PolicyGraph;
use rbac::{System, UserId};
use snoop::Ts;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// What the monitor answers from derived state equals a walk over what it
/// stores.
fn assert_matches_sweep(sys: &System, at: &str) {
    assert_eq!(sys.session_count(), sys.all_sessions().count(), "{at}");
    for r in sys.all_roles() {
        let holders: BTreeSet<UserId> = sys
            .all_sessions()
            .filter(|&s| sys.is_active_in_session(s, r) == Ok(true))
            .map(|s| sys.session_user(s).expect("open"))
            .collect();
        assert_eq!(sys.active_users_of_role(r), Ok(holders.len()), "{at}: {r}");
        assert_eq!(
            sys.role_active_anywhere(r),
            !holders.is_empty(),
            "{at}: {r}"
        );
        for u in sys.all_users() {
            assert_eq!(sys.user_active_in_role(u, r), holders.contains(&u), "{at}");
        }
        let (mut below, mut stack) = (BTreeSet::new(), vec![r]);
        while let Some(cur) = stack.pop() {
            for j in sys.immediate_juniors(cur).expect("live role") {
                if below.insert(j) {
                    stack.push(j);
                }
            }
        }
        assert_eq!(sys.juniors_closure(r), Ok(below), "{at}: below {r}");
    }
}

/// A private copy of a committed store: opening may repair or rotate files.
fn copy_of(fixture: &str) -> PathBuf {
    let from = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let name = format!(
        "owte-derived-{}-{}",
        fixture.replace('/', "-"),
        std::process::id()
    );
    let to = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&to).ok();
    std::fs::create_dir_all(&to).unwrap();
    for entry in std::fs::read_dir(&from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
    to
}

/// Stores written before the index existed, snapshot plus journal tail.
/// `wal_pr12` ends with three activations in force; in `wire_pr13/store`
/// the snapshot holds two and the replayed tail (a Δ expiry, a drop) takes
/// both away again, through the index rebuilt from the snapshot.
#[test]
fn committed_stores_open_with_their_derived_state() {
    for (fixture, activations) in [("wal_pr12", 3), ("wire_pr13/store", 0)] {
        let dir = copy_of(fixture);
        let config = DurableConfig {
            snapshot_every: None,
            ..DurableConfig::default()
        };
        let mut d = DurableEngine::open(FileStorage::open(&dir).unwrap(), config)
            .expect("a store written by an earlier commit opens");
        assert!(d.snapshot_ops() > 0 && d.op_count() > d.snapshot_ops());
        let sys = d.engine().system();
        assert_matches_sweep(sys, fixture);
        let in_force: usize = sys
            .all_sessions()
            .map(|s| sys.session_roles(s).expect("open").len())
            .sum();
        assert_eq!(in_force, activations, "{fixture}");

        // The restored index is the one the next writes maintain.
        let clerk = d.role_id("clerk").unwrap();
        assert_eq!(
            sys.role_active_anywhere(clerk),
            activations > 0,
            "{fixture}"
        );
        d.submit(&JournalOp::DisableRole { role: clerk })
            .expect("no rule forbids it");
        assert!(
            !d.engine().system().role_active_anywhere(clerk),
            "{fixture}"
        );
        assert_matches_sweep(d.engine().system(), fixture);
        drop(d);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A cap of one, taken before the snapshot: the reopened engine refuses
/// the second user and the first user's second session still gets in.
#[test]
fn a_reopened_engine_still_enforces_its_caps() {
    let mut g = PolicyGraph::new("capped");
    g.role("lead").max_active_users = Some(1);
    g.role("staff");
    g.inherits("lead", "staff");
    for u in ["ann", "bob"] {
        g.user(u);
        g.assign(u, "lead");
    }
    let config = DurableConfig::default();
    let mut d = DurableEngine::create(MemStorage::new(), &g, Ts::ZERO, config.clone()).unwrap();
    let (ann, bob) = (d.user_id("ann").unwrap(), d.user_id("bob").unwrap());
    let (lead, staff) = (d.role_id("lead").unwrap(), d.role_id("staff").unwrap());
    d.create_session(ann, &[lead]).unwrap();
    d.snapshot_now().unwrap();
    let bobs = d.create_session(bob, &[]).unwrap();

    let mut d = DurableEngine::open(d.into_storage(), config).unwrap();
    assert!(d.snapshot_ops() > 0, "recovered from the snapshot");
    assert_matches_sweep(d.engine().system(), "reopened");
    assert!(
        d.add_active_role(bob, bobs, lead).is_err(),
        "the cap is taken"
    );
    d.create_session(ann, &[lead])
        .expect("same user, second session");
    assert_eq!(d.engine().system().active_users_of_role(lead), Ok(1));
    // The junior closure came back too: `staff` is authorized through it.
    assert_eq!(
        d.engine().system().juniors_closure(lead),
        Ok([staff].into())
    );
    d.add_active_role(bob, bobs, staff)
        .expect("authorized as a junior of lead");
    assert_matches_sweep(d.engine().system(), "after the writes");
}
