//! Allocation budget of the decision path, counted by a `#[global_allocator]`
//! (which is why this file is a test binary of its own).
//!
//! Everything a request needs by name — parameter keys, rule names, a
//! primitive event's source list — is fixed when the policy is generated,
//! so the path from `Engine::check_access` to its audit entries must not
//! rebuild any of it per request.
//!
//! Heap allocations per operation (`realloc` counted as one) on
//! `EnterpriseSpec::sized(20)`, seed 7, audit ring reserved, after warm-up,
//! through the compiled plan / through the reference interpreter: while
//! every request rebuilt its names, while every request still built a
//! parameter list and an occurrence, and now. Each evaluator has a budget
//! of its own:
//!
//! | operation                | names rebuilt | occurrences | now    | plan | interp. |
//! |--------------------------|---------------|-------------|--------|------|---------|
//! | `check_access` granted   | 17 / 18       | 1 / 1       | 0 / 1  | 0    | 1       |
//! | ... through a junior     |  5 / 5        | 1 / 1       | 0 / 1  | 0    | 1       |
//! | `check_access` denied    | 29 / 30       | 5 / 5       | 4 / 5  | 4    | 14      |
//! | `add_active_role`        | 37 / 41       | 3 / 5       | 1 / 5  | 1    | 18      |
//! | `drop_active_role`       | 22 / 25       | 2 / 4       | 0 / 4  | 0    | 11      |
//!
//! The plan's budget is exactly what it measures: a request whose event it
//! resolved and no composite listens to reaches the rules as its typed
//! fields ([`sentinel::Request`]), without a parameter list or an
//! occurrence, and a follow-up event nothing listens to — the
//! `sessionRoleAdded_<R>` / `sessionRoleDropped_<R>` of a role without a
//! Δ — is only counted. A granted check, through a junior or not, and a
//! deactivation allocate nothing. A denial's four are its message, twice
//! (the report's and the audit entry's), the report's denial list, and
//! the parameter list of the `accessDenied` raise that follows: its one
//! parameter is a timestamp, not an id, which keeps that raise on the
//! occurrence path. An activation's one is the monitor's index entry.
//!
//! The interpreter's budget is the one from before the split, unchanged: the
//! interpreter raises everything through the detector, so it stays the
//! occurrence path's reference, where a granted check is its parameter
//! buffer and the two extra of an activation or a deactivation are the
//! engine building the per-role event name. Its last three budgets are
//! half of the old compiled-plan counts, rounded down: a regression that
//! brings back one allocation per key, per audit entry or per propagation
//! step lands well above them. The second row is a permission the active
//! role holds only through a junior; its first column is the commit that
//! still walked the hierarchy per check (a stack and a set each time),
//! where the engine now reads the role's permission closure from its
//! policy view, so an inherited grant costs what a direct one does.

use owte_core::Engine;
use rbac::{ObjId, OpId, RoleId, SessionId, UserId};
use snoop::{EventId, Interval, Key, Occurrence, Params, Ts};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workload::{generate_enterprise, EnterpriseSpec};

thread_local! {
    /// Allocations made by the current thread; the tests of this binary
    /// run on threads of their own, so they do not see each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// An engine with one open session and the operands of the four measured
/// operations, all found by asking the monitor, not by knowing the seed.
struct Bench {
    engine: Engine,
    user: UserId,
    /// Holds one active role, which is granted `granted` directly and
    /// `inherited` only through a junior.
    session: SessionId,
    /// Authorized for `user`, enabled and not active in `session`.
    extra: RoleId,
    granted: (OpId, ObjId),
    inherited: (OpId, ObjId),
    denied: (OpId, ObjId),
}

fn bench(compiled: bool) -> Bench {
    let graph = generate_enterprise(&EnterpriseSpec::sized(20), 7);
    let build = if compiled {
        Engine::from_policy
    } else {
        Engine::interpreted
    };
    let engine = build(&graph, Ts::ZERO).expect("generated policy instantiates");
    assert_eq!(engine.compiled_active(), compiled);
    // No maximum activation time: a Δ also schedules and cancels a timer.
    let plain = |name: &str| {
        graph
            .role_node(name)
            .is_some_and(|r| r.max_activation.is_none())
    };
    let users: Vec<UserId> = engine.system().all_users().collect();
    for user in users {
        let mut trial = engine.clone();
        // A ring reserved once, as the benchmark runs it: an unbounded log
        // doubles its buffer every so often, which is not the path's cost.
        trial.set_log_cap(Some(4096));
        let Ok(session) = trial.create_session(user, &[]) else {
            continue;
        };
        let authorized = trial.system().authorized_roles(user).expect("live user");
        let usable: Vec<RoleId> = authorized
            .into_iter()
            .filter(|&r| engine.binding().role_name(r).is_some_and(plain))
            .filter(|&r| {
                trial.add_active_role(user, session, r).is_ok()
                    && trial.drop_active_role(user, session, r).is_ok()
            })
            .collect();
        // The base role is one with juniors, for the inherited grant.
        let Some(&base) = usable
            .iter()
            .find(|&&r| trial.system().in_hierarchy(r) == Ok(true))
        else {
            continue;
        };
        let Some(&extra) = usable.iter().find(|&&r| r != base) else {
            continue;
        };
        let direct = trial
            .system()
            .role_direct_permissions(base)
            .expect("live role");
        let mut pairs: Vec<((OpId, ObjId), bool)> = trial
            .system()
            .permission_pairs()
            .map(|(pair, perm)| (pair, direct.contains(&perm)))
            .collect();
        pairs.sort_unstable();
        trial
            .add_active_role(user, session, base)
            .expect("activated before");
        let holds = |(op, obj): (OpId, ObjId)| trial.system().check_access(session, op, obj);
        let find = |direct: bool, held: bool| {
            let mut found = pairs
                .iter()
                .filter(|&&(p, d)| d == direct && holds(p) == Ok(held));
            found.next().map(|&(p, _)| p)
        };
        let (Some(granted), Some(inherited), Some(denied)) =
            (find(true, true), find(false, true), find(false, false))
        else {
            continue;
        };
        return Bench {
            engine: trial,
            user,
            session,
            extra,
            granted,
            inherited,
            denied,
        };
    }
    panic!("no user of the generated enterprise can run all four operations");
}

/// Worst count over `reps` repetitions of `op`, after `warm` unmeasured
/// ones (lazy plan, buffer capacities, the denial history's ring).
fn worst(b: &mut Bench, warm: usize, reps: usize, mut op: impl FnMut(&mut Bench)) -> u64 {
    for _ in 0..warm {
        op(b);
    }
    (0..reps)
        .map(|_| allocations(|| op(b)).0)
        .max()
        .expect("reps > 0")
}

/// `[granted check, inherited grant, denied check, add_active_role,
/// drop_active_role]` through the compiled plan.
const PLAN_BUDGET: [u64; 5] = [0, 0, 4, 1, 0];

/// The same through the reference interpreter.
const INTERPRETER_BUDGET: [u64; 5] = [1, 1, 14, 18, 11];

fn measure(compiled: bool) -> [u64; 5] {
    let mut b = bench(compiled);
    let granted = worst(&mut b, 8, 16, |b| {
        let (op, obj) = b.granted;
        let ok = b.engine.check_access(b.session, op, obj);
        assert_eq!(ok, Ok(true));
    });
    let inherited = worst(&mut b, 8, 16, |b| {
        let (op, obj) = b.inherited;
        let ok = b.engine.check_access(b.session, op, obj);
        assert_eq!(ok, Ok(true));
    });
    // 40 + 16 denials stay inside the denial history's 64-slot buffer.
    let denied = worst(&mut b, 40, 16, |b| {
        let (op, obj) = b.denied;
        let ok = b.engine.check_access(b.session, op, obj);
        assert_eq!(ok, Ok(false));
    });
    let (mut add, mut drop) = (0, 0);
    for i in 0..24 {
        let (user, session, role) = (b.user, b.session, b.extra);
        let (a, r) = allocations(|| b.engine.add_active_role(user, session, role));
        assert_eq!(r, Ok(()), "authorized, enabled, not active");
        let (d, r) = allocations(|| b.engine.drop_active_role(user, session, role));
        assert_eq!(r, Ok(()), "active");
        if i >= 8 {
            add = add.max(a);
            drop = drop.max(d);
        }
    }
    [granted, inherited, denied, add, drop]
}

fn within_budget(compiled: bool, budget: [u64; 5]) {
    let got = measure(compiled);
    let evaluator = if compiled { "plan" } else { "interpreter" };
    // The measured row, for the CI log (`-- --nocapture`).
    println!("allocations [granted, inherited, denied, add, drop], {evaluator}: {got:?}, budget {budget:?}");
    assert!(
        got.iter().zip(budget).all(|(&n, max)| n <= max),
        "allocations per [granted check, inherited grant, denied check, add_active_role, \
         drop_active_role] through the {evaluator}: {got:?}, budget {budget:?}",
    );
}

#[test]
fn compiled_engine_stays_inside_the_allocation_budget() {
    within_budget(true, PLAN_BUDGET);
}

#[test]
fn interpreter_stays_inside_the_allocation_budget() {
    within_budget(false, INTERPRETER_BUDGET);
}

/// Names that reached the engine as run-time strings (DSL text, a restored
/// snapshot) are shared like the literals are: overwriting a parameter and
/// merging two four-key occurrences build no key.
#[test]
fn overwrite_and_composite_merge_allocate_nothing_for_keys() {
    let names = ["user", "session", "role", "op"].map(|n| Key::from(n.to_string()));
    let occurrence = |id, base: i64| {
        let mut p = Params::with_capacity(names.len());
        for (i, k) in names.iter().enumerate() {
            p.set(k, base + i as i64);
        }
        Occurrence::primitive(EventId(id), Ts::from_secs(u64::from(id)), p)
    };
    let (mut a, b) = (occurrence(1, 0), occurrence(2, 10));
    assert_eq!(allocations(|| a.params.set(&names[0], 7i64)).0, 0);
    assert_eq!(allocations(|| a.params.set("user", 8i64)).0, 0);

    let span = Interval::new(Ts::from_secs(1), Ts::from_secs(2));
    let (n, both) = allocations(|| Occurrence::composite(EventId(9), span, &[&a, &b]));
    assert_eq!(both.params.len(), 4);
    assert_eq!(
        n, 3,
        "a composite is its parameter buffer, its source list and the list's shared box"
    );
}
