//! Golden compiled-plan listing for the paper's Figure-1 enterprise-XYZ
//! policy: the verified pool lowers eagerly, the dump is deterministic,
//! and it covers every rule and every dispatching event. The same text is
//! what `rbacsh analyze --plan` prints.

use owte_core::Engine;
use policy::PolicyGraph;
use snoop::Ts;

#[test]
fn xyz_plan_dump_is_stable_and_exported() {
    let mut e = Engine::from_policy(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
    assert!(
        e.compiled_active(),
        "the verified XYZ pool must compile eagerly"
    );
    let plan = e.plan_text().unwrap();
    assert!(
        plan.starts_with("compiled plan: 23 rules"),
        "Figure-1 pool size in the header: {}",
        plan.lines().next().unwrap_or("")
    );
    assert!(plan.contains("on checkAccess"), "{plan}");
    // Every pool rule gets a bytecode listing.
    for (_, r) in e.pool().iter() {
        assert!(
            plan.contains(&format!("rule {} [", r.name)),
            "missing listing for rule {}",
            r.name
        );
    }
    // The check-access rule compiles to real condition bytecode.
    assert!(plan.contains("rule CA ["), "{plan}");

    // Deterministic: an independently built engine dumps identical text.
    let mut e2 = Engine::from_policy(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
    assert_eq!(plan, e2.plan_text().unwrap(), "plan dump must be stable");

    // The reference evaluator has no plan to list.
    let mut oracle = Engine::interpreted(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
    assert_eq!(oracle.plan_text(), None);

    // Refresh the committed artifact location so `dot/plan_xyz.txt`
    // always matches the compiler (same pattern as the analyzer DOTs).
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("dot");
    if dir.is_dir() {
        std::fs::write(dir.join("plan_xyz.txt"), &plan).unwrap();
    }
}
