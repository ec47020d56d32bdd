//! E5 — rule-driven enforcement vs the direct baseline (§4.3.1's AAR₁…AAR₄
//! and Rule 5's check-access).
//!
//! Expected shape: the direct engine wins on raw latency by a small
//! constant factor (the OWTE engine pays event raising + rule lookup +
//! condition interpretation per request); the factor should be roughly flat
//! across role-set size since both sit on the same monitor. The paper's
//! pitch is flexibility at acceptable overhead — this series quantifies
//! "acceptable".
//!
//! Each series runs three ways: `owte` (compiled dispatch plan, the
//! default), `owte_interp` (the reference evaluator, `Engine::interpreted`,
//! over the same policy), and `direct`. The owte/owte_interp spread is
//! the compilation speedup; the owte/direct spread is the remaining
//! flexibility overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use owte_core::{DirectEngine, Engine};
use policy::PolicyGraph;
use rbac::{RoleId, SessionId, UserId};
use snoop::Ts;
use std::hint::black_box;
use workload::{generate_enterprise, EnterpriseSpec};

struct Fixture {
    owte: Engine,
    interp: Engine,
    direct: DirectEngine,
    user: UserId,
    session_owte: SessionId,
    session_interp: SessionId,
    session_direct: SessionId,
    role: RoleId,
}

/// A fixture whose `role` matches the requested AAR variant.
fn fixture(variant: &str) -> Fixture {
    let mut g = PolicyGraph::new("bench");
    g.user("u");
    match variant {
        "aar1_core" => {
            g.role("target");
        }
        "aar2_hierarchy" => {
            g.role("senior");
            g.role("target");
            g.inherits("senior", "target");
        }
        "aar3_dsd" => {
            g.role("target");
            g.role("other");
            g.dsd_set("x", &["target", "other"], 2);
        }
        "aar4_dsd_hierarchy" => {
            g.role("senior");
            g.role("target");
            g.role("other");
            g.inherits("senior", "target");
            g.dsd_set("x", &["target", "other"], 2);
        }
        "cardinality" => {
            g.role("target").max_active_users = Some(1000);
        }
        _ => unreachable!("unknown variant"),
    }
    let assignee = if variant.contains("hierarchy") {
        "senior"
    } else {
        "target"
    };
    g.assign("u", assignee);
    let owte = Engine::from_policy(&g, Ts::ZERO).unwrap();
    let interp = Engine::interpreted(&g, Ts::ZERO).unwrap();
    let direct = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
    let mut fx = Fixture {
        user: owte.user_id("u").unwrap(),
        role: owte.role_id("target").unwrap(),
        session_owte: SessionId(0),
        session_interp: SessionId(0),
        session_direct: SessionId(0),
        owte,
        interp,
        direct,
    };
    fx.session_owte = fx.owte.create_session(fx.user, &[]).unwrap();
    fx.session_interp = fx.interp.create_session(fx.user, &[]).unwrap();
    fx.session_direct = fx.direct.create_session(fx.user, &[]).unwrap();
    fx
}

fn bench_activation_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("enforcement/activation");
    for variant in [
        "aar1_core",
        "aar2_hierarchy",
        "aar3_dsd",
        "aar4_dsd_hierarchy",
        "cardinality",
    ] {
        let mut fx = fixture(variant);
        group.bench_function(BenchmarkId::new("owte", variant), |b| {
            b.iter(|| {
                fx.owte
                    .add_active_role(fx.user, fx.session_owte, fx.role)
                    .unwrap();
                fx.owte
                    .drop_active_role(fx.user, fx.session_owte, fx.role)
                    .unwrap();
            })
        });
        group.bench_function(BenchmarkId::new("owte_interp", variant), |b| {
            b.iter(|| {
                fx.interp
                    .add_active_role(fx.user, fx.session_interp, fx.role)
                    .unwrap();
                fx.interp
                    .drop_active_role(fx.user, fx.session_interp, fx.role)
                    .unwrap();
            })
        });
        group.bench_function(BenchmarkId::new("direct", variant), |b| {
            b.iter(|| {
                fx.direct
                    .add_active_role(fx.user, fx.session_direct, fx.role)
                    .unwrap();
                fx.direct
                    .drop_active_role(fx.user, fx.session_direct, fx.role)
                    .unwrap();
            })
        });
    }
    group.finish();
}

fn bench_check_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("enforcement/check_access");
    for &roles in &[10usize, 100, 500] {
        let g = generate_enterprise(&EnterpriseSpec::flat(roles), 42);
        let mut owte = Engine::from_policy(&g, Ts::ZERO).unwrap();
        let mut interp = Engine::interpreted(&g, Ts::ZERO).unwrap();
        let mut direct = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let user = owte.user_id("user0").unwrap();
        // Activate everything user0 is assigned to, in all engines.
        let assigned: Vec<RoleId> = owte
            .system()
            .assigned_roles(user)
            .unwrap()
            .into_iter()
            .collect();
        let so = owte.create_session(user, &assigned).unwrap();
        let si = interp.create_session(user, &assigned).unwrap();
        let sd = direct.create_session(user, &assigned).unwrap();
        let op = owte.system().op_by_name("op0").unwrap();
        let obj = owte.system().obj_by_name("obj0").unwrap();

        group.bench_with_input(BenchmarkId::new("owte", roles), &roles, |b, _| {
            b.iter(|| black_box(owte.check_access(so, op, obj).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("owte_interp", roles), &roles, |b, _| {
            b.iter(|| black_box(interp.check_access(si, op, obj).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("direct", roles), &roles, |b, _| {
            b.iter(|| black_box(direct.check_access(sd, op, obj).unwrap()))
        });
    }
    group.finish();
}

fn bench_hierarchy_depth(c: &mut Criterion) {
    // Authorization through a deep chain: user assigned at the top,
    // activates the bottom role.
    let mut group = c.benchmark_group("enforcement/hierarchy_depth");
    for &depth in &[1usize, 8, 32] {
        let mut g = PolicyGraph::new("chain");
        g.user("u");
        for i in 0..=depth {
            g.role(&format!("r{i}"));
            if i > 0 {
                g.inherits(&format!("r{}", i - 1), &format!("r{i}"));
            }
        }
        g.assign("u", "r0");
        let mut owte = Engine::from_policy(&g, Ts::ZERO).unwrap();
        let mut interp = Engine::interpreted(&g, Ts::ZERO).unwrap();
        let mut direct = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let u = owte.user_id("u").unwrap();
        let bottom = owte.role_id(&format!("r{depth}")).unwrap();
        let so = owte.create_session(u, &[]).unwrap();
        let si = interp.create_session(u, &[]).unwrap();
        let sd = direct.create_session(u, &[]).unwrap();

        group.bench_with_input(BenchmarkId::new("owte", depth), &depth, |b, _| {
            b.iter(|| {
                owte.add_active_role(u, so, bottom).unwrap();
                owte.drop_active_role(u, so, bottom).unwrap();
            })
        });
        group.bench_with_input(BenchmarkId::new("owte_interp", depth), &depth, |b, _| {
            b.iter(|| {
                interp.add_active_role(u, si, bottom).unwrap();
                interp.drop_active_role(u, si, bottom).unwrap();
            })
        });
        group.bench_with_input(BenchmarkId::new("direct", depth), &depth, |b, _| {
            b.iter(|| {
                direct.add_active_role(u, sd, bottom).unwrap();
                direct.drop_active_role(u, sd, bottom).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_denial_path(c: &mut Criterion) {
    // Denials are the expensive OWTE path (Else actions + accessDenied
    // cascade); measure a guaranteed-denied activation.
    let mut g = PolicyGraph::new("deny");
    g.user("u");
    g.role("target");
    // u is NOT assigned to target.
    let mut owte = Engine::from_policy(&g, Ts::ZERO).unwrap();
    let mut interp = Engine::interpreted(&g, Ts::ZERO).unwrap();
    let mut direct = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
    let u = owte.user_id("u").unwrap();
    let r = owte.role_id("target").unwrap();
    let so = owte.create_session(u, &[]).unwrap();
    let si = interp.create_session(u, &[]).unwrap();
    let sd = direct.create_session(u, &[]).unwrap();
    let mut group = c.benchmark_group("enforcement/denied_activation");
    group.bench_function("owte", |b| {
        b.iter(|| black_box(owte.add_active_role(u, so, r).is_err()))
    });
    group.bench_function("owte_interp", |b| {
        b.iter(|| black_box(interp.add_active_role(u, si, r).is_err()))
    });
    group.bench_function("direct", |b| {
        b.iter(|| black_box(direct.add_active_role(u, sd, r).is_err()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_activation_variants,
    bench_check_access,
    bench_hierarchy_depth,
    bench_denial_path
);
criterion_main!(benches);
