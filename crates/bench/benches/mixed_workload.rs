//! E5 complement — end-to-end mixed-workload throughput: realistic traces
//! (sessions, activations, accesses, clock advances) replayed against both
//! engines over identically-seeded enterprises.
//!
//! Expected shape: the OWTE/direct gap measured per-operation in
//! `enforcement.rs` (tens of ×) shrinks here because trace overhead
//! (session bookkeeping, monitor work) is shared; the paper's "acceptable
//! overhead" claim is about this end-to-end number. The `owte_interp`
//! series is the reference evaluator (`Engine::interpreted`), so the
//! compiled plan's end-to-end contribution is visible separately (E13).

use bench::{replay_direct, replay_owte, replay_owte_interpreted};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use workload::{generate_enterprise, generate_trace, EnterpriseSpec, TraceSpec};

fn bench_mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixed_workload");
    group.sample_size(10);
    for &roles in &[20usize, 100] {
        let spec = EnterpriseSpec::sized(roles);
        let graph = generate_enterprise(&spec, 42);
        let trace = generate_trace(
            &TraceSpec {
                steps: 2_000,
                users: spec.users,
                roles: spec.roles,
                objects: spec.permissions,
                ..TraceSpec::default()
            },
            42,
        );
        // Sanity: identical outcomes before measuring anything.
        assert_eq!(
            replay_owte(&graph, &trace, spec.users),
            replay_direct(&graph, &trace, spec.users)
        );
        assert_eq!(
            replay_owte(&graph, &trace, spec.users),
            replay_owte_interpreted(&graph, &trace, spec.users)
        );
        group.throughput(Throughput::Elements(trace.len() as u64));
        group.bench_with_input(BenchmarkId::new("owte", roles), &roles, |b, _| {
            b.iter(|| black_box(replay_owte(&graph, &trace, spec.users)))
        });
        group.bench_with_input(BenchmarkId::new("owte_interp", roles), &roles, |b, _| {
            b.iter(|| black_box(replay_owte_interpreted(&graph, &trace, spec.users)))
        });
        group.bench_with_input(BenchmarkId::new("direct", roles), &roles, |b, _| {
            b.iter(|| black_box(replay_direct(&graph, &trace, spec.users)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mixed);
criterion_main!(benches);
