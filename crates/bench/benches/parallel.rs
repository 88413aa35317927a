//! Parallel-engine benches: parallel conflict full builds and portfolio
//! anytime search across thread counts. Doubles as the CI smoke (`--test`):
//! every setup asserts the parallel path is bit-identical to the serial one
//! (conflict build) or never worse (portfolio under an iteration budget),
//! independent of how many cores the machine actually has.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wsn_anytime::{solve_anytime, AnytimeConfig, Budget, Portfolio};
use wsn_bitset::NodeSet;
use wsn_dutycycle::AlwaysAwake;
use wsn_interference::ConflictGraphBuilder;
use wsn_phy::ProtocolModel;
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::NodeId;

fn bench_parallel_conflict_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_conflict_build");
    group.sample_size(10);
    for nodes in [5_000usize, 20_000] {
        let (topo, src) = SyntheticDeployment::scaled(nodes).sample(3);
        let ids: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
        let mut unf = NodeSet::full(topo.len());
        unf.remove(src.idx());
        // CI smoke: the threaded full build matches the serial one.
        let mut serial = ConflictGraphBuilder::new();
        serial.update_with(&ProtocolModel, &topo, &ids, &unf);
        let mut par = ConflictGraphBuilder::new();
        par.set_build_threads(4);
        let pg = par.update_with(&ProtocolModel, &topo, &ids, &unf);
        let sg = serial.graph();
        assert_eq!(pg.len(), sg.len());
        for i in 0..pg.len() {
            assert_eq!(pg.row(i), sg.row(i), "n={nodes}: conflict row {i} drifted");
        }
        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("n{nodes}"), threads),
                &threads,
                |b, &t| {
                    b.iter(|| {
                        let mut builder = ConflictGraphBuilder::new();
                        builder.set_build_threads(t);
                        builder.update_with(&ProtocolModel, black_box(&topo), &ids, &unf);
                        builder.graph().len()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_portfolio(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio_search");
    group.sample_size(10);
    let (topo, src) = SyntheticDeployment::scaled(2_000).sample(3);
    let cfg = AnytimeConfig {
        budget: Budget::Iterations(5_000),
        ..AnytimeConfig::default()
    };
    let serial = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
    for threads in [1usize, 2, 4] {
        let port = Portfolio::with_config(cfg.clone(), threads);
        let out = port.solve(&topo, src, &AlwaysAwake, &ProtocolModel);
        // CI smoke: the portfolio contract — valid schedules that never
        // lose to the serial chain under the same iteration budget.
        out.schedule.verify(&topo, &AlwaysAwake).unwrap();
        assert!(
            out.latency <= serial.latency,
            "threads {threads}: portfolio ({}) lost to serial ({})",
            out.latency,
            serial.latency
        );
        group.bench_with_input(
            BenchmarkId::new(format!("n2000(P={})", out.latency), threads),
            &threads,
            |b, _| b.iter(|| port.solve(black_box(&topo), src, &AlwaysAwake, &ProtocolModel)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_conflict_build, bench_portfolio);
criterion_main!(benches);
