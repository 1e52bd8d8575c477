//! E1 (Figure 1): discovery-engine operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selfserv_bench::{instant_net, seed_registry};
use selfserv_registry::{FindQuery, RegistryClient, RegistryServer};
use std::sync::Arc;

fn bench_registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_find");
    for size in [100usize, 1_000, 10_000] {
        let reg = seed_registry(size);
        group.bench_with_input(BenchmarkId::new("by_operation", size), &size, |b, _| {
            let mut q = 0usize;
            b.iter(|| {
                q = (q + 1) % 50;
                reg.find(&FindQuery::any().operation(format!("op{q}")))
            });
        });
        group.bench_with_input(BenchmarkId::new("by_name_exact", size), &size, |b, _| {
            let mut q = 0usize;
            b.iter(|| {
                q = (q + 7) % size;
                reg.find(&FindQuery::any().service_name(format!("Service{q:05}")))
            });
        });
        group.bench_with_input(
            BenchmarkId::new("by_provider_prefix", size),
            &size,
            |b, _| {
                b.iter(|| reg.find(&FindQuery::any().provider("Provider000")));
            },
        );
    }
    group.finish();

    // The rows above time the store alone. This one is a composer's find:
    // client → `RegistryServer` → reply → decoded records, over the fabric;
    // a category holds a fifth of the 2 000 seeded services.
    c.bench_function("registry_rpc_find/400_hits", |b| {
        let net = instant_net();
        let _server = RegistryServer::spawn(&net, "uddi", Arc::new(seed_registry(2_000))).unwrap();
        let client = RegistryClient::connect(&net, "composer", "uddi").unwrap();
        let query = FindQuery::any().category("car-rental");
        assert_eq!(client.find(&query).unwrap().len(), 400);
        b.iter(|| client.find(&query).unwrap());
    });

    c.bench_function("registry_publish_one", |b| {
        let reg = seed_registry(1_000);
        let biz = reg.save_business("BenchCo", "x").key;
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let desc = selfserv_wsdl::ServiceDescription::new(format!("Extra{i}"), "BenchCo")
                .with_operation(selfserv_wsdl::OperationDef::new("op"))
                .with_binding(selfserv_wsdl::Binding::fabric("svc.x"));
            reg.save_service(&biz, "bench", desc, None).unwrap()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(400))
        .sample_size(20);
    targets = bench_registry
}
criterion_main!(benches);
