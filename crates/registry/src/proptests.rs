//! Property tests: index consistency under arbitrary publish/delete
//! interleavings, query/scan agreement, and agreement of the trees the
//! server replies with and the records they were built from.

use crate::server::RegistryLogic;
use crate::{FindQuery, ServiceKey, ServiceSummary, UddiRegistry};
use proptest::prelude::*;
use selfserv_net::{Envelope, NodeId};
use selfserv_wsdl::{Binding, OperationDef, ServiceDescription};
use selfserv_xml::Element;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)]
enum Op {
    Publish { name_seed: u8, op_seed: u8 },
    Delete { idx_seed: u8 },
    FindByOp { op_seed: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>())
            .prop_map(|(name_seed, op_seed)| Op::Publish { name_seed, op_seed }),
        any::<u8>().prop_map(|idx_seed| Op::Delete { idx_seed }),
        any::<u8>().prop_map(|op_seed| Op::FindByOp { op_seed }),
    ]
}

/// Lease of the records [`StoreOp::Expire`] makes expire.
const SHORT_LEASE: Duration = Duration::from_millis(3);

#[derive(Debug, Clone)]
enum StoreOp {
    Publish {
        name_seed: u8,
        op_seed: u8,
        second_business: bool,
        leased: bool,
    },
    Delete {
        idx_seed: u8,
    },
    Renew {
        idx_seed: u8,
    },
    /// Waits until every short lease granted or renewed so far has run out.
    Expire,
    Sweep,
}

/// Four in ten publish, two delete, two renew, one each expire and sweep.
fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    (
        0u8..10,
        any::<u8>(),
        any::<u8>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(kind, name_seed, op_seed, second_business, leased)| match kind {
                0..=3 => StoreOp::Publish {
                    name_seed,
                    op_seed,
                    second_business,
                    leased,
                },
                4 | 5 => StoreOp::Delete {
                    idx_seed: name_seed,
                },
                6 | 7 => StoreOp::Renew {
                    idx_seed: name_seed,
                },
                8 => StoreOp::Expire,
                _ => StoreOp::Sweep,
            },
        )
}

fn request(kind: &str, body: Element) -> Envelope {
    Envelope::synthetic(NodeId::new("client"), kind, body)
}

fn service_name(seed: u8) -> String {
    format!("Service-{seed}")
}

fn operation_name(seed: u8) -> String {
    format!("op{}", seed % 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any interleaving of publishes and deletes, the indexed `find`
    /// answers agree with a naive full scan.
    #[test]
    fn find_agrees_with_full_scan(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let reg = UddiRegistry::new();
        let biz = reg.save_business("PropCo", "p@p").key;
        let mut published: Vec<crate::ServiceKey> = Vec::new();
        let mut counter = 0u32;
        for op in ops {
            match op {
                Op::Publish { name_seed, op_seed } => {
                    counter += 1;
                    // Unique names to avoid duplicate-service rejections.
                    let name = format!("{}-{counter}", service_name(name_seed));
                    let desc = ServiceDescription::new(name, "PropCo")
                        .with_operation(OperationDef::new(operation_name(op_seed)))
                        .with_binding(Binding::fabric("n"));
                    let key = reg.save_service(&biz, "cat", desc, None).unwrap();
                    published.push(key);
                }
                Op::Delete { idx_seed } => {
                    if !published.is_empty() {
                        let idx = idx_seed as usize % published.len();
                        let key = published.swap_remove(idx);
                        reg.delete_service(&key).unwrap();
                    }
                }
                Op::FindByOp { op_seed } => {
                    let op_name = operation_name(op_seed);
                    let indexed = reg.find(&FindQuery::any().operation(&op_name));
                    let scan: Vec<_> = reg
                        .find(&FindQuery::any())
                        .into_iter()
                        .filter(|r| {
                            r.description
                                .operations
                                .iter()
                                .any(|o| o.name.to_lowercase().starts_with(&op_name))
                        })
                        .collect();
                    prop_assert_eq!(
                        indexed.iter().map(|r| &r.key).collect::<Vec<_>>(),
                        scan.iter().map(|r| &r.key).collect::<Vec<_>>()
                    );
                }
            }
        }
        prop_assert_eq!(reg.service_count(), published.len());
    }

    /// The stored summary trees cannot go stale: after any sequence of
    /// publishes, deletes, renewals, lease expiries and sweeps, a find reply
    /// is the list of the summaries of `find`'s records, encoded, in
    /// `find`'s order — for every kind of criterion, charged the same bytes
    /// on the fabric — and a get reply is `get_service`'s record, encoded.
    #[test]
    fn replies_are_the_encoded_records(ops in proptest::collection::vec(arb_store_op(), 1..40)) {
        let registry = Arc::new(UddiRegistry::new());
        let server = RegistryLogic { registry: Arc::clone(&registry) };
        let businesses = [
            registry.save_business("PropCo", "p@p").key,
            registry.save_business("Proxima", "x@x").key,
        ];
        let mut published: Vec<ServiceKey> = Vec::new();
        let pick = |published: &[ServiceKey], seed: u8| {
            (!published.is_empty()).then(|| seed as usize % published.len())
        };
        // A final wait, so that no lease runs out between the two reads
        // the check compares.
        for op in ops.into_iter().chain([StoreOp::Expire]) {
            match op {
                StoreOp::Publish { name_seed, op_seed, second_business, leased } => {
                    let name = format!("{}-{}", service_name(name_seed % 16), published.len());
                    let desc = ServiceDescription::new(name, "PropCo")
                        .with_operation(OperationDef::new(operation_name(op_seed)))
                        .with_binding(Binding::fabric("n"));
                    let category = format!("cat{}", op_seed % 3);
                    let lease = leased.then_some(SHORT_LEASE);
                    let business = &businesses[usize::from(second_business)];
                    // The same name twice under one business is refused;
                    // the store is then as it was.
                    if let Ok(key) = registry.save_service(business, category, desc, lease) {
                        published.push(key);
                    }
                }
                StoreOp::Delete { idx_seed } => {
                    if let Some(idx) = pick(&published, idx_seed) {
                        // Swept already, perhaps.
                        let _ = registry.delete_service(&published.swap_remove(idx));
                    }
                }
                StoreOp::Renew { idx_seed } => {
                    if let Some(idx) = pick(&published, idx_seed) {
                        let _ = registry.renew(&published[idx]);
                    }
                }
                StoreOp::Sweep => {
                    registry.sweep_expired();
                }
                StoreOp::Expire => {
                    std::thread::sleep(SHORT_LEASE + Duration::from_millis(1));
                    for query in [
                        FindQuery::any(),
                        FindQuery::any().provider("pro"),
                        FindQuery::any().provider("Proxima"),
                        FindQuery::any().service_name("service-1"),
                        FindQuery::any().operation("op"),
                        FindQuery::any().operation("op3"),
                        FindQuery::any().category("cat1"),
                        FindQuery::any().provider("propco").operation("op1").category("cat1"),
                    ] {
                        let expected = Element::new("serviceList").with_children(
                            registry.find(&query).iter().map(|r| (*ServiceSummary::from(r).0).clone()),
                        );
                        let reply = server
                            .handle(&request("uddi.find_service", query.to_xml()))
                            .unwrap();
                        prop_assert_eq!(&reply, &expected, "{:?}", query);
                        prop_assert_eq!(reply.to_xml(), expected.to_xml());
                        let wire_size = |body| {
                            Envelope::synthetic(NodeId::new("uddi"), "uddi.result", body).wire_size()
                        };
                        prop_assert_eq!(wire_size(reply), wire_size(expected));
                    }
                    for key in &published {
                        let reply = server.handle(&request(
                            "uddi.get_service",
                            Element::new("get_service").with_attr("key", &key.0),
                        ));
                        let expected = registry.get_service(key).map(|r| r.to_xml());
                        prop_assert_eq!(reply, expected);
                    }
                }
            }
        }
    }

    /// Prefix queries are consistent with their definition.
    #[test]
    fn prefix_query_semantics(names in proptest::collection::hash_set("[a-z]{1,8}", 1..20), prefix in "[a-z]{0,3}") {
        let reg = UddiRegistry::new();
        let biz = reg.save_business("P", "x").key;
        for n in &names {
            let desc = ServiceDescription::new(n.clone(), "P")
                .with_operation(OperationDef::new("op"))
                .with_binding(Binding::fabric("n"));
            reg.save_service(&biz, "c", desc, None).unwrap();
        }
        let hits = reg.find(&FindQuery::any().service_name(&prefix));
        let expected = names.iter().filter(|n| n.starts_with(&prefix)).count();
        prop_assert_eq!(hits.len(), expected);
        for h in hits {
            prop_assert!(h.description.name.starts_with(&prefix));
        }
    }
}
