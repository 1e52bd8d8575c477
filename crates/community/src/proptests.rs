//! Property tests over selection policies (totality, candidate membership,
//! round-robin fairness), and the replicated-table laws for membership
//! rows (the one suite `selfserv-net` also runs for directory rows:
//! membership rides the same gossip schedule and must converge under any
//! exchange order).

use crate::history::{ExecutionHistory, Outcome};
use crate::membership::{Member, MemberId, QosProfile};
use crate::policy::*;
use crate::replication::MemberEntry;
use proptest::prelude::*;
use selfserv_net::NodeId;
use selfserv_wsdl::MessageDoc;
use std::time::Duration;

fn make_members(qos: Vec<(f64, f64, f64, f64)>) -> Vec<Member> {
    qos.into_iter()
        .enumerate()
        .map(|(i, (cost, duration_ms, reliability, reputation))| Member {
            id: MemberId(format!("m{i:02}")),
            provider: format!("P{i}"),
            endpoint: NodeId::new(format!("svc.m{i}")),
            qos: QosProfile {
                cost,
                duration_ms,
                reliability,
                reputation,
            },
        })
        .collect()
}

fn arb_qos() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (0.1f64..100.0, 1.0f64..2000.0, 0.0f64..1.0, 0.0f64..1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every policy picks a member from the candidate list (or None only
    /// when the list is empty).
    #[test]
    fn policies_select_from_candidates(
        qos in proptest::collection::vec(arb_qos(), 0..10),
        seed in any::<u64>(),
        completions in proptest::collection::vec((0usize..10, 1u64..500, any::<bool>()), 0..30),
    ) {
        let members = make_members(qos);
        let refs: Vec<&Member> = members.iter().collect();
        let history = ExecutionHistory::new();
        for (idx, ms, ok) in completions {
            if members.is_empty() { break; }
            let id = &members[idx % members.len()].id;
            history.start(id);
            history.complete(
                id,
                Duration::from_millis(ms),
                if ok { Outcome::Success } else { Outcome::Failure },
            );
        }
        let req = MessageDoc::request("op");
        let ctx = SelectionContext { operation: "op", request: &req, history: &history, liveness: None };
        let policies: Vec<Box<dyn SelectionPolicy>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(RandomChoice::new(seed)),
            Box::new(LeastLoaded),
            Box::new(WeightedScoring::default()),
            Box::new(HistoryAware::default()),
        ];
        for p in &policies {
            match p.select(&refs, &ctx) {
                Some(chosen) => {
                    prop_assert!(
                        members.iter().any(|m| m.id == chosen.id),
                        "{} chose a non-candidate",
                        p.name()
                    );
                }
                None => prop_assert!(members.is_empty(), "{} returned None with candidates", p.name()),
            }
        }
    }

    /// Round-robin distributes k*n requests exactly k per member.
    #[test]
    fn round_robin_is_fair(n in 1usize..12, k in 1usize..8) {
        let members = make_members(vec![(1.0, 100.0, 0.9, 0.5); n]);
        let refs: Vec<&Member> = members.iter().collect();
        let history = ExecutionHistory::new();
        let req = MessageDoc::request("op");
        let ctx = SelectionContext { operation: "op", request: &req, history: &history, liveness: None };
        let policy = RoundRobin::new();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n * k {
            let chosen = policy.select(&refs, &ctx).unwrap();
            *counts.entry(chosen.id.clone()).or_insert(0usize) += 1;
        }
        for m in &members {
            prop_assert_eq!(counts.get(&m.id).copied().unwrap_or(0), k);
        }
    }

    /// SAW never picks a strictly dominated member when a dominating one
    /// exists.
    #[test]
    fn saw_never_picks_strictly_dominated(qos in proptest::collection::vec(arb_qos(), 2..8)) {
        let members = make_members(qos);
        let refs: Vec<&Member> = members.iter().collect();
        let history = ExecutionHistory::new();
        let req = MessageDoc::request("op");
        let ctx = SelectionContext { operation: "op", request: &req, history: &history, liveness: None };
        let chosen = WeightedScoring::default().select(&refs, &ctx).unwrap();
        let dominated_by_someone = members.iter().any(|other| {
            other.id != chosen.id
                && other.qos.cost < chosen.qos.cost
                && other.qos.duration_ms < chosen.qos.duration_ms
                && other.qos.reliability > chosen.qos.reliability
                && other.qos.reputation > chosen.qos.reputation
        });
        prop_assert!(!dominated_by_someone, "SAW picked a strictly dominated member");
    }
}

// ---------------------------------------------------------------------------
// Membership merge algebra
// ---------------------------------------------------------------------------

/// A small id universe so generated row sets collide on members often —
/// collisions are where merge laws can break.
fn arb_row() -> impl Strategy<Value = (MemberId, MemberEntry)> {
    (0u8..5, 0u8..4, 1u64..6, any::<bool>(), 0u8..3).prop_map(
        |(id, endpoint, version, evicted, cost)| {
            let id = MemberId(format!("m{id}"));
            (
                id.clone(),
                MemberEntry {
                    value: Member {
                        id,
                        provider: format!("P{endpoint}"),
                        endpoint: NodeId::new(format!("svc.e{endpoint}")),
                        qos: QosProfile {
                            cost: f64::from(cost),
                            ..QosProfile::default()
                        },
                    },
                    version,
                    evicted,
                },
            )
        },
    )
}

selfserv_net::lww_law_suite!(Member, arb_row());
