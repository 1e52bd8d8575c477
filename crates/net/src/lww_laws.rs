//! The law suite of [`crate::lww::LwwTable`], written once and
//! instantiated per value type: test support, exported as a macro so the
//! crate that defines a value can run it (the expanding crate needs
//! `proptest` as a dev-dependency).

/// Expands to a `lww_laws` module of property tests proving, for rows of
/// `$value` drawn from the strategy `$arb_row` (a
/// `Strategy<Value = (Key, Row<$value>)>`), what gossip needs of the
/// table: merging is commutative, idempotent and associative, a tombstone
/// wins at equal version, a snapshot exchange converges, and one
/// push-pull round through `respond` answers with exactly the missing
/// rows. Draw keys, versions and values from small universes: collisions
/// are where a merge law can break.
#[macro_export]
macro_rules! lww_law_suite {
    ($value:ty, $arb_row:expr) => {
        mod lww_laws {
            use super::*;
            use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
            use $crate::lww::{LwwTable, LwwValue, Rows};

            type Key = <$value as LwwValue>::Key;
            type Table = LwwTable<Key, $value>;
            type RowSet = Rows<Key, $value>;

            fn row_sets() -> impl Strategy<Value = RowSet> {
                proptest::collection::vec($arb_row, 0..12)
            }

            /// A fresh table with the batches merged in order.
            fn merged(batches: &[&RowSet]) -> Table {
                let mut table = Table::new();
                for batch in batches {
                    table.merge_rows(batch.iter().cloned());
                }
                table
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(256))]

                /// A then B converges to the same table as B then A.
                #[test]
                fn merge_is_commutative(a in row_sets(), b in row_sets()) {
                    prop_assert_eq!(merged(&[&a, &b]).snapshot(), merged(&[&b, &a]).snapshot());
                }

                /// Replaying a batch (gossip redelivery, an eager push
                /// racing the anti-entropy snapshot) changes nothing.
                #[test]
                fn merge_is_idempotent(a in row_sets(), b in row_sets()) {
                    prop_assert_eq!(
                        merged(&[&a, &b]).snapshot(),
                        merged(&[&a, &b, &a, &b, &b]).snapshot()
                    );
                }

                /// A relay pre-combining B and C and forwarding its
                /// snapshot equals receiving both directly.
                #[test]
                fn merge_is_associative(a in row_sets(), b in row_sets(), c in row_sets()) {
                    let relayed = merged(&[&b, &c]).snapshot();
                    prop_assert_eq!(
                        merged(&[&a, &b, &c]).snapshot(),
                        merged(&[&a, &relayed]).snapshot()
                    );
                }

                /// Once a tombstone is merged, no live row for that key
                /// at the same or a lower version resurrects it.
                #[test]
                fn tombstone_wins_at_equal_version((key, mut row) in $arb_row, later in row_sets()) {
                    row.evicted = true;
                    let version = row.version;
                    let mut table = Table::new();
                    table.merge_entry(key.clone(), row);
                    table.merge_rows(
                        later
                            .into_iter()
                            .filter(|(k, r)| *k == key && r.version <= version && !r.evicted),
                    );
                    prop_assert!(table.live(&key).is_none(), "tombstone was resurrected");
                }

                /// Two replicas with different histories exchanging
                /// snapshots end with identical tables and fingerprints —
                /// what every convergence test polls for.
                #[test]
                fn snapshot_exchange_converges(a in row_sets(), b in row_sets()) {
                    let mut left = merged(&[&a]);
                    let mut right = merged(&[&b]);
                    left.merge_rows(right.snapshot());
                    right.merge_rows(left.snapshot());
                    prop_assert_eq!(left.snapshot(), right.snapshot());
                    prop_assert_eq!(left.fingerprint(), right.fingerprint());
                }

                /// One push-pull round through `respond`: the answer to a
                /// snapshot holds only rows that beat what its sender
                /// held, merging it needs no further answer, and the two
                /// tables are then identical.
                #[test]
                fn push_pull_delta_is_exact(a in row_sets(), b in row_sets()) {
                    let mut sender = merged(&[&a]);
                    let mut receiver = merged(&[&b]);
                    let push = sender.snapshot();
                    let answer = receiver.respond(push.clone(), false);
                    for (key, row) in &answer {
                        let held = push.iter().find(|(k, _)| k == key);
                        prop_assert!(
                            held.is_none_or(|(_, sent)| sent.loses_to(row)),
                            "answer row for {:?} does not beat the pushed row", key
                        );
                    }
                    prop_assert!(sender.respond(answer, true).is_empty());
                    prop_assert_eq!(sender.snapshot(), receiver.snapshot());
                    prop_assert_eq!(sender.fingerprint(), receiver.fingerprint());
                }
            }
        }
    };
}
