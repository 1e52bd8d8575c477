//! Property tests: message and description XML round-trips.

use crate::{Binding, MessageDoc, OperationDef, Param, ParamType, ServiceDescription};
use proptest::prelude::*;
use selfserv_expr::Value;

fn arb_param_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,9}"
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Floats that round-trip through decimal text exactly.
        (-100_000i64..100_000).prop_map(|i| Value::Float(i as f64 / 8.0)),
        "[ -~]{0,16}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

fn arb_param_type() -> impl Strategy<Value = ParamType> {
    prop_oneof![
        Just(ParamType::Str),
        Just(ParamType::Int),
        Just(ParamType::Float),
        Just(ParamType::Bool),
        Just(ParamType::Date),
        Just(ParamType::List),
    ]
}

/// Documentation text: empty (no `<documentation>` child) or text with no
/// whitespace at its ends, which the parser would trim.
fn arb_doc() -> impl Strategy<Value = String> {
    "[A-Za-z0-9 &<>.,\"]{0,18}".prop_map(|s| s.trim().to_string())
}

fn arb_params() -> impl Strategy<Value = Vec<Param>> {
    proptest::collection::vec(
        (arb_param_name(), arb_param_type(), any::<bool>())
            .prop_map(|(name, ty, required)| Param { name, ty, required }),
        0..4,
    )
}

fn arb_events() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z][A-Za-z0-9]{0,9}", 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn message_round_trip(
        op in "[a-zA-Z][a-zA-Z0-9_]{0,11}",
        params in proptest::collection::btree_map(arb_param_name(), arb_value(), 0..6),
    ) {
        let mut m = MessageDoc::request(op);
        for (k, v) in params {
            m.set(k, v);
        }
        let xml = m.to_xml().to_pretty_xml();
        let back = MessageDoc::from_xml_str(&xml).unwrap();
        prop_assert_eq!(back, m);
    }

    /// Every child kind the one-pass decoders read round-trips, from the
    /// compact text and from the pretty text.
    #[test]
    fn description_round_trip(
        svc in "[A-Za-z][A-Za-z0-9 ]{0,14}",
        provider in "[A-Za-z][A-Za-z0-9 ]{0,14}",
        doc in arb_doc(),
        ops in proptest::collection::vec(
            ("[a-z][a-zA-Z0-9]{0,9}", arb_doc(), arb_params(), arb_params(), arb_events(), arb_events()),
            0..4,
        ),
        extra_bindings in proptest::collection::vec((any::<bool>(), "[a-z0-9.:]{1,12}"), 0..3),
    ) {
        let mut d = ServiceDescription::new(svc, provider)
            .with_doc(doc)
            .with_binding(Binding::fabric("node.x"))
            .with_binding(Binding::tcp("127.0.0.1:7000"));
        for (tcp, endpoint) in extra_bindings {
            d.bindings.push(if tcp { Binding::tcp(endpoint) } else { Binding::fabric(endpoint) });
        }
        for (name, doc, inputs, outputs, consumed_events, produced_events) in ops {
            d.operations.push(OperationDef {
                name,
                documentation: doc,
                inputs,
                outputs,
                consumed_events,
                produced_events,
            });
        }
        let pretty = d.to_xml().to_pretty_xml();
        prop_assert_eq!(&ServiceDescription::from_xml_str(&pretty).unwrap(), &d);
        let compact = d.to_xml().to_xml();
        prop_assert_eq!(&ServiceDescription::from_xml_str(&compact).unwrap(), &d);
    }

    #[test]
    fn validation_never_panics(
        v in arb_value(),
        required in any::<bool>(),
        ty in arb_param_type(),
    ) {
        let op = OperationDef::new("op").with_input(Param { name: "p".into(), ty, required });
        let msg = MessageDoc::request("op").with("p", v);
        let _ = op.validate_inputs(&msg);
    }
}
