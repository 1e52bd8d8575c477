//! The paper's demo scenario (Section 4, Figure 2): a travel-planning
//! composite service.
//!
//! > "A traveller books a domestic flight or an international flight, as
//! > well as an accommodation. A search for attractions is performed in
//! > parallel with the flight and accommodation bookings. When the search
//! > and the bookings are done, a car rental is performed if the major
//! > attraction is far from the booked accommodation."
//!
//! The statechart built here follows Figure 2:
//!
//! ```text
//!           ┌───────────────────────── ARR (AND) ─────────────────────────┐
//!           │ region bookings:                                            │
//!           │   FC ──[domestic(destination)]──────► DFB ──► AB ──► (F)    │
//!           │    └──[not domestic(destination)]──► ITA ────┘              │
//!           │         ITA = { IFB ──► TI ──► (F) }      (AB = community)  │
//!           │ region search:                                              │
//!           │   AS ──► (F)                                                │
//!           └───────────────┬─────────────────────────────────────────────┘
//!        [not near(major_attraction, accommodation)]      [near(...)]
//!                           ▼                                  │
//!                          CR ─────────────────────────────────▼
//!                           └────────────────────────────────► F
//! ```
//!
//! `International Travel Arrangements` is modelled as a nested compound
//! state (international flight + travel insurance), `Accommodation Booking`
//! is bound through a service community, and the rest are elementary
//! services — matching the demo's configuration.

use crate::builder::{StatechartBuilder, TaskDef, TransitionDef};
use crate::model::Statechart;
use selfserv_expr::{EvalError, Value};
use selfserv_wsdl::{Binding, OperationDef, Param, ParamType, ServiceDescription};

/// Names of the component services of the travel scenario.
pub mod services {
    /// Domestic flight booking (elementary).
    pub const DOMESTIC_FLIGHT: &str = "Domestic Flight Booking";
    /// International flight booking (elementary, inside ITA).
    pub const INTERNATIONAL_FLIGHT: &str = "International Flight Booking";
    /// Travel insurance (elementary, inside ITA).
    pub const TRAVEL_INSURANCE: &str = "Travel Insurance";
    /// Attraction search (elementary).
    pub const ATTRACTION_SEARCH: &str = "Attraction Search";
    /// Car rental (elementary).
    pub const CAR_RENTAL: &str = "Car Rental";
    /// The accommodation-booking community.
    pub const ACCOMMODATION_COMMUNITY: &str = "AccommodationBooking";
}

/// Builds the travel-planning statechart of Figure 2.
pub fn travel_statechart() -> Statechart {
    StatechartBuilder::new("Travel Planning")
        .variable("customer", ParamType::Str)
        .variable("destination", ParamType::Str)
        .variable("departure_date", ParamType::Date)
        .variable("return_date", ParamType::Date)
        .variable("flight_confirmation", ParamType::Str)
        .variable("flight_price", ParamType::Float)
        .variable("insurance_policy", ParamType::Str)
        .variable("accommodation", ParamType::Str)
        .variable("accommodation_price", ParamType::Float)
        .variable("major_attraction", ParamType::Str)
        .variable("attractions", ParamType::List)
        .variable("car_confirmation", ParamType::Str)
        .initial("ARR")
        // ---- the AND-state running bookings and search in parallel ----
        .concurrent(
            "ARR",
            "Travel Arrangements",
            vec![("bookings", "FC"), ("search", "AS")],
        )
        // region 0: bookings
        .choice_in("ARR", 0, "FC", "Flight Choice")
        .task_in_region(
            "ARR",
            0,
            TaskDef::new("DFB", "Domestic Flight Booking")
                .service(services::DOMESTIC_FLIGHT, "bookFlight")
                .input("customer", "customer")
                .input("destination", "destination")
                .input("departure_date", "departure_date")
                .input("return_date", "return_date")
                .output("confirmation", "flight_confirmation")
                .output("price", "flight_price"),
        )
        .compound_in("ARR", 0, "ITA", "International Travel Arrangements", "IFB")
        .task_in(
            "ITA",
            TaskDef::new("IFB", "International Flight Booking")
                .service(services::INTERNATIONAL_FLIGHT, "bookFlight")
                .input("customer", "customer")
                .input("destination", "destination")
                .input("departure_date", "departure_date")
                .input("return_date", "return_date")
                .output("confirmation", "flight_confirmation")
                .output("price", "flight_price"),
        )
        .task_in(
            "ITA",
            TaskDef::new("TI", "Travel Insurance")
                .service(services::TRAVEL_INSURANCE, "insure")
                .input("customer", "customer")
                .input("destination", "destination")
                .input("trip_value", "flight_price")
                .output("policy", "insurance_policy"),
        )
        .final_in("ITA", 0, "ITA_F")
        .task_in_region(
            "ARR",
            0,
            TaskDef::new("AB", "Accommodation Booking")
                .community(services::ACCOMMODATION_COMMUNITY, "bookAccommodation")
                .input("customer", "customer")
                .input("city", "destination")
                .input("check_in", "departure_date")
                .input("check_out", "return_date")
                .output("location", "accommodation")
                .output("price", "accommodation_price"),
        )
        .final_in("ARR", 0, "BK_F")
        // region 1: attraction search
        .task_in_region(
            "ARR",
            1,
            TaskDef::new("AS", "Attractions Search")
                .service(services::ATTRACTION_SEARCH, "searchAttractions")
                .input("city", "destination")
                .output("major", "major_attraction")
                .output("all", "attractions"),
        )
        .final_in("ARR", 1, "AS_F")
        // ---- conditional car rental after the AND-join ----
        .task(
            TaskDef::new("CR", "Car Rental")
                .service(services::CAR_RENTAL, "rentCar")
                .input("customer", "customer")
                .input("pickup", "accommodation")
                .input("from", "departure_date")
                .input("to", "return_date")
                .output("confirmation", "car_confirmation"),
        )
        .final_state("F")
        // bookings region flow
        .transition(TransitionDef::new("t_dom", "FC", "DFB").guard("domestic(destination)"))
        .transition(TransitionDef::new("t_intl", "FC", "ITA").guard("not domestic(destination)"))
        .transition(TransitionDef::new("t_ifb_ti", "IFB", "TI"))
        .transition(TransitionDef::new("t_ti_f", "TI", "ITA_F"))
        .transition(TransitionDef::new("t_dfb_ab", "DFB", "AB"))
        .transition(TransitionDef::new("t_ita_ab", "ITA", "AB"))
        .transition(TransitionDef::new("t_ab_f", "AB", "BK_F"))
        // search region flow
        .transition(TransitionDef::new("t_as_f", "AS", "AS_F"))
        // root flow
        .transition(
            TransitionDef::new("t_cr", "ARR", "CR")
                .guard("not near(major_attraction, accommodation)"),
        )
        .transition(
            TransitionDef::new("t_skip_cr", "ARR", "F")
                .guard("near(major_attraction, accommodation)"),
        )
        .transition(TransitionDef::new("t_cr_f", "CR", "F"))
        .build()
        .expect("travel statechart is well-formed")
}

/// Cities the `domestic` predicate recognises as Australian.
pub const DOMESTIC_CITIES: &[&str] = &[
    "Sydney",
    "Melbourne",
    "Brisbane",
    "Perth",
    "Adelaide",
    "Cairns",
    "Darwin",
    "Hobart",
];

/// Attraction → "home" city pairs the `near` predicate treats as close.
/// Everything else counts as far, triggering the car rental.
pub const NEAR_PAIRS: &[(&str, &str)] = &[
    ("Opera House", "Sydney CBD Hotel"),
    ("Peak Tram", "Kowloon Hotel"),
    ("Star Ferry", "Kowloon Hotel"),
    ("Queen Victoria Market", "Melbourne Central Stay"),
];

/// The `domestic(city)` guard predicate the composer supplies alongside
/// the statechart: true for the [`DOMESTIC_CITIES`].
pub fn domestic(args: &[Value]) -> Result<Value, EvalError> {
    let city = args
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| EvalError::FunctionError {
            function: "domestic".into(),
            message: "expects one string argument".into(),
        })?;
    Ok(Value::Bool(DOMESTIC_CITIES.contains(&city)))
}

/// The `near(attraction, place)` guard predicate: true for the
/// [`NEAR_PAIRS`].
pub fn near(args: &[Value]) -> Result<Value, EvalError> {
    if args.len() != 2 {
        return Err(EvalError::ArityMismatch {
            function: "near".into(),
            expected: 2,
            found: args.len(),
        });
    }
    let attraction = args[0].as_str().unwrap_or("");
    let place = args[1].as_str().unwrap_or("");
    Ok(Value::Bool(
        NEAR_PAIRS
            .iter()
            .any(|(a, p)| *a == attraction && *p == place),
    ))
}

/// WSDL-style descriptions of every elementary service in the scenario,
/// keyed to the fabric endpoints the examples deploy them on.
pub fn travel_service_descriptions() -> Vec<ServiceDescription> {
    let flight_op = |name: &str| {
        OperationDef::new("bookFlight")
            .with_doc(format!("{name} flight booking"))
            .with_input(Param::required("customer", ParamType::Str))
            .with_input(Param::required("destination", ParamType::Str))
            .with_input(Param::required("departure_date", ParamType::Date))
            .with_input(Param::optional("return_date", ParamType::Date))
            .with_output(Param::required("confirmation", ParamType::Str))
            .with_output(Param::required("price", ParamType::Float))
    };
    vec![
        ServiceDescription::new(services::DOMESTIC_FLIGHT, "AusAir Demo")
            .with_doc("Books flights within Australia")
            .with_operation(flight_op("Domestic"))
            .with_binding(Binding::fabric("svc.dfb")),
        ServiceDescription::new(services::INTERNATIONAL_FLIGHT, "GlobalWings Demo")
            .with_doc("Books international flights")
            .with_operation(flight_op("International"))
            .with_binding(Binding::fabric("svc.ifb")),
        ServiceDescription::new(services::TRAVEL_INSURANCE, "SafeTrip Demo")
            .with_doc("Issues travel insurance policies")
            .with_operation(
                OperationDef::new("insure")
                    .with_input(Param::required("customer", ParamType::Str))
                    .with_input(Param::required("destination", ParamType::Str))
                    .with_input(Param::optional("trip_value", ParamType::Float))
                    .with_output(Param::required("policy", ParamType::Str)),
            )
            .with_binding(Binding::fabric("svc.ti")),
        ServiceDescription::new(services::ATTRACTION_SEARCH, "SightSeer Demo")
            .with_doc("Searches tourist attractions near a city")
            .with_operation(
                OperationDef::new("searchAttractions")
                    .with_input(Param::required("city", ParamType::Str))
                    .with_output(Param::required("major", ParamType::Str))
                    .with_output(Param::required("all", ParamType::List)),
            )
            .with_binding(Binding::fabric("svc.as")),
        ServiceDescription::new(services::CAR_RENTAL, "WheelsNow Demo")
            .with_doc("Rents cars for pickup near an accommodation")
            .with_operation(
                OperationDef::new("rentCar")
                    .with_input(Param::required("customer", ParamType::Str))
                    .with_input(Param::required("pickup", ParamType::Str))
                    .with_input(Param::required("from", ParamType::Date))
                    .with_input(Param::optional("to", ParamType::Date))
                    .with_output(Param::required("confirmation", ParamType::Str)),
            )
            .with_binding(Binding::fabric("svc.cr")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_expr::{parse, MapEnv};

    #[test]
    fn travel_chart_validates_cleanly() {
        let sc = travel_statechart();
        let report = sc.validate();
        assert!(report.is_ok(), "unexpected validation errors: {report:?}");
    }

    #[test]
    fn predicates_match_scenario_semantics() {
        let mut env = MapEnv::with_builtins();
        env.register_fn("domestic", domestic);
        env.register_fn("near", near);
        env.set("destination", Value::str("Sydney"));
        assert!(parse("domestic(destination)")
            .unwrap()
            .eval_bool(&env)
            .unwrap());
        env.set("destination", Value::str("Hong Kong"));
        assert!(!parse("domestic(destination)")
            .unwrap()
            .eval_bool(&env)
            .unwrap());
        env.set("major_attraction", Value::str("Opera House"));
        env.set("accommodation", Value::str("Sydney CBD Hotel"));
        assert!(parse("near(major_attraction, accommodation)")
            .unwrap()
            .eval_bool(&env)
            .unwrap());
        env.set("accommodation", Value::str("Bondi Hostel"));
        assert!(!parse("near(major_attraction, accommodation)")
            .unwrap()
            .eval_bool(&env)
            .unwrap());
    }

    #[test]
    fn predicate_errors_on_bad_arguments() {
        use selfserv_expr::Env as _;
        let mut env = MapEnv::new();
        env.register_fn("domestic", domestic);
        env.register_fn("near", near);
        assert!(env.call("domestic", &[Value::Int(1)]).is_err());
        assert!(env.call("near", &[Value::str("a")]).is_err());
    }

    #[test]
    fn descriptions_cover_all_elementary_services() {
        let sc = travel_statechart();
        let descs = travel_service_descriptions();
        for svc in sc.referenced_services() {
            assert!(
                descs.iter().any(|d| d.name == svc),
                "no description for referenced service {svc}"
            );
        }
        for d in &descs {
            assert!(d.primary_binding().is_some(), "{} has no binding", d.name);
            assert!(!d.operations.is_empty());
        }
    }

    #[test]
    fn task_mappings_reference_declared_variables() {
        let sc = travel_statechart();
        for state in sc.task_states() {
            let spec = state.task().unwrap();
            for m in &spec.inputs {
                for var in m.expr.referenced_vars() {
                    assert!(
                        sc.variable(&var).is_some(),
                        "state {} input {} references undeclared {var}",
                        state.id,
                        m.param
                    );
                }
            }
            for m in &spec.outputs {
                assert!(
                    sc.variable(&m.var).is_some(),
                    "state {} output captures into undeclared {}",
                    state.id,
                    m.var
                );
            }
        }
    }
}
