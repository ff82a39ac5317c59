//! The full co-simulation report serializes and deserializes losslessly —
//! downstream tooling (plotting, CI dashboards) depends on this.

use bright_core::{CoSimReport, CoSimulation, Scenario};

/// The JSON writer prints the shortest representation that parses back to
/// the same f64, but keep the comparison at machine precision so the test
/// stays robust to writer changes.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 4.0 * f64::EPSILON * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn full_report_json_roundtrip() {
    let report = CoSimulation::new(Scenario::power7_reduced())
        .unwrap()
        .run()
        .unwrap();
    let json = report.to_json_string();
    let back = CoSimReport::from_json_str(&json).unwrap();

    assert!(close(
        back.peak_temperature.value(),
        report.peak_temperature.value()
    ));
    assert!(close(back.current_at_1v.value(), report.current_at_1v.value()));
    assert!(close(back.pumping_power.value(), report.pumping_power.value()));
    assert!(close(
        back.pdn_min_voltage.value(),
        report.pdn_min_voltage.value()
    ));
    assert_eq!(
        back.polarization.points().len(),
        report.polarization.points().len()
    );
    assert_eq!(back.junction_map.grid(), report.junction_map.grid());
    for (a, b) in back
        .junction_map
        .as_slice()
        .iter()
        .zip(report.junction_map.as_slice())
    {
        assert!(close(*a, *b));
    }
    assert_eq!(
        back.operating_point.is_some(),
        report.operating_point.is_some()
    );
    assert_eq!(back.voltage_map.grid(), report.voltage_map.grid());
}

/// Nesting depth of a JSON value (a scalar is depth 0).
fn depth(v: &bright_jsonio::Value) -> usize {
    use bright_jsonio::Value;
    match v {
        Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Object(map) => 1 + map.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn service_report_files_round_trip_under_the_parser_depth_limit() {
    use bright_core::service::{JobKind, JobSpec, LoadRef};
    use bright_core::{ReportPayload, ScenarioService, ServiceClock, ServiceConfig, SteppingMode};
    use bright_jsonio::{checksummed, Value, MAX_DEPTH};

    let dir = std::env::temp_dir().join(format!("bright_report_rt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coarse = |mut spec: JobSpec| {
        spec.overrides.thermal_columns = Some(11);
        spec.overrides.thermal_ny = Some(8);
        spec.overrides.cell_ny = Some(10);
        spec.overrides.cell_nx = Some(16);
        spec.overrides.sweep_points = Some(4);
        spec
    };
    let steady = coarse(JobSpec::steady("power7_reduced"));
    let mut transient = steady.clone();
    transient.kind = JobKind::Transient {
        trace: vec![(2e-3, LoadRef::full_load(), None)],
        initial_temperature_k: 300.0,
        stepping: SteppingMode::Fixed { dt: 1e-3 },
    };
    let mut polarization = steady.clone();
    polarization.kind = JobKind::Polarization { points: 4 };

    let mut svc = ScenarioService::open(
        &dir,
        ServiceConfig::default(),
        ServiceClock::manual(1 << 40),
    )
    .expect("service opens");
    for spec in [steady, transient, polarization] {
        svc.submit(spec).expect("admitted");
    }
    svc.drain().expect("drain");

    let mut kinds = Vec::new();
    for entry in std::fs::read_dir(dir.join("reports"))
        .expect("reports written")
        .flatten()
    {
        let text = std::fs::read_to_string(entry.path()).expect("report readable");
        let value = checksummed::parse(&text).expect("report file parses and verifies");
        assert!(
            depth(&value) < MAX_DEPTH / 4,
            "report nests {} levels",
            depth(&value)
        );
        let payload = ReportPayload::from_json(&value).expect("payload decodes");
        let again = payload.to_json();
        assert_eq!(again, value, "decode/encode changed the report");
        assert_eq!(
            checksummed::to_string(&again),
            text,
            "re-encoded file differs"
        );
        assert_eq!(
            Value::parse(&again.to_json_string()).expect("reparses"),
            again
        );
        kinds.push(
            value
                .get("kind")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned(),
        );
    }
    kinds.sort();
    assert_eq!(kinds, ["polarization", "steady", "transient"]);
    let _ = std::fs::remove_dir_all(&dir);
}
