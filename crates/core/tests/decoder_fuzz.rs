//! Fuzz-style properties of the service decoders of outside bytes: a
//! job-spec document and the steady / polarization report payloads,
//! mangled by random bytes, every truncation and single-bit flips, must
//! decode to `Ok` or to a typed error — never panic.

use proptest::prelude::*;

use bright_core::service::{JobKind, JobSpec, LoadRef, Overrides, Priority, ReportPayload};
use bright_core::transient::{LoadRamp, SteppingMode};
use bright_core::{CoSimulation, PolarizationOutcome, Scenario};
use bright_flowcell::polarization::PolarizationPoint;
use bright_flowcell::PolarizationCurve;
use bright_jsonio::Value;
use bright_units::{Ampere, Volt, Watt};
use std::sync::OnceLock;

/// Runs every decoder over `bytes`. Outside bytes reach the decoders as
/// text, so invalid UTF-8 is replaced rather than rejected here: every
/// byte pattern still reaches the parser.
fn decode_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = JobSpec::from_json_str(&text);
    if let Ok(v) = Value::parse(&text) {
        let _ = JobSpec::from_json(&v);
        let _ = ReportPayload::from_json(&v);
    }
}

/// A job spec exercising every optional section: overrides, a
/// transient trace with a ramp, and all contract terms.
fn job_document() -> String {
    JobSpec {
        preset: "power7_reduced".into(),
        overrides: Overrides {
            total_flow_ml_min: Some(320.5),
            inlet_temperature_k: Some(303.15),
            thermal_columns: Some(11),
            cell_nx: Some(24),
            sweep_points: Some(6),
            couple_temperature: Some(true),
            thermal_load: Some(LoadRef {
                base: "full_load".into(),
                scale: 0.75,
            }),
            ..Overrides::default()
        },
        kind: JobKind::Transient {
            trace: vec![
                (0.01, LoadRef::full_load(), None),
                (
                    0.02,
                    LoadRef {
                        base: "cache_only".into(),
                        scale: 1.5,
                    },
                    Some(LoadRamp {
                        flow_scale_from: 1.0,
                        flow_scale_to: 0.4,
                        inlet_offset_from_k: 0.0,
                        inlet_offset_to_k: 2.0,
                    }),
                ),
            ],
            initial_temperature_k: 300.0,
            stepping: SteppingMode::Fixed { dt: 2e-3 },
        },
        priority: Priority::Interactive,
        deadline_ms: Some(60_000),
        timeout_ms: Some(5_000),
        max_retries: 3,
    }
    .to_json()
    .to_json_string()
}

/// A steady report payload of a deliberately coarse scenario, so the
/// document stays a few kilobytes.
fn steady_document() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let mut s = Scenario::power7_reduced();
        s.thermal_columns = 4;
        s.thermal_ny = 4;
        s.cell_options.ny = 6;
        s.cell_options.nx = 10;
        s.sweep_points = 4;
        s.pdn.nx = 6;
        s.pdn.ny = 6;
        let report = CoSimulation::new(s).unwrap().run().unwrap();
        ReportPayload::Steady(Box::new(report))
            .to_json()
            .to_json_string()
    })
}

fn polarization_document() -> String {
    let points = [(0.2, 3.0), (0.8, 2.0), (1.2, 1.0), (1.6, 0.0)]
        .iter()
        .map(|&(v, i)| PolarizationPoint {
            voltage: Volt::new(v),
            current: Ampere::new(i),
            power: Watt::new(v * i),
        })
        .collect();
    let curve = PolarizationCurve::new(points).unwrap();
    ReportPayload::Polarization(PolarizationOutcome::from_curve(curve))
        .to_json()
        .to_json_string()
}

fn documents() -> Vec<String> {
    vec![
        job_document(),
        steady_document().to_owned(),
        polarization_document(),
    ]
}

#[test]
fn the_unmangled_documents_decode() {
    let job = job_document();
    assert_eq!(
        JobSpec::from_json_str(&job)
            .unwrap()
            .to_json()
            .to_json_string(),
        job
    );
    for doc in [steady_document().to_owned(), polarization_document()] {
        let v = Value::parse(&doc).unwrap();
        assert_eq!(ReportPayload::from_json(&v).unwrap().to_json(), v);
    }
}

#[test]
fn field_dimensions_whose_product_overflows_are_errors() {
    // A map's cell count is `nx·ny`; dimensions whose product does not
    // fit a `usize` must be a typed error, not an arithmetic overflow.
    let mut v = Value::parse(steady_document()).unwrap();
    let Some(Value::Object(report)) = (match &mut v {
        Value::Object(payload) => payload.get_mut("report"),
        _ => None,
    }) else {
        panic!("payload without a report object");
    };
    let Some(Value::Object(map)) = report.get_mut("junction_map") else {
        panic!("report without a junction map");
    };
    for dim in ["nx", "ny"] {
        map.insert(dim.into(), Value::Number(2f64.powi(32)));
    }
    assert!(ReportPayload::from_json(&v).is_err());
}

#[test]
fn every_truncation_decodes_or_errs() {
    for doc in documents() {
        let bytes = doc.as_bytes();
        for end in 0..bytes.len() {
            decode_all(&bytes[..end]);
        }
    }
}

#[test]
fn every_single_bit_flip_of_a_job_spec_decodes_or_errs() {
    let mut bytes = job_document().into_bytes();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            bytes[at] ^= 1 << bit;
            decode_all(&bytes);
            bytes[at] ^= 1 << bit;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn random_bytes_decode_or_err(
        raw in proptest::collection::vec(0u16..256, 0..400),
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        decode_all(&bytes);
    }

    #[test]
    fn random_json_token_soup_decodes_or_errs(
        picks in proptest::collection::vec(0usize..16, 0..200),
    ) {
        // Bytes that the parser mostly accepts, so more inputs get past
        // the syntax check and into the field decoders.
        const TOKENS: [&str; 16] = [
            "{", "}", "[", "]", ",", ":", "\"kind\"", "\"steady\"",
            "\"report\"", "\"polarization\"", "\"preset\"", "-1",
            "1e400", "0.5", "null", "\"max_retries\"",
        ];
        let text: String = picks.iter().map(|&k| TOKENS[k]).collect();
        decode_all(text.as_bytes());
    }

    #[test]
    fn single_bit_flips_of_reports_decode_or_err(
        which in 0usize..2,
        at in 0.0..1.0f64,
        bit in 0u32..8,
    ) {
        let mut bytes = if which == 0 {
            steady_document().as_bytes().to_vec()
        } else {
            polarization_document().into_bytes()
        };
        let at = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[at] ^= 1 << bit;
        decode_all(&bytes);
    }
}
