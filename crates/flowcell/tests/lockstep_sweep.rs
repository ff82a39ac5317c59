//! Bitwise tests of the lockstep sweep march.
//!
//! `CellModel::sweep_at_voltages` marches every point of a voltage
//! ladder down the channel together, sharing one multi-lane transport
//! back-substitution per station. Each of its solutions must equal, bit
//! for bit, the same ladder solved one point at a time: the first point
//! cold, every later one as a one-point march warm-started from its
//! predecessor's finished profile (`CellModel::continue_sweep`). The
//! cases cover random ladders, sampled temperature profiles, product
//! tracking on and off, an asymmetric (α = 0.4) couple, plateau and
//! near-open-circuit points, the POWER7+ channel itself, and ladders
//! holding invalid voltages.

use proptest::prelude::*;

use bright_echem::{vanadium, ButlerVolmer, CellChemistry, RedoxCouple};
use bright_flow::RectChannel;
use bright_flowcell::options::{SolverOptions, TemperatureProfile, VelocityModel};
use bright_flowcell::{presets, CellGeometry, CellModel, CellSolution, FlowCellError};
use bright_units::{CubicMetersPerSecond, Kelvin, Meters};

fn geometry() -> CellGeometry {
    CellGeometry::new(
        RectChannel::new(
            Meters::from_micrometers(200.0),
            Meters::from_micrometers(400.0),
            Meters::from_millimeters(22.0),
        )
        .unwrap(),
    )
}

/// The POWER7+ chemistry, optionally with an asymmetric (α = 0.4)
/// positive couple.
fn chemistry(asymmetric: bool) -> CellChemistry {
    let mut chem = vanadium::power7_cell_chemistry();
    if asymmetric {
        let k = &chem.positive.kinetics;
        let c = k.couple();
        let couple =
            RedoxCouple::new("asymmetric", c.standard_potential(), c.electrons(), 0.4).unwrap();
        chem.positive.kinetics =
            ButlerVolmer::new(couple, k.rate_constant(), k.c_ox_ref(), k.c_red_ref()).unwrap();
    }
    chem
}

fn model(
    flow_ml_min: f64,
    temperature: TemperatureProfile,
    track_products: bool,
    asymmetric: bool,
) -> CellModel {
    CellModel::new(
        geometry(),
        chemistry(asymmetric),
        CubicMetersPerSecond::from_milliliters_per_minute(flow_ml_min),
        temperature,
        SolverOptions {
            ny: 16,
            nx: 40,
            velocity: VelocityModel::PlanePoiseuille,
            track_products,
            contact_asr: 0.0,
        },
    )
    .unwrap()
}

/// The ladder solved one point at a time, each point hinted with its
/// predecessor's profile; stops at the first failing point.
fn point_by_point(model: &CellModel, voltages: &[f64]) -> Result<Vec<CellSolution>, FlowCellError> {
    let mut out: Vec<CellSolution> = Vec::with_capacity(voltages.len());
    for &v in voltages {
        let sol = match out.last() {
            None => model.solve_at_voltage(v)?,
            Some(prev) => model
                .continue_sweep(prev, &[v])?
                .pop()
                .expect("one voltage, one solution"),
        };
        out.push(sol);
    }
    Ok(out)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise(lockstep: &[CellSolution], reference: &[CellSolution], what: &str) {
    assert_eq!(lockstep.len(), reference.len(), "{what}");
    for (k, (a, b)) in lockstep.iter().zip(reference).enumerate() {
        let at = format!("{what}, point {k} at {} V", b.voltage().value());
        assert_eq!(
            a.voltage().value().to_bits(),
            b.voltage().value().to_bits(),
            "{at}"
        );
        assert_eq!(
            a.current().value().to_bits(),
            b.current().value().to_bits(),
            "{at}"
        );
        assert_eq!(
            a.mean_current_density().value().to_bits(),
            b.mean_current_density().value().to_bits(),
            "{at}"
        );
        assert_eq!(
            bits(a.current_density_profile()),
            bits(b.current_density_profile()),
            "{at}"
        );
        assert_eq!(
            bits(a.anode_overpotential_profile()),
            bits(b.anode_overpotential_profile()),
            "{at}"
        );
        assert_eq!(
            bits(a.cathode_overpotential_profile()),
            bits(b.cathode_overpotential_profile()),
            "{at}"
        );
        assert_eq!(
            a.transport_limited_stations(),
            b.transport_limited_stations(),
            "{at}"
        );
    }
}

fn check(model: &CellModel, voltages: &[f64], what: &str) -> Vec<CellSolution> {
    let lockstep = model.sweep_at_voltages(voltages).unwrap();
    let reference = point_by_point(model, voltages).unwrap();
    assert_bitwise(&lockstep, &reference, what);
    lockstep
}

fn lcg(seed: u64, i: u64) -> f64 {
    let x = i
        .wrapping_mul(6364136223846793005)
        .wrapping_add(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[test]
fn plateau_and_near_ocv_points_are_bitwise_point_by_point() {
    for track in [true, false] {
        let m = model(
            2.0,
            TemperatureProfile::Uniform(Kelvin::new(300.0)),
            track,
            false,
        );
        let ocv = m.open_circuit_voltage().unwrap().value();
        // Plateau points first, then the approach to open circuit, OCV
        // itself and a point above it (every station at zero current).
        let voltages = [
            0.02,
            0.05,
            0.1,
            0.6,
            ocv - 1e-2,
            ocv - 1e-3,
            ocv - 1e-4,
            ocv,
            ocv + 0.05,
        ];
        let sols = check(&m, &voltages, "plateau / near OCV");
        assert!(
            sols[0].transport_limited_stations() > 0,
            "no plateau station"
        );
        assert!(sols[6].current().value() > 0.0);
        assert_eq!(sols[8].current().value(), 0.0);
    }
}

#[test]
fn power7_channel_sweep_is_bitwise_point_by_point() {
    // The production ladder: 16 points from 0.05 V to just below OCV on
    // the POWER7+ channel (duct velocity profile, 64 × 220 grid).
    let m = presets::power7_channel().unwrap();
    let ocv = m.open_circuit_voltage().unwrap().value();
    let voltages: Vec<f64> = (0..16)
        .map(|k| 0.05 + (ocv - 1e-4 - 0.05) * k as f64 / 15.0)
        .collect();
    check(&m, &voltages, "power7 channel");
    // A descending ladder walks the same points in the other direction.
    let descending: Vec<f64> = voltages.iter().rev().copied().collect();
    check(&m, &descending, "power7 channel, descending");
}

#[test]
fn invalid_voltage_fails_the_sweep_like_point_by_point() {
    let m = model(
        5.0,
        TemperatureProfile::Uniform(Kelvin::new(300.0)),
        true,
        false,
    );
    for (voltages, named) in [
        (vec![0.3, 0.6, -0.25, 0.9], "-0.25"),
        (vec![0.3, f64::NAN, 0.9, -1.0], "NaN"),
        (vec![f64::INFINITY], "inf"),
        (vec![0.2, 0.4, 0.8, 1.2, -3.5], "-3.5"),
    ] {
        let lockstep = m.sweep_at_voltages(&voltages).unwrap_err();
        let reference = point_by_point(&m, &voltages).unwrap_err();
        assert!(
            matches!(lockstep, FlowCellError::Infeasible(_)),
            "{lockstep}"
        );
        assert_eq!(lockstep.to_string(), reference.to_string());
        assert!(
            lockstep.to_string().ends_with(named),
            "{voltages:?}: {lockstep} should name {named}"
        );
    }
    // An empty ladder is an empty sweep.
    assert!(m.sweep_at_voltages(&[]).unwrap().is_empty());
}

#[test]
fn continue_sweep_rejects_a_foreign_profile() {
    let m = model(
        5.0,
        TemperatureProfile::Uniform(Kelvin::new(300.0)),
        true,
        false,
    );
    let other = presets::power7_channel()
        .unwrap()
        .solve_at_voltage(1.0)
        .unwrap();
    assert!(matches!(
        m.continue_sweep(&other, &[1.0]),
        Err(FlowCellError::InvalidConfig(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_ladders_are_bitwise_point_by_point(
        points in 2usize..41,
        seed in 0u64..1_000_000,
        flow in 2.0..20.0f64,
        t_in in 295.0..310.0f64,
        rise in 0.0..15.0f64,
        track in 0usize..2,
        asym in 0usize..2,
        sorted in 0usize..2,
    ) {
        let m = model(
            flow,
            TemperatureProfile::Sampled(vec![
                Kelvin::new(t_in),
                Kelvin::new(t_in + 0.6 * rise),
                Kelvin::new(t_in + rise),
            ]),
            track == 1,
            asym == 1,
        );
        let ocv = m.open_circuit_voltage().unwrap().value();
        let mut voltages: Vec<f64> = (0..points as u64)
            .map(|k| 0.02 + (ocv + 0.02) * lcg(seed, k))
            .collect();
        if sorted == 1 {
            voltages.sort_by(f64::total_cmp);
        }
        check(&m, &voltages, &format!("ladder {voltages:?}"));
    }
}
