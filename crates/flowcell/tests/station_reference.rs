//! Reference tests of the flow-cell station solve.
//!
//! `CellModel` solves each station's voltage balance by
//! bracket-safeguarded Newton on the analytic slope. This file keeps an
//! independent bracketing reference: the same march assembled from the
//! crate's public transport and kinetics pieces, with every station
//! classified by its endpoint residuals and solved by Brent's method at
//! a residual tolerance a thousand times tighter (1e-13 V). The two must
//! agree on every station's classification and to the Newton tolerance
//! on the currents, cold and warm-started, across random voltages,
//! temperature profiles, flows, product tracking and an asymmetric
//! couple.

use proptest::prelude::*;

use bright_echem::electrolyte::area_specific_resistance;
use bright_echem::{vanadium, ButlerVolmer, CellChemistry, RedoxCouple, SurfaceState};
use bright_flow::profile::plane_poiseuille;
use bright_flow::RectChannel;
use bright_flowcell::options::{SolverOptions, TemperatureProfile, VelocityModel};
use bright_flowcell::transport::{HalfCellMarcher, TransportOp};
use bright_flowcell::{CellGeometry, CellModel, CellSolution};
use bright_num::roots::{brent, RootOptions};
use bright_units::constants::FARADAY;
use bright_units::{AmperePerSquareMeter, CubicMetersPerSecond, Kelvin, Meters, MolePerCubicMeter};

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

#[derive(Debug)]
struct Case {
    flow_ml_min: f64,
    temperature: TemperatureProfile,
    track_products: bool,
    asymmetric: bool,
}

impl Case {
    fn options(&self) -> SolverOptions {
        SolverOptions {
            ny: 16,
            nx: 40,
            velocity: VelocityModel::PlanePoiseuille,
            track_products: self.track_products,
            contact_asr: 0.0,
        }
    }

    fn model(&self) -> CellModel {
        CellModel::new(
            geometry(),
            chemistry(self.asymmetric),
            CubicMetersPerSecond::from_milliliters_per_minute(self.flow_ml_min),
            self.temperature.clone(),
            self.options(),
        )
        .unwrap()
    }
}

/// Replays the march of `sol` at `voltage` station by station and checks
/// each station root against a bracketing solve of the same balance.
///
/// The replay commits the solution's own currents, so every station is
/// checked from the upstream state the solver saw (up to rounding). Comparing two
/// independent marches instead would also measure how the march
/// amplifies station-level differences, which near open circuit (where
/// stations alternate between drawing current and none) is large.
///
/// Per station: the class (zero current, plateau, interior) must agree
/// with the endpoint residuals, and an interior root must lie in the
/// band where the balance holds to the Newton tolerance (1e-10 V).
fn check(case: &Case, sol: &CellSolution, voltage: f64, what: &str) {
    const TOL: f64 = 1e-10;
    let geo = geometry();
    let chem = chemistry(case.asymmetric);
    let opts = case.options();
    let (nx, ny) = (opts.nx, opts.ny);
    let flow = CubicMetersPerSecond::from_milliliters_per_minute(case.flow_ml_min);
    let v_mean = flow.mean_velocity(geo.channel().cross_section()).value();
    let velocity: Vec<f64> = (0..ny)
        .map(|j| plane_poiseuille((j as f64 + 0.5) / (2.0 * ny as f64)) * v_mean)
        .collect();
    let half_width = geo.stream_half_width().value();
    let length = geo.electrode_length().value();
    let (dx, dy) = (length / nx as f64, half_width / ny as f64);
    let mut anode = HalfCellMarcher::new(
        half_width,
        length,
        nx,
        velocity.clone(),
        chem.negative.inlet.c_red.value(),
        chem.negative.inlet.c_ox.value(),
    )
    .unwrap();
    let mut cathode = HalfCellMarcher::new(
        half_width,
        length,
        nx,
        velocity.clone(),
        chem.positive.inlet.c_ox.value(),
        chem.positive.inlet.c_red.value(),
    )
    .unwrap();
    let n_a = chem.negative.kinetics.couple().electrons() as f64 * FARADAY;
    let n_c = chem.positive.kinetics.couple().electrons() as f64 * FARADAY;
    let profile = sol.current_density_profile();
    assert_eq!(profile.len(), nx);
    let mut plateau = 0;
    let temps = case.temperature.resample(nx).unwrap();
    for (k, (t, &i)) in temps.into_iter().zip(profile).enumerate() {
        let st = chem.at_temperature(t).unwrap();
        let ocv = st.open_circuit_voltage(t).unwrap().value();
        let sigma = st.conductivity.at(t).unwrap();
        let asr = area_specific_resistance(geo.electrode_gap().value(), sigma).unwrap();
        let op_a = TransportOp::new(&velocity, dx, dy, st.negative.diffusivity.value()).unwrap();
        let op_c = TransportOp::new(&velocity, dx, dy, st.positive.diffusivity.value()).unwrap();
        let ra = anode.prepare_with(&op_a).unwrap();
        let rc = cathode.prepare_with(&op_c).unwrap();
        let track = case.track_products;
        let residual = |i: f64| -> f64 {
            let (qa, qc) = (i / n_a, i / n_c);
            let surf_a = SurfaceState {
                c_red: MolePerCubicMeter::new(ra.reactant_surface(qa)),
                c_ox: MolePerCubicMeter::new(if track { ra.product_surface(qa) } else { ra.p0 }),
            };
            let surf_c = SurfaceState {
                c_ox: MolePerCubicMeter::new(rc.reactant_surface(qc)),
                c_red: MolePerCubicMeter::new(if track { rc.product_surface(qc) } else { rc.p0 }),
            };
            let eta_a = st
                .negative
                .kinetics
                .overpotential_for_current(AmperePerSquareMeter::new(i), surf_a, t)
                .unwrap();
            let eta_c = st
                .positive
                .kinetics
                .overpotential_for_current(AmperePerSquareMeter::new(-i), surf_c, t)
                .unwrap();
            ocv - eta_a + eta_c - i * asr - voltage
        };
        let at = format!("{what} at {voltage} V, station {k} ({case:?})");
        let i_hi = (1.0 - 1e-9) * (ra.q_max * n_a).min(rc.q_max * n_c);
        if residual(0.0) <= 0.0 {
            assert_eq!(i, 0.0, "{at}: zero-current station solved to {i}");
        } else if residual(i_hi) >= 0.0 {
            assert!(
                (i - i_hi).abs() <= 1e-14 * i_hi,
                "{at}: plateau {i_hi}, solved {i}"
            );
            plateau += 1;
        } else {
            // The band {i : |R(i)| ≤ 1e-10 V} around the root, from
            // bracketing solves of R = ±1e-10 V at 1e-13 V.
            let opts = RootOptions {
                x_tolerance: i_hi * 1e-15,
                f_tolerance: 1e-13,
                max_iterations: 500,
            };
            let level = |target: f64| brent(|x| residual(x) - target, 0.0, i_hi, &opts).unwrap();
            let lower = if residual(0.0) <= TOL {
                0.0
            } else {
                level(TOL)
            };
            let upper = if residual(i_hi) >= -TOL {
                i_hi
            } else {
                level(-TOL)
            };
            // Next to the transport limit the balance is so steep that
            // the band is narrower than the solver's bracket tolerance
            // (1e-12·i_hi), which then decides convergence; a few ulps
            // cover the two marches' different rounding.
            let slack = (1e-12 + 16.0 * f64::EPSILON) * i_hi;
            assert!(
                i >= lower - slack && i <= upper + slack,
                "{at}: solved {i} outside the tolerance band [{lower}, {upper}]"
            );
        }
        anode.commit(i / n_a);
        cathode.commit(i / n_c);
    }
    assert_eq!(
        sol.transport_limited_stations(),
        plateau,
        "{what} at {voltage} V"
    );
}

fn ocv(case: &Case) -> f64 {
    case.model().open_circuit_voltage().unwrap().value()
}

#[test]
fn plateau_and_near_ocv_points_match_the_reference() {
    let case = Case {
        flow_ml_min: 2.0,
        temperature: TemperatureProfile::Uniform(Kelvin::new(300.0)),
        track_products: true,
        asymmetric: false,
    };
    let model = case.model();
    let low = model.solve_at_voltage(0.05).unwrap();
    assert!(
        low.transport_limited_stations() > 0,
        "the low-voltage point must exercise plateau stations"
    );
    check(&case, &low, 0.05, "plateau");
    for dv in [1e-2, 1e-3, 1e-4] {
        let v = ocv(&case) - dv;
        let sol = model.solve_at_voltage(v).unwrap();
        assert!(sol.current().value() > 0.0);
        check(&case, &sol, v, "near OCV");
    }
}

#[test]
fn asymmetric_couple_sweep_matches_the_reference() {
    let case = Case {
        flow_ml_min: 5.0,
        temperature: TemperatureProfile::Sampled(vec![Kelvin::new(301.0), Kelvin::new(312.0)]),
        track_products: true,
        asymmetric: true,
    };
    let top = ocv(&case) - 1e-4;
    let voltages: Vec<f64> = (0..8)
        .map(|k| 0.05 + (top - 0.05) * k as f64 / 7.0)
        .collect();
    let sweep = case.model().sweep_at_voltages(&voltages).unwrap();
    for (v, sol) in voltages.iter().zip(&sweep) {
        check(&case, sol, *v, "asymmetric sweep");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn newton_station_solve_matches_bracketing_reference(
        v_frac in 0.0..1.0f64,
        flow in 2.0..20.0f64,
        t_in in 295.0..310.0f64,
        rise in 0.0..15.0f64,
        track in 0usize..2,
        asym in 0usize..2,
    ) {
        let case = Case {
            flow_ml_min: flow,
            temperature: TemperatureProfile::Sampled(vec![
                Kelvin::new(t_in),
                Kelvin::new(t_in + 0.6 * rise),
                Kelvin::new(t_in + rise),
            ]),
            track_products: track == 1,
            asymmetric: asym == 1,
        };
        let top = ocv(&case);
        let v = 0.05 + (top - 0.05) * v_frac;
        let model = case.model();
        // Cold: every station starts from its upstream neighbour.
        let cold = model.solve_at_voltage(v).unwrap();
        check(&case, &cold, v, "cold");
        // Warm: a sweep hinting each point with its neighbour's profile,
        // from the plateau up to just below OCV.
        let voltages = [0.05, v, top - 1e-4];
        let sweep = model.sweep_at_voltages(&voltages).unwrap();
        for (v, sol) in voltages.iter().zip(&sweep) {
            check(&case, sol, *v, "warm");
        }
    }
}
