//! Property tests of the geometry/coefficient context split: a model
//! driven through a random sequence of `retarget_flow` /
//! `retarget_temperature` / `retarget_inlets` mutations must produce
//! solves **bitwise-equal** to a model built cold at the final
//! parameters, while never rebuilding its geometry context; and a
//! fused `CellModel::retarget` of several fields at once must match
//! both a cold build and the one-field sequence, in one refresh.

use proptest::prelude::*;

use bright_echem::{vanadium, Electrolyte};
use bright_flow::RectChannel;
use bright_flowcell::options::{SolverOptions, TemperatureProfile, VelocityModel};
use bright_flowcell::{CellGeometry, CellModel, CellSolution, CellTarget, GeometryCache};
use bright_units::{CubicMetersPerSecond, Kelvin, Meters, MolePerCubicMeter};

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

fn options(velocity: VelocityModel) -> SolverOptions {
    SolverOptions {
        ny: 16,
        nx: 40,
        velocity,
        ..SolverOptions::default()
    }
}

/// The plain-parameter description of an operating point; builds the
/// cold reference model.
#[derive(Clone)]
struct Spec {
    flow: CubicMetersPerSecond,
    temperature: TemperatureProfile,
    neg_inlet: Electrolyte,
    pos_inlet: Electrolyte,
    velocity: VelocityModel,
}

impl Spec {
    fn base(velocity: VelocityModel) -> Self {
        let chem = vanadium::power7_cell_chemistry();
        Self {
            flow: CubicMetersPerSecond::from_milliliters_per_minute(7.68),
            temperature: TemperatureProfile::Uniform(Kelvin::new(300.0)),
            neg_inlet: chem.negative.inlet,
            pos_inlet: chem.positive.inlet,
            velocity,
        }
    }

    fn cold_model(&self) -> CellModel {
        let mut chem = vanadium::power7_cell_chemistry();
        chem.negative.inlet = self.neg_inlet;
        chem.positive.inlet = self.pos_inlet;
        CellModel::new(
            geometry(),
            chem,
            self.flow,
            self.temperature.clone(),
            options(self.velocity),
        )
        .unwrap()
    }
}

/// Applies retarget step `kind` (parameterized by `p ∈ [0,1)`) to both
/// the warm model and the spec.
fn apply_step(model: &mut CellModel, spec: &mut Spec, kind: usize, p: f64) {
    match kind % 4 {
        0 => {
            let flow = CubicMetersPerSecond::from_milliliters_per_minute(2.0 + 18.0 * p);
            model.retarget_flow(flow).unwrap();
            spec.flow = flow;
        }
        1 => {
            let t = TemperatureProfile::Uniform(Kelvin::new(292.0 + 30.0 * p));
            model.retarget_temperature(t.clone()).unwrap();
            spec.temperature = t;
        }
        2 => {
            let t = TemperatureProfile::Sampled(vec![
                Kelvin::new(296.0 + 10.0 * p),
                Kelvin::new(300.0 + 12.0 * p),
                Kelvin::new(303.0 + 14.0 * p),
            ]);
            model.retarget_temperature(t.clone()).unwrap();
            spec.temperature = t;
        }
        _ => {
            let total = MolePerCubicMeter::new(2000.0);
            let soc = 0.2 + 0.6 * p;
            let neg = Electrolyte::negative_at_soc(total, soc).unwrap();
            let pos = Electrolyte::positive_at_soc(total, soc).unwrap();
            model.retarget_inlets(neg, pos).unwrap();
            spec.neg_inlet = neg;
            spec.pos_inlet = pos;
        }
    }
}

fn assert_bitwise_equal(warm: &CellSolution, cold: &CellSolution) {
    assert_eq!(warm.voltage().value().to_bits(), cold.voltage().value().to_bits());
    assert_eq!(warm.current().value().to_bits(), cold.current().value().to_bits());
    let (wp, cp) = (warm.current_density_profile(), cold.current_density_profile());
    assert_eq!(wp.len(), cp.len());
    for (w, c) in wp.iter().zip(cp) {
        assert_eq!(w.to_bits(), c.to_bits());
    }
    for (w, c) in warm
        .anode_overpotential_profile()
        .iter()
        .zip(cold.anode_overpotential_profile())
    {
        assert_eq!(w.to_bits(), c.to_bits());
    }
    assert_eq!(
        warm.transport_limited_stations(),
        cold.transport_limited_stations()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn retarget_sequences_match_cold_builds_bitwise(
        k1 in 0usize..4,
        p1 in 0.0..1.0f64,
        k2 in 0usize..4,
        p2 in 0.0..1.0f64,
        k3 in 0usize..4,
        p3 in 0.0..1.0f64,
        v_probe in 0.3..1.3f64,
    ) {
        let mut spec = Spec::base(VelocityModel::PlanePoiseuille);
        let mut model = spec.cold_model();
        model.solve_at_voltage(1.0).unwrap();
        let base = model.context_stats();
        prop_assert_eq!(base.geometry_builds, 1);

        for (k, p) in [(k1, p1), (k2, p2), (k3, p3)] {
            apply_step(&mut model, &mut spec, k, p);
            let warm = model.solve_at_voltage(v_probe).unwrap();
            let cold = spec.cold_model().solve_at_voltage(v_probe).unwrap();
            assert_bitwise_equal(&warm, &cold);
        }
        let stats = model.context_stats();
        prop_assert_eq!(stats.geometry_builds, 1);
        prop_assert_eq!(stats.coefficient_builds, 1);
        prop_assert_eq!(stats.coefficient_refreshes, 3);
    }

    #[test]
    fn duct_retargets_never_resolve_the_duct(
        p1 in 0.0..1.0f64,
        p2 in 0.0..1.0f64,
    ) {
        // Duct velocity model: the geometry context holds a real Poisson
        // solve. Flow and uniform-temperature retargets must reuse it
        // (zero further duct solves, zero new operator builds) and stay
        // bitwise-equal to cold builds.
        let mut spec = Spec::base(VelocityModel::Duct { nz: 6 });
        let mut model = spec.cold_model();
        model.solve_at_voltage(1.0).unwrap();
        let base = model.context_stats();
        prop_assert_eq!(base.geometry_builds, 1);
        prop_assert_eq!(base.op_builds, 2);

        for (k, p) in [(0usize, p1), (1usize, p2)] {
            apply_step(&mut model, &mut spec, k, p);
            let warm = model.solve_at_voltage(0.8).unwrap();
            let cold = spec.cold_model().solve_at_voltage(0.8).unwrap();
            assert_bitwise_equal(&warm, &cold);
        }
        let stats = model.context_stats();
        prop_assert_eq!(stats.geometry_builds, 1, "duct was re-solved");
        prop_assert_eq!(stats.op_builds, 2, "flow/temperature retargets built new operators");
        prop_assert!(stats.op_refreshes >= 2);
    }
}

/// The fused-retarget target with every field drawn from `p ∈ [0,1)⁴`;
/// `moved` masks which fields leave `from` (bit 0 geometry, 1 ASR,
/// 2 flow, 3 temperature).
fn moved_target(from: &CellTarget, moved: usize, p: [f64; 4]) -> CellTarget {
    let mut to = from.clone();
    if moved & 1 != 0 {
        to.geometry = CellGeometry::new(
            RectChannel::new(
                Meters::from_micrometers(180.0 + 50.0 * p[0]),
                Meters::from_micrometers(400.0),
                Meters::from_millimeters(22.0),
            )
            .unwrap(),
        );
    }
    if moved & 2 != 0 {
        to.contact_asr = 1e-6 + 4e-5 * p[1];
    }
    if moved & 4 != 0 {
        to.flow = CubicMetersPerSecond::from_milliliters_per_minute(3.0 + 12.0 * p[2]);
    }
    if moved & 8 != 0 {
        to.temperature = TemperatureProfile::Sampled(vec![
            Kelvin::new(296.0 + 8.0 * p[3]),
            Kelvin::new(301.0 + 11.0 * p[3]),
            Kelvin::new(299.0 + 15.0 * p[3]),
            Kelvin::new(305.0 + 9.0 * p[3]),
        ]);
    }
    to
}

fn cold_at(to: &CellTarget, velocity: VelocityModel) -> CellModel {
    CellModel::new(
        to.geometry,
        vanadium::power7_cell_chemistry(),
        to.flow,
        to.temperature.clone(),
        SolverOptions {
            contact_asr: to.contact_asr,
            ..options(velocity)
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fused_retargets_match_cold_builds_and_wrapper_sequences(
        m1 in 0usize..16,
        m2 in 0usize..16,
        p1 in 0.0..1.0f64,
        p2 in 0.0..1.0f64,
        p3 in 0.0..1.0f64,
        p4 in 0.0..1.0f64,
        v_probe in 0.4..1.3f64,
    ) {
        let velocity = VelocityModel::Duct { nz: 6 };
        let spec = Spec::base(velocity);
        let mut fused = spec.cold_model();
        let mut stepped = spec.cold_model();
        fused.solve_at_voltage(1.0).unwrap();
        stepped.solve_at_voltage(1.0).unwrap();
        let (cache, stepped_cache) = (GeometryCache::new(), GeometryCache::new());

        for (moved, p) in [(m1, [p1, p2, p3, p4]), (m2, [p4, p3, p1, p2])] {
            let to = moved_target(&fused.target(), moved, p);
            let before = fused.context_stats().coefficient_refreshes;
            fused.retarget(&to, Some(&cache)).unwrap();
            let refreshes = fused.context_stats().coefficient_refreshes - before;
            prop_assert_eq!(refreshes, u64::from(moved != 0), "mask {}", moved);
            prop_assert!(fused.target() == to);

            stepped.retarget_geometry(to.geometry, Some(&stepped_cache)).unwrap();
            stepped.retarget_contact_asr(to.contact_asr).unwrap();
            stepped.retarget_flow(to.flow).unwrap();
            stepped.retarget_temperature(to.temperature.clone()).unwrap();

            let warm = fused.solve_at_voltage(v_probe).unwrap();
            assert_bitwise_equal(&warm, &stepped.solve_at_voltage(v_probe).unwrap());
            assert_bitwise_equal(&warm, &cold_at(&to, velocity).solve_at_voltage(v_probe).unwrap());
        }
        let stats = fused.context_stats();
        prop_assert_eq!(stats.coefficient_builds, 1);
        // A no-change target is free.
        let same = fused.target();
        fused.retarget(&same, Some(&cache)).unwrap();
        prop_assert_eq!(fused.context_stats(), stats);
    }

    #[test]
    fn invalid_fused_targets_leave_the_model_unchanged(
        moved in 0usize..16,
        bad in 0usize..4,
        p in 0.0..1.0f64,
        v_probe in 0.4..1.3f64,
    ) {
        let spec = Spec::base(VelocityModel::Duct { nz: 6 });
        let mut model = spec.cold_model();
        let reference = model.solve_at_voltage(v_probe).unwrap();
        let before = (model.target(), model.context_stats());

        // Valid moves of any fields alongside one invalid field.
        let mut to = moved_target(&model.target(), moved, [p; 4]);
        match bad {
            0 => to.flow = CubicMetersPerSecond::new(0.0),
            1 => to.flow = CubicMetersPerSecond::new(f64::NAN),
            2 => to.contact_asr = -1e-6,
            _ => to.temperature = TemperatureProfile::Sampled(vec![
                Kelvin::new(300.0),
                Kelvin::new(-4.0),
            ]),
        }
        prop_assert!(model.retarget(&to, None).is_err());
        prop_assert!(model.target() == before.0);
        prop_assert_eq!(model.context_stats(), before.1);
        assert_bitwise_equal(&model.solve_at_voltage(v_probe).unwrap(), &reference);
    }
}
