//! Streamwise-marching species transport in one half-channel.
//!
//! At the paper's operating points the species Péclet number is 10⁴–10⁶,
//! so axial diffusion is negligible and the steady transport equation
//! (paper eq. 12) reduces to a parabolic problem that can be marched down
//! the channel:
//!
//! ```text
//! u(y)·∂C/∂x = D·∂²C/∂y²,   D·∂C/∂y|wall = ±q,   ∂C/∂y|interface = 0
//! ```
//!
//! Each station performs implicit (unconditionally stable) cross-stream
//! diffusion solves. Because the discrete operator is *linear* in the wall
//! flux `q`, the station exposes the surface concentrations as exact
//! affine functions of `q` — the cell solver uses this to couple transport
//! with Butler–Volmer kinetics without nested iteration.

use crate::FlowCellError;
use bright_num::tridiag::TridiagonalFactorization;

/// Affine response of a station's surface state to the wall molar flux
/// `q` (mol/(m²·s), positive = reactant consumed at the wall):
///
/// * reactant surface concentration: `r_surf(q) = r0 − q·sens`,
/// * product  surface concentration: `p_surf(q) = p0 + q·sens`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationResponse {
    /// Reactant surface concentration at `q = 0`.
    pub r0: f64,
    /// Product surface concentration at `q = 0`.
    pub p0: f64,
    /// Surface sensitivity to the wall flux (m²·s/m³ — concentration per
    /// unit flux).
    pub sens: f64,
    /// Largest flux that keeps the reactant surface concentration
    /// non-negative: `q_max = r0/sens`.
    pub q_max: f64,
}

impl StationResponse {
    /// Reactant surface concentration at flux `q`.
    #[inline]
    pub fn reactant_surface(&self, q: f64) -> f64 {
        (self.r0 - q * self.sens).max(0.0)
    }

    /// Product surface concentration at flux `q`.
    #[inline]
    pub fn product_surface(&self, q: f64) -> f64 {
        (self.p0 + q * self.sens).max(0.0)
    }
}

/// Precomputed cross-stream operator for one `(velocity profile,
/// diffusivity)` pair.
///
/// The implicit diffusion operator of a marching station depends only
/// on the velocity profile, the grid spacings and the diffusivity —
/// none of which change across the stations of an isothermal channel or
/// across the voltage points of a polarization sweep. Factoring it once
/// (and solving the flux-sensitivity system once, since that
/// right-hand side is operator-determined too) turns each station visit
/// into one multi-lane back-substitution ([`HalfCellMarcher::prepare_with`])
/// instead of full Thomas solves plus band assembly. This is the
/// flow-cell counterpart of the sparse symbolic/numeric split in
/// `bright-num`.
#[derive(Debug, Clone)]
pub struct TransportOp {
    fac: TridiagonalFactorization,
    /// Response of the concentration field to a unit wall flux.
    sensitivity: Vec<f64>,
    /// Surface (wall-extrapolated) sensitivity, including the half-cell
    /// correction.
    sens_surface: f64,
    d: f64,
    dy: f64,
    dx: f64,
    // Band scratch reused across refreshes (the operator's "symbolic"
    // structure: sized storage that survives coefficient changes).
    lower: Vec<f64>,
    diag: Vec<f64>,
    upper: Vec<f64>,
}

impl TransportOp {
    /// Builds and factors the station operator.
    ///
    /// * `velocity` — streamwise velocity at the `ny` cell centers
    ///   (wall-first),
    /// * `dx` — station spacing (m),
    /// * `dy` — cross-stream cell size (m),
    /// * `d` — species diffusivity (m²/s).
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] for a non-positive
    /// diffusivity and [`FlowCellError::Numerical`] if the factorization
    /// fails.
    pub fn new(velocity: &[f64], dx: f64, dy: f64, d: f64) -> Result<Self, FlowCellError> {
        let ny = velocity.len();
        let mut op = Self {
            fac: TridiagonalFactorization::factor(
                &vec![0.0; ny.saturating_sub(1)],
                &vec![1.0; ny.max(1)],
                &vec![0.0; ny.saturating_sub(1)],
            )
            .map_err(FlowCellError::from)?,
            sensitivity: vec![0.0; ny],
            sens_surface: 0.0,
            d,
            dy,
            dx,
            lower: vec![0.0; ny.saturating_sub(1)],
            diag: vec![0.0; ny],
            upper: vec![0.0; ny.saturating_sub(1)],
        };
        op.refresh(velocity, dx, dy, d)?;
        Ok(op)
    }

    /// Re-stamps and re-eliminates the operator **in place** for new
    /// coefficient values (velocity scaling, grid spacings, diffusivity)
    /// on the same cross-stream grid. No allocation: the band storage
    /// and the factorization buffers survive. The arithmetic is the same
    /// as [`TransportOp::new`], so a refreshed operator is bitwise-equal
    /// to a freshly built one — the flow-cell counterpart of
    /// `CsrSymbolic::refresh_values` on the thermal side.
    ///
    /// # Errors
    ///
    /// * [`FlowCellError::InvalidConfig`] for a non-positive diffusivity
    ///   or a velocity profile of a different length,
    /// * [`FlowCellError::Numerical`] if the re-elimination fails (the
    ///   operator must then be refreshed again before use).
    pub fn refresh(
        &mut self,
        velocity: &[f64],
        dx: f64,
        dy: f64,
        d: f64,
    ) -> Result<(), FlowCellError> {
        if !d.is_finite() || d <= 0.0 {
            return Err(FlowCellError::InvalidConfig(format!(
                "diffusivity must be positive, got {d}"
            )));
        }
        let ny = self.sensitivity.len();
        if velocity.len() != ny {
            return Err(FlowCellError::InvalidConfig(format!(
                "velocity profile has {} cells for an operator sized {ny}",
                velocity.len()
            )));
        }
        let w = d / (dy * dy);
        for (j, u) in velocity.iter().enumerate() {
            let adv = u / dx;
            let mut dj = adv;
            if j > 0 {
                self.lower[j - 1] = -w;
                dj += w;
            }
            if j + 1 < ny {
                self.upper[j] = -w;
                dj += w;
            }
            self.diag[j] = dj;
        }
        self.fac
            .refactor(&self.lower, &self.diag, &self.upper)
            .map_err(FlowCellError::from)?;
        for s in self.sensitivity.iter_mut() {
            *s = 0.0;
        }
        self.sensitivity[0] = 1.0 / dy;
        self.fac
            .solve_in_place(&mut self.sensitivity)
            .map_err(FlowCellError::from)?;
        self.sens_surface = self.sensitivity[0] + dy / (2.0 * d);
        self.d = d;
        self.dy = dy;
        self.dx = dx;
        Ok(())
    }

    /// The diffusivity this operator was built for.
    #[inline]
    pub fn diffusivity(&self) -> f64 {
        self.d
    }
}

/// Marching transport solver for one electrolyte stream (half-channel),
/// advancing one or more *lanes* in lockstep.
///
/// The y-grid covers the half-width with `ny` cells; index 0 is adjacent
/// to the electrode wall, index `ny−1` to the co-laminar interface.
///
/// A lane is one independent march through the same channel — one
/// voltage point of a polarization sweep. Every lane sees the same
/// station operators and differs only in the wall flux committed at
/// each station, so all lanes' reactant and product fields live in one
/// row-major `[ny][2·lanes]` buffer (row `j`: every lane's reactant,
/// then every lane's product) and each station advances them with one
/// multi-lane back-substitution
/// ([`TridiagonalFactorization::solve_lanes_in_place`]). A marcher from
/// [`HalfCellMarcher::new`] has one lane; [`HalfCellMarcher::with_lanes`]
/// makes a fresh one with more. The single-lane methods
/// ([`HalfCellMarcher::commit`], [`HalfCellMarcher::reactant`], …) are
/// the one-lane case of the same code: they act on lane 0.
///
/// Between stations the buffer holds the last zero-flux advance and
/// [`HalfCellMarcher::commit_lanes`] records each lane's flux; the next
/// prepare applies it and stamps the right-hand side row by row inside
/// the back-substitution, `max(zf − q·s, 0)·u/dx`, with the same
/// operations in the same order as committing the profile and stamping
/// it in passes of their own.
#[derive(Debug, Clone)]
pub struct HalfCellMarcher {
    ny: usize,
    dy: f64,
    dx: f64,
    velocity: Vec<f64>,
    /// `u/dx` per cell: the advection coefficient of the implicit
    /// operator and the zero-flux right-hand-side scaling.
    advection: Vec<f64>,
    c_reactant_in: f64,
    c_product_in: f64,
    lanes: usize,
    /// Row-major `[ny][2·lanes]` lane buffer: the zero-flux advance of
    /// the last prepared station (the inlet fill before the first).
    rows: Vec<f64>,
    /// Wall flux committed at the last prepared station, signed per
    /// buffer column: `−q` on each lane's reactant, `+q` on its product
    /// (`c + (−q)·s` is bitwise `c − q·s`).
    flux: Vec<f64>,
    /// Field response to a unit wall flux at the last prepared station.
    sensitivity: Vec<f64>,
    /// Surface (wall-extrapolated) sensitivity of that station.
    sens_surface: f64,
}

impl HalfCellMarcher {
    /// Creates a one-lane marcher.
    ///
    /// * `half_width` — stream width (m), electrode wall to interface,
    /// * `electrode_length` — marched length (m),
    /// * `nx` — number of stations,
    /// * `velocity` — streamwise velocity at the `ny` cell centers (m/s),
    ///   wall-first ordering,
    /// * `c_reactant_in`, `c_product_in` — inlet concentrations (mol/m³).
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] for degenerate dimensions
    /// or non-physical inputs.
    pub fn new(
        half_width: f64,
        electrode_length: f64,
        nx: usize,
        velocity: Vec<f64>,
        c_reactant_in: f64,
        c_product_in: f64,
    ) -> Result<Self, FlowCellError> {
        let ny = velocity.len();
        if ny < 4 {
            return Err(FlowCellError::InvalidConfig(format!(
                "need >= 4 cross-stream cells, got {ny}"
            )));
        }
        if nx < 2 {
            return Err(FlowCellError::InvalidConfig(format!(
                "need >= 2 stations, got {nx}"
            )));
        }
        if !half_width.is_finite()
            || half_width <= 0.0
            || !electrode_length.is_finite()
            || electrode_length <= 0.0
        {
            return Err(FlowCellError::InvalidConfig(format!(
                "bad domain {half_width} x {electrode_length}"
            )));
        }
        if velocity.iter().any(|u| !u.is_finite() || *u < 0.0) {
            return Err(FlowCellError::InvalidConfig(
                "velocity profile must be non-negative and finite".into(),
            ));
        }
        if velocity.iter().all(|u| *u == 0.0) {
            return Err(FlowCellError::InvalidConfig(
                "velocity profile is identically zero".into(),
            ));
        }
        if !c_reactant_in.is_finite()
            || c_reactant_in < 0.0
            || !c_product_in.is_finite()
            || c_product_in < 0.0
        {
            return Err(FlowCellError::InvalidConfig(
                "negative inlet concentration".into(),
            ));
        }
        let dx = electrode_length / nx as f64;
        let marcher = Self {
            ny,
            dy: half_width / ny as f64,
            dx,
            advection: velocity.iter().map(|u| u / dx).collect(),
            velocity,
            c_reactant_in,
            c_product_in,
            lanes: 0,
            rows: Vec::new(),
            flux: Vec::new(),
            sensitivity: vec![0.0; ny],
            sens_surface: 0.0,
        };
        Ok(marcher.with_lanes(1))
    }

    /// A fresh, inlet-filled marcher over the same channel and inlet
    /// with `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    #[must_use]
    pub fn with_lanes(&self, lanes: usize) -> Self {
        assert!(lanes > 0, "a marcher needs at least one lane");
        let mut row = vec![self.c_reactant_in; 2 * lanes];
        row[lanes..].fill(self.c_product_in);
        Self {
            ny: self.ny,
            dy: self.dy,
            dx: self.dx,
            velocity: self.velocity.clone(),
            advection: self.advection.clone(),
            c_reactant_in: self.c_reactant_in,
            c_product_in: self.c_product_in,
            lanes,
            rows: row.repeat(self.ny),
            // A zero flux through a zero sensitivity leaves the inlet
            // fill exactly as it is for the first stamp.
            flux: vec![0.0; 2 * lanes],
            sensitivity: vec![0.0; self.ny],
            sens_surface: 0.0,
        }
    }

    /// Number of lanes marched together.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Streamwise station spacing (m).
    #[inline]
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Lane 0's committed reactant profile (wall-first). Between a
    /// prepare and its commit this is the zero-flux advance.
    pub fn reactant(&self) -> Vec<f64> {
        self.committed(0)
    }

    /// Lane 0's committed product profile (wall-first).
    pub fn product(&self) -> Vec<f64> {
        self.committed(self.lanes)
    }

    /// The committed profile of buffer column `col`: the expression the
    /// next stamp applies before its `u/dx` scaling.
    fn committed(&self, col: usize) -> Vec<f64> {
        let f = self.flux[col];
        self.rows
            .chunks_exact(2 * self.lanes)
            .zip(&self.sensitivity)
            .map(|(row, s)| (row[col] + f * s).max(0.0))
            .collect()
    }

    /// Lane 0's convected reactant molar flow per unit channel height
    /// (mol/(m·s)): `Σ u_j·C_j·dy`. Used by conservation tests.
    pub fn convected_reactant_flux(&self) -> f64 {
        self.velocity
            .iter()
            .zip(self.reactant())
            .map(|(u, c)| u * c)
            .sum::<f64>()
            * self.dy
    }

    /// Prepares the next station with diffusivity `d`, building the
    /// station operator on the spot, and returns lane 0's affine surface
    /// response to the wall flux. Marches that revisit one operator use
    /// [`HalfCellMarcher::prepare_with`] and a [`TransportOp`] built once.
    ///
    /// # Errors
    ///
    /// * [`FlowCellError::InvalidConfig`] for a non-positive diffusivity,
    /// * [`FlowCellError::Numerical`] if a tridiagonal solve fails.
    pub fn prepare(&mut self, d: f64) -> Result<StationResponse, FlowCellError> {
        let op = TransportOp::new(&self.velocity, self.dx, self.dy, d)?;
        self.prepare_with(&op)
    }

    /// Advances every lane to the next station against a precomputed
    /// [`TransportOp`]: one multi-lane back-substitution for both
    /// species of all lanes, which applies the committed fluxes and
    /// stamps each row's right-hand side as it goes. Returns lane 0's
    /// response; [`HalfCellMarcher::response`] reads any lane's.
    ///
    /// The operator must have been built from this marcher's geometry
    /// *and velocity profile* (the profile is baked into the factored
    /// bands and is too large to compare per station; the `ny`/`dy`/`dx`
    /// checks below catch geometry mixups, not a different profile on
    /// the same grid).
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::Numerical`] if the operator's grid does
    /// not match this marcher's.
    pub fn prepare_with(&mut self, op: &TransportOp) -> Result<StationResponse, FlowCellError> {
        if op.sensitivity.len() != self.ny
            || (op.dy - self.dy).abs() > 1e-15 * self.dy
            || (op.dx - self.dx).abs() > 1e-15 * self.dx
        {
            return Err(FlowCellError::Numerical(format!(
                "transport operator sized {} (dy {:.3e}, dx {:.3e}) vs marcher {} \
                 (dy {:.3e}, dx {:.3e})",
                op.sensitivity.len(),
                op.dy,
                op.dx,
                self.ny,
                self.dy,
                self.dx
            )));
        }
        let (flux, sensitivity, advection) = (&self.flux, &self.sensitivity, &self.advection);
        op.fac
            .solve_lanes_in_place(&mut self.rows, 2 * self.lanes, |j, col, block| {
                let (s, w) = (sensitivity[j], advection[j]);
                let width = block.len();
                for (c, f) in block.iter_mut().zip(&flux[col..col + width]) {
                    *c = (*c + f * s).max(0.0) * w;
                }
            })
            .map_err(FlowCellError::from)?;
        self.flux.fill(0.0);
        self.sensitivity.copy_from_slice(&op.sensitivity);
        self.sens_surface = op.sens_surface;
        Ok(self.response(0))
    }

    /// Affine surface response of `lane` at the prepared station.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    #[inline]
    pub fn response(&self, lane: usize) -> StationResponse {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        let r0 = self.rows[lane];
        let sens = self.sens_surface;
        StationResponse {
            r0,
            p0: self.rows[self.lanes + lane],
            sens,
            q_max: if sens > 0.0 { r0 / sens } else { f64::INFINITY },
        }
    }

    /// Commits lane 0's prepared station with the wall flux `q`
    /// (mol/(m²·s), positive = reactant consumed) — the one-lane case of
    /// [`HalfCellMarcher::commit_lanes`].
    pub fn commit(&mut self, q: f64) {
        self.commit_lanes(&[q]);
    }

    /// Commits the prepared station with one wall flux per lane
    /// (mol/(m²·s), positive = reactant consumed); the next prepare
    /// applies them.
    ///
    /// # Panics
    ///
    /// Panics if `q` does not hold exactly one flux per lane, and (debug)
    /// if called before the first prepare.
    pub fn commit_lanes(&mut self, q: &[f64]) {
        debug_assert!(self.sens_surface > 0.0, "commit before prepare");
        assert_eq!(q.len(), self.lanes, "one flux per lane");
        let (reactant, product) = self.flux.split_at_mut(self.lanes);
        for ((r, p), q) in reactant.iter_mut().zip(product).zip(q) {
            (*r, *p) = (-q, *q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_marcher(ny: usize, nx: usize) -> HalfCellMarcher {
        HalfCellMarcher::new(100e-6, 22e-3, nx, vec![1.5; ny], 2000.0, 1.0).unwrap()
    }

    #[test]
    fn zero_flux_preserves_uniform_profile() {
        let mut m = uniform_marcher(32, 50);
        for _ in 0..50 {
            let resp = m.prepare(1.26e-10).unwrap();
            assert!((resp.r0 - 2000.0).abs() < 1e-6, "r0 = {}", resp.r0);
            m.commit(0.0);
        }
        assert!(m.reactant().iter().all(|c| (c - 2000.0).abs() < 1e-6));
        assert!(m.product().iter().all(|c| (c - 1.0).abs() < 1e-9));
    }

    #[test]
    fn constant_flux_develops_boundary_layer() {
        let mut m = uniform_marcher(64, 100);
        let q = 5e-3; // mol/(m^2 s)
        let mut last_surf = 2000.0;
        for _ in 0..100 {
            let resp = m.prepare(1.26e-10).unwrap();
            let surf = resp.reactant_surface(q);
            assert!(surf <= last_surf + 1e-9, "surface must deplete monotonically");
            last_surf = surf;
            m.commit(q);
        }
        // Depleted at the wall, untouched at the interface.
        assert!(m.reactant()[0] < 2000.0);
        assert!((m.reactant()[63] - 2000.0).abs() < 1.0);
        // Product accumulates at the wall.
        assert!(m.product()[0] > 1.0);
    }

    #[test]
    fn mass_conservation_under_wall_extraction() {
        let mut m = uniform_marcher(48, 80);
        let q = 2e-3;
        let inflow = m.convected_reactant_flux();
        for _ in 0..80 {
            m.prepare(4.13e-10).unwrap();
            m.commit(q);
        }
        let outflow = m.convected_reactant_flux();
        let extracted = q * m.dx() * 80.0;
        let balance = inflow - outflow - extracted;
        assert!(
            balance.abs() < 1e-3 * extracted,
            "imbalance {balance} vs extracted {extracted}"
        );
    }

    #[test]
    fn affine_response_matches_committed_state() {
        let mut a = uniform_marcher(32, 40);
        let mut b = uniform_marcher(32, 40);
        let q = 1e-3;
        // March `a` twice with q; predict `b`'s second-station surface via
        // the affine response, then commit and compare.
        let ra = a.prepare(1e-10).unwrap();
        a.commit(q);
        let rb = b.prepare(1e-10).unwrap();
        assert!((ra.r0 - rb.r0).abs() < 1e-12);
        b.commit(q);
        let ra2 = a.prepare(1e-10).unwrap();
        let rb2 = b.prepare(1e-10).unwrap();
        assert!((ra2.reactant_surface(q) - rb2.reactant_surface(q)).abs() < 1e-9);
    }

    #[test]
    fn q_max_prevents_negative_surface() {
        let mut m = uniform_marcher(32, 40);
        let resp = m.prepare(1e-10).unwrap();
        let almost = resp.q_max * 0.999999;
        assert!(resp.reactant_surface(almost) >= 0.0);
        assert!(resp.reactant_surface(resp.q_max * 1.1) == 0.0); // clamped
        m.commit(almost);
        assert!(m.reactant()[0] >= 0.0);
    }

    #[test]
    fn station_sensitivity_is_memoryless_but_depletion_accumulates() {
        // The affine sensitivity is a single-station response: with a
        // station-independent operator it is identical at every station.
        // The boundary-layer *memory* lives in the committed profiles:
        // under constant flux the zero-flux surface value r0 keeps
        // falling downstream.
        let mut m = uniform_marcher(64, 60);
        let first = m.prepare(1.26e-10).unwrap();
        m.commit(2e-3);
        let mut r0_prev = first.r0;
        for k in 0..58 {
            let resp = m.prepare(1.26e-10).unwrap();
            assert!(
                (resp.sens - first.sens).abs() < 1e-9 * first.sens,
                "sens changed at station {k}"
            );
            assert!(resp.r0 < r0_prev + 1e-9, "r0 must decay, station {k}");
            r0_prev = resp.r0;
            m.commit(2e-3);
        }
        assert!(r0_prev < first.r0 - 10.0, "significant depletion expected");
    }

    #[test]
    fn prepare_with_matches_prepare() {
        // A marcher that builds each station's operator on the spot
        // (`prepare`) must march exactly like one holding a prebuilt
        // operator (`prepare_with`), over a full march with extraction.
        let d = 1.26e-10;
        let q = 3e-3;
        let mut a = uniform_marcher(48, 60);
        let mut b = uniform_marcher(48, 60);
        let op = TransportOp::new(&vec![1.5; 48], a.dx(), 100e-6 / 48.0, d).unwrap();
        assert_eq!(op.diffusivity(), d);
        for station in 0..60 {
            let ra = a.prepare(d).unwrap();
            let rb = b.prepare_with(&op).unwrap();
            assert_eq!(ra, rb, "station {station}");
            a.commit(q);
            b.commit(q);
        }
        assert_eq!(a.reactant(), b.reactant());
        assert_eq!(a.product(), b.product());
    }

    #[test]
    fn prepare_with_lanes_are_bitwise_single_back_substitutions() {
        // Every lane of a multi-lane march must match, bit for bit, a
        // reference march of that lane alone: stamp `c·u/dx`, one
        // single-vector back-substitution per species, commit
        // `max(zf ∓ q·s, 0)`. Lanes draw different fluxes (some strong
        // enough to clamp the wall cell at zero) and the operator
        // changes along the channel, as under a sampled temperature.
        let ny = 48;
        let nx = 30;
        let velocity: Vec<f64> = (0..ny).map(|j| 0.2 + 0.05 * j as f64).collect();
        let one = HalfCellMarcher::new(100e-6, 22e-3, nx, velocity.clone(), 2000.0, 1.0).unwrap();
        let dx = one.dx();
        let ops: Vec<TransportOp> = [2.1e-10, 2.6e-10, 3.3e-10]
            .iter()
            .map(|&d| TransportOp::new(&velocity, dx, 100e-6 / ny as f64, d).unwrap())
            .collect();
        for lanes in [1usize, 2, 3, 16, 40] {
            let mut m = one.with_lanes(lanes);
            assert_eq!(m.lanes(), lanes);
            let mut reference: Vec<(Vec<f64>, Vec<f64>)> =
                vec![(vec![2000.0; ny], vec![1.0; ny]); lanes];
            for station in 0..nx {
                let op = &ops[station * ops.len() / nx];
                m.prepare_with(op).unwrap();
                let mut fluxes = Vec::with_capacity(lanes);
                for (lane, (r, p)) in reference.iter_mut().enumerate() {
                    let (mut zr, mut zp) = (r.clone(), p.clone());
                    for ((zr, zp), u) in zr.iter_mut().zip(zp.iter_mut()).zip(&velocity) {
                        *zr *= u / dx;
                        *zp *= u / dx;
                    }
                    op.fac.solve_in_place(&mut zr).unwrap();
                    op.fac.solve_in_place(&mut zp).unwrap();
                    for j in 0..ny {
                        let at = format!("lanes {lanes}, lane {lane}, station {station}");
                        let row = &m.rows[j * 2 * lanes..(j + 1) * 2 * lanes];
                        assert_eq!(row[lane].to_bits(), zr[j].to_bits(), "{at}");
                        assert_eq!(row[lanes + lane].to_bits(), zp[j].to_bits(), "{at}");
                    }
                    let resp = m.response(lane);
                    assert_eq!(resp.r0.to_bits(), zr[0].to_bits());
                    assert_eq!(resp.p0.to_bits(), zp[0].to_bits());
                    let q = 1e-3 * (1 + lane % 7) as f64 * if lane % 5 == 4 { 40.0 } else { 1.0 };
                    for j in 0..ny {
                        r[j] = (zr[j] - q * op.sensitivity[j]).max(0.0);
                        p[j] = (zp[j] + q * op.sensitivity[j]).max(0.0);
                    }
                    fluxes.push(q);
                }
                m.commit_lanes(&fluxes);
            }
            // Lane 0's committed profiles read back exactly.
            for (a, b) in m
                .reactant()
                .iter()
                .zip(&reference[0].0)
                .chain(m.product().iter().zip(&reference[0].1))
            {
                assert_eq!(a.to_bits(), b.to_bits(), "lanes {lanes}");
            }
        }
    }

    #[test]
    fn refreshed_op_matches_fresh_build_bitwise() {
        // A refreshed operator must be indistinguishable from one built
        // cold at the new coefficients: same factorization, same
        // sensitivity, same marching behaviour.
        let dx = 22e-3 / 60.0;
        let dy = 100e-6 / 48.0;
        let slow: Vec<f64> = (0..48).map(|j| 0.8 + 0.01 * j as f64).collect();
        let fast: Vec<f64> = slow.iter().map(|u| u * 2.5).collect();
        let mut op = TransportOp::new(&slow, dx, dy, 1.26e-10).unwrap();
        // Flow change (velocity rescale), then a diffusivity change.
        for (v, d) in [(&fast, 1.26e-10), (&slow, 4.13e-10)] {
            op.refresh(v, dx, dy, d).unwrap();
            let fresh = TransportOp::new(v, dx, dy, d).unwrap();
            assert_eq!(op.fac, fresh.fac);
            assert_eq!(op.sensitivity, fresh.sensitivity);
            assert_eq!(op.sens_surface.to_bits(), fresh.sens_surface.to_bits());
            assert_eq!(op.diffusivity(), d);
        }
        // Wrong-sized profiles and bad diffusivities are rejected.
        assert!(op.refresh(&slow[..20], dx, dy, 1e-10).is_err());
        assert!(op.refresh(&slow, dx, dy, 0.0).is_err());
        assert!(op.refresh(&slow, dx, dy, f64::NAN).is_err());
    }

    #[test]
    fn transport_op_validates() {
        assert!(TransportOp::new(&[1.0; 8], 1e-3, 1e-5, 0.0).is_err());
        assert!(TransportOp::new(&[1.0; 8], 1e-3, 1e-5, f64::NAN).is_err());
        let op = TransportOp::new(&[1.0; 8], 1e-3, 1e-5, 1e-10).unwrap();
        let mut m = uniform_marcher(16, 4);
        // Mismatched operator size is rejected.
        assert!(m.prepare_with(&op).is_err());
        // Matching ny/dy but a different station spacing is rejected too
        // (dx is baked into the factored bands).
        let mut m32 = uniform_marcher(32, 40);
        let wrong_dx =
            TransportOp::new(&vec![1.5; 32], m32.dx() * 2.0, 100e-6 / 32.0, 1e-10).unwrap();
        assert!(m32.prepare_with(&wrong_dx).is_err());
    }

    #[test]
    fn construction_validation() {
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 10, vec![1.0; 3], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 1, vec![1.0; 8], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(0.0, 1e-2, 10, vec![1.0; 8], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 10, vec![-1.0; 8], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 10, vec![0.0; 8], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 10, vec![1.0; 8], -1.0, 1.0).is_err());
        let mut m = uniform_marcher(8, 4);
        assert!(m.prepare(0.0).is_err());
        assert!(m.prepare(f64::NAN).is_err());
    }
}
