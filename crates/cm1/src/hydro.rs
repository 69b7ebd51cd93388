//! Microphysics-style radar reflectivity derivation.
//!
//! CM1's reflectivity "derives from a calculation based on cloud rain,
//! hail, and snow microphysical variables, and it can be compared with real
//! weather radar observations" (paper §II-A). We follow the standard
//! single-moment relations (Smith et al. 1975 family, as used by CM1's
//! radar-reflectivity diagnostic): each species contributes a power law in
//! its *rain-water content* `ρ·q`, summed in linear Z (mm⁶/m³) and
//! converted to dBZ.

use crate::storm::smoothstep01;

/// Air density (kg/m³) at normalized height `z ∈ [0,1]` (≈0–20 km):
/// exponential profile with ~8 km scale height.
#[inline]
pub fn air_density(z: f32) -> f32 {
    1.2 * (-2.5 * z).exp()
}

/// Z–q power laws, linear Z in mm⁶/m³ for content in kg/m³.
#[inline]
fn z_rain(rwc: f32) -> f32 {
    if rwc <= 0.0 {
        0.0
    } else {
        3.63e9 * rwc.powf(1.75)
    }
}

#[inline]
fn z_snow(swc: f32) -> f32 {
    if swc <= 0.0 {
        0.0
    } else {
        9.80e8 * swc.powf(1.66)
    }
}

#[inline]
fn z_hail(gwc: f32) -> f32 {
    if gwc <= 0.0 {
        0.0
    } else {
        4.33e10 * gwc.powf(1.71)
    }
}

/// How a plane at normalized height `z` splits condensate into the three
/// precipitating species: rain below the freezing level, snow aloft, hail
/// (graupel) in the strong core only. The snow onset is wide so the anvil
/// base is a gentle dB gradient rather than a block-scale cliff.
#[derive(Debug, Clone, Copy)]
pub struct SpeciesSplit {
    rain: f32,
    snow: f32,
    core: f32,
}

impl SpeciesSplit {
    pub fn at(z: f32) -> Self {
        Self {
            rain: 1.0 - smoothstep01((z - 0.15) / 0.45),
            snow: smoothstep01((z - 0.35) / 0.45),
            core: (-(((z - 0.33) / 0.22) * ((z - 0.33) / 0.22))).exp(),
        }
    }

    /// Mixing ratios `[qr, qs, qg]` (kg/kg) of condensate `c ∈ [0, 1]`.
    #[inline]
    pub fn mixing_ratios(&self, c: f32) -> [f32; 3] {
        [
            c * self.rain * 6.0e-3,
            c * self.snow * 4.0e-3,
            c * c * self.core * 8.0e-3,
        ]
    }
}

/// Radar reflectivity (dBZ) of rain / snow / hail mixing ratios in air of
/// density `rho`.
#[inline]
pub fn dbz(rho: f32, qr: f32, qs: f32, qg: f32) -> f32 {
    let zsum = z_rain(rho * qr) + z_snow(rho * qs) + z_hail(rho * qg);
    // 1e-6 mm⁶/m³ floor ⇒ −60 dBZ, the radar sensitivity floor.
    10.0 * zsum.max(1e-6).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_profile_decreases() {
        assert!(air_density(0.0) > air_density(0.5));
        assert!(air_density(0.5) > air_density(1.0));
        assert!((air_density(0.0) - 1.2).abs() < 1e-6);
    }

    #[test]
    fn zero_hydrometeors_hit_the_floor() {
        for z in [0.0, 0.5, 1.0] {
            let [qr, qs, qg] = SpeciesSplit::at(z).mixing_ratios(0.0);
            let v = dbz(air_density(z), qr, qs, qg);
            assert!((v - (-60.0)).abs() < 1e-4, "dry air at z = {z}: {v} dBZ");
        }
    }

    #[test]
    fn heavy_rain_is_realistic_dbz() {
        // 6 g/kg of rain at the surface ⇒ upper-50s dBZ, a strong storm.
        let surface = dbz(air_density(0.0), 6.0e-3, 0.0, 0.0);
        assert!((50.0..65.0).contains(&surface), "surface dBZ = {surface}");
    }

    #[test]
    fn hail_outshines_equal_snow() {
        let rho = air_density(0.0);
        let snow = dbz(rho, 0.0, 3e-3, 0.0);
        let hail = dbz(rho, 0.0, 0.0, 3e-3);
        assert!(hail > snow + 10.0, "hail {hail} dBZ vs snow {snow} dBZ");
    }

    #[test]
    fn reflectivity_monotone_in_content() {
        let mut prev = f32::MIN;
        for q in [1e-4f32, 1e-3, 3e-3, 8e-3] {
            let v = dbz(air_density(0.0), q, 0.0, 0.0);
            assert!(v > prev, "dBZ must grow with rain content");
            prev = v;
        }
    }

    #[test]
    fn species_follow_height() {
        // Saturated condensate: all rain at the surface, all snow aloft,
        // hail peaking in the mid-level core.
        let [qr, qs, _] = SpeciesSplit::at(0.0).mixing_ratios(1.0);
        assert!(qr > 0.0 && qs == 0.0);
        let [qr, qs, _] = SpeciesSplit::at(0.9).mixing_ratios(1.0);
        assert!(qr == 0.0 && qs > 0.0);
        let hail = |z: f32| SpeciesSplit::at(z).mixing_ratios(1.0)[2];
        assert!(hail(0.33) > hail(0.05) && hail(0.33) > hail(0.7));
    }
}
