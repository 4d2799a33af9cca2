//! The seven SPLASH-2 applications and their Table 3 calibration data.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One application from the paper's study (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SplashApp {
    /// Barnes-Hut N-body; moderate communication with spatial locality.
    Barnes,
    /// 2D FFT; regular, strided, high communication volume.
    Fft,
    /// LU decomposition; regular blocked access.
    Lu,
    /// Radix sort; phase-structured with all-to-all permutation.
    Radix,
    /// Raytracer; irregular task-farm access around task queues.
    Raytrace,
    /// Volume renderer; irregular task-farm access.
    Volrend,
    /// Water-spatial; iterative molecular dynamics, strong locality.
    Water,
}

impl SplashApp {
    /// All applications in the paper's order.
    pub const ALL: [SplashApp; 7] = [
        SplashApp::Fft,
        SplashApp::Lu,
        SplashApp::Barnes,
        SplashApp::Radix,
        SplashApp::Raytrace,
        SplashApp::Volrend,
        SplashApp::Water,
    ];

    /// The calibration data from the paper's Table 3.
    pub fn spec(self) -> AppSpec {
        match self {
            SplashApp::Fft => AppSpec {
                app: self,
                problem_size: "4M elements",
                footprint_pages: 10_803,
                lookups: 43_132,
                regular: true,
            },
            SplashApp::Lu => AppSpec {
                app: self,
                problem_size: "4K x 4K matrix",
                footprint_pages: 12_507,
                lookups: 25_198,
                regular: true,
            },
            SplashApp::Barnes => AppSpec {
                app: self,
                problem_size: "32K particles",
                footprint_pages: 2_235,
                lookups: 35_904,
                regular: false,
            },
            SplashApp::Radix => AppSpec {
                app: self,
                problem_size: "4M keys",
                footprint_pages: 6_393,
                lookups: 11_775,
                regular: false,
            },
            SplashApp::Raytrace => AppSpec {
                app: self,
                problem_size: "256 x 256 car",
                footprint_pages: 6_319,
                lookups: 14_594,
                regular: false,
            },
            SplashApp::Volrend => AppSpec {
                app: self,
                problem_size: "256^3 CST head",
                footprint_pages: 2_371,
                lookups: 9_438,
                regular: false,
            },
            SplashApp::Water => AppSpec {
                app: self,
                problem_size: "15,625 molecules",
                footprint_pages: 1_890,
                lookups: 8_488,
                regular: false,
            },
        }
    }

    /// Canonical lowercase name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SplashApp::Barnes => "barnes",
            SplashApp::Fft => "fft",
            SplashApp::Lu => "lu",
            SplashApp::Radix => "radix",
            SplashApp::Raytrace => "raytrace",
            SplashApp::Volrend => "volrend",
            SplashApp::Water => "water-spatial",
        }
    }
}

impl fmt::Display for SplashApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-application calibration targets (paper Table 3, per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppSpec {
    /// The application.
    pub app: SplashApp,
    /// Problem size as quoted by the paper.
    pub problem_size: &'static str,
    /// Average distinct communication pages per node.
    pub footprint_pages: u64,
    /// Average translation lookups per node.
    pub lookups: u64,
    /// Whether §6.5 classifies the communication pattern as regular.
    pub regular: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values_present_for_all_apps() {
        assert_eq!(SplashApp::ALL.len(), 7);
        for app in SplashApp::ALL {
            let s = app.spec();
            assert!(s.footprint_pages > 1000);
            assert!(s.lookups > 8000);
            assert!(!app.name().is_empty());
        }
    }

    #[test]
    fn compulsory_rates_match_paper_check_miss_rates() {
        // Table 4 check-miss column is footprint/lookups to within noise:
        // the compulsory floor a UTLB with infinite memory converges to.
        let close = |app: SplashApp, expect: f64, tol: f64| {
            let s = app.spec();
            let got = s.footprint_pages as f64 / s.lookups as f64;
            assert!(
                (got - expect).abs() < tol,
                "{app}: got {got:.3}, paper {expect}"
            );
        };
        close(SplashApp::Fft, 0.25, 0.01);
        close(SplashApp::Lu, 0.49, 0.01);
        close(SplashApp::Radix, 0.54, 0.01);
        close(SplashApp::Raytrace, 0.43, 0.01);
        close(SplashApp::Volrend, 0.25, 0.01);
    }

    #[test]
    fn regular_flags_match_section_65() {
        assert!(SplashApp::Fft.spec().regular);
        assert!(SplashApp::Lu.spec().regular);
        for app in [
            SplashApp::Barnes,
            SplashApp::Radix,
            SplashApp::Raytrace,
            SplashApp::Volrend,
            SplashApp::Water,
        ] {
            assert!(!app.spec().regular, "{app}");
        }
    }
}
