//! The Perfect Benchmark suite registry.

use crate::spec::AppSpec;
use crate::{adm, arc2d, flo52, mdg, ocean};

/// The five applications, in the order the paper's tables list them:
/// FLO52, ARC2D, MDG, OCEAN, ADM.
pub fn perfect_suite() -> Vec<AppSpec> {
    vec![
        flo52::spec(),
        arc2d::spec(),
        mdg::spec(),
        ocean::spec(),
        adm::spec(),
    ]
}

/// Looks an application model up by (case-insensitive) name.
pub fn app_by_name(name: &str) -> Option<AppSpec> {
    perfect_suite()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_five_apps_in_table_order() {
        let names: Vec<_> = perfect_suite().iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["FLO52", "ARC2D", "MDG", "OCEAN", "ADM"]);
    }

    #[test]
    fn every_perfect_app_validates() {
        for app in perfect_suite() {
            app.validate();
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(app_by_name("flo52").is_some());
        assert!(app_by_name("Mdg").is_some());
        assert!(app_by_name("nope").is_none());
    }

    #[test]
    fn construct_usage_matches_section2() {
        // §2: FLO52 only hierarchical; ADM only flat; others both.
        let suite = perfect_suite();
        let by = |n: &str| suite.iter().find(|a| a.name == n).unwrap();
        assert!(!by("FLO52").uses_xdoall());
        assert!(!by("ADM").uses_sdoall());
        for n in ["ARC2D", "MDG", "OCEAN"] {
            assert!(by(n).uses_sdoall() && by(n).uses_xdoall());
        }
    }
}
