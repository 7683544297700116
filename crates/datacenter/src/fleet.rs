//! Meta's US datacenter fleet (the paper's Table 1).

use crate::site::DataCenterSite;
use ce_grid::BalancingAuthority;
use serde::{Deserialize, Serialize};

/// A collection of datacenter sites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fleet {
    sites: Vec<DataCenterSite>,
}

impl Fleet {
    /// The paper's Table 1: Meta's 13 US datacenter locations and regional
    /// renewable investments (MW).
    ///
    /// Average power figures for OR (73 MW), NC (51 MW) and UT (19 MW) are
    /// the values printed on the paper's Figures 7/9/12; the rest are
    /// representative hyperscale values since the paper does not publish
    /// per-site loads (see `DESIGN.md`).
    pub fn meta_us() -> Self {
        use BalancingAuthority::*;
        let rows: [(&str, &str, BalancingAuthority, f64, f64, f64); 13] = [
            ("Sarpy County, Nebraska", "NE", SWPP, 0.0, 515.0, 45.0),
            ("Prineville, Oregon", "OR", BPAT, 100.0, 0.0, 73.0),
            ("Eagle Mountain, Utah", "UT", PACE, 694.0, 239.0, 19.0),
            ("Los Lunas, New Mexico", "NM", PNM, 420.0, 215.0, 35.0),
            ("Fort Worth, Texas", "TX", ERCO, 300.0, 404.0, 45.0),
            ("DeKalb, Illinois", "IL", PJM, 0.0, 0.0, 40.0),
            ("Henrico, Virginia", "VA", PJM, 840.0, 309.0, 60.0),
            ("New Albany, Ohio", "OH", PJM, 0.0, 0.0, 40.0),
            ("Forest City, North Carolina", "NC", DUK, 410.0, 0.0, 51.0),
            ("Altoona, Iowa", "IA", MISO, 0.0, 141.0, 55.0),
            ("Newton County, Georgia", "GA", SOCO, 425.0, 0.0, 30.0),
            ("Gallatin, Tennessee", "TN", TVA, 742.0, 0.0, 25.0),
            ("Huntsville, Alabama", "AL", TVA, 0.0, 0.0, 20.0),
        ];
        Self {
            sites: rows
                .into_iter()
                .map(|(name, state, ba, solar, wind, avg)| {
                    DataCenterSite::new(name, state, ba, solar, wind, avg)
                })
                .collect(),
        }
    }

    /// All sites, in Table 1 order.
    pub fn sites(&self) -> &[DataCenterSite] {
        &self.sites
    }

    /// Looks up a site by its two-letter state code.
    ///
    /// For states with several sites (none in Table 1) the first match is
    /// returned.
    pub fn site(&self, state: &str) -> Option<&DataCenterSite> {
        self.sites.iter().find(|s| s.state() == state)
    }

    /// Total solar investment across the fleet, MW.
    pub fn total_solar_mw(&self) -> f64 {
        self.sites.iter().map(|s| s.solar_mw()).sum()
    }

    /// Total wind investment across the fleet, MW.
    pub fn total_wind_mw(&self) -> f64 {
        self.sites.iter().map(|s| s.wind_mw()).sum()
    }
}

impl<'a> IntoIterator for &'a Fleet {
    type Item = &'a DataCenterSite;
    type IntoIter = std::slice::Iter<'a, DataCenterSite>;

    fn into_iter(self) -> Self::IntoIter {
        self.sites.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_sites_as_in_table_1() {
        let fleet = Fleet::meta_us();
        assert_eq!(fleet.sites().len(), 13);
    }

    #[test]
    fn totals_match_table_1() {
        // Table 1's grand total is 5754 MW ("nearly six Gigawatts").
        // Summing the per-row columns gives solar 3931 / wind 1823; the
        // printed Total row shows the two subtotals transposed, so we trust
        // the rows (each of which is consistent with its region's regime —
        // NC/TN/GA are solar-only, NE/IA wind-only).
        let fleet = Fleet::meta_us();
        assert_eq!(fleet.total_solar_mw(), 3931.0);
        assert_eq!(fleet.total_wind_mw(), 1823.0);
        assert_eq!(fleet.total_solar_mw() + fleet.total_wind_mw(), 5754.0);
    }

    #[test]
    fn key_rows_match_table_1() {
        let fleet = Fleet::meta_us();
        let ne = fleet.site("NE").unwrap();
        assert_eq!((ne.solar_mw(), ne.wind_mw()), (0.0, 515.0));
        assert_eq!(ne.ba(), BalancingAuthority::SWPP);
        let ut = fleet.site("UT").unwrap();
        assert_eq!((ut.solar_mw(), ut.wind_mw()), (694.0, 239.0));
        let va = fleet.site("VA").unwrap();
        assert_eq!((va.solar_mw(), va.wind_mw()), (840.0, 309.0));
        let or = fleet.site("OR").unwrap();
        assert_eq!((or.solar_mw(), or.wind_mw()), (100.0, 0.0));
        assert_eq!(or.ba(), BalancingAuthority::BPAT);
    }

    #[test]
    fn oregon_invests_solar_against_a_wind_grid() {
        // The paper singles this mismatch out in §4.1.
        let fleet = Fleet::meta_us();
        let or = fleet.site("OR").unwrap();
        assert!(or.solar_mw() > or.wind_mw());
        assert_eq!(
            or.ba().regime(),
            ce_grid::balancing_authority::RenewableRegime::MajorlyWind
        );
    }

    #[test]
    fn figure_power_annotations() {
        let fleet = Fleet::meta_us();
        assert_eq!(fleet.site("OR").unwrap().avg_power_mw(), 73.0);
        assert_eq!(fleet.site("NC").unwrap().avg_power_mw(), 51.0);
        assert_eq!(fleet.site("UT").unwrap().avg_power_mw(), 19.0);
    }

    #[test]
    fn lookup_misses_return_none() {
        assert!(Fleet::meta_us().site("ZZ").is_none());
    }

    #[test]
    fn iteration_visits_every_site() {
        let fleet = Fleet::meta_us();
        assert_eq!((&fleet).into_iter().count(), 13);
    }
}
