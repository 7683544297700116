//! Hourly carbon intensity of a grid's generation mix.

use crate::fuel::FuelType;
use ce_timeseries::{HourlySeries, TimeSeriesError};

/// Computes the hourly carbon intensity (tons CO2eq per MWh) of a
/// generation mix: the generation-weighted average of each fuel's
/// lifecycle intensity (paper Table 2).
///
/// Hours with zero total generation report zero intensity.
///
/// # Errors
///
/// Returns [`TimeSeriesError::Empty`] for an empty fuel list and an
/// alignment error if the fuel series are misaligned (they always are
/// aligned when produced by [`GridDataset`](crate::GridDataset)).
pub fn carbon_intensity_series(
    fuels: &[(FuelType, HourlySeries)],
) -> Result<HourlySeries, TimeSeriesError> {
    let Some((_, first)) = fuels.first() else {
        return Err(TimeSeriesError::Empty);
    };
    for (_, s) in fuels {
        first.check_aligned(s)?;
    }
    // Fuel by fuel, each hour's two sums take their terms in fuel order,
    // the same as a per-hour loop over the fuels, but each fuel's
    // intensity is looked up once.
    let mut weighted = vec![0.0; first.len()];
    let mut total = vec![0.0; first.len()];
    for (fuel, series) in fuels {
        let intensity = fuel.carbon_intensity_t_per_mwh();
        for ((weighted, total), gen) in weighted.iter_mut().zip(&mut total).zip(series.values()) {
            *weighted += gen * intensity;
            *total += gen;
        }
    }
    for (weighted, total) in weighted.iter_mut().zip(&total) {
        *weighted = if *total > 0.0 { *weighted / total } else { 0.0 };
    }
    Ok(HourlySeries::from_values(first.start(), weighted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_timeseries::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    #[test]
    fn pure_coal_hour_has_coal_intensity() {
        let fuels = vec![
            (
                FuelType::Coal,
                HourlySeries::from_values(start(), vec![10.0, 0.0]),
            ),
            (
                FuelType::Wind,
                HourlySeries::from_values(start(), vec![0.0, 10.0]),
            ),
        ];
        let intensity = carbon_intensity_series(&fuels).unwrap();
        assert!((intensity[0] - 0.820).abs() < 1e-12);
        assert!((intensity[1] - 0.011).abs() < 1e-12);
    }

    #[test]
    fn mixed_hour_is_weighted_average() {
        let fuels = vec![
            (
                FuelType::Coal,
                HourlySeries::from_values(start(), vec![5.0]),
            ),
            (
                FuelType::Wind,
                HourlySeries::from_values(start(), vec![5.0]),
            ),
        ];
        let intensity = carbon_intensity_series(&fuels).unwrap();
        assert!((intensity[0] - (0.820 + 0.011) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_generation_hour_is_zero() {
        let fuels = vec![(
            FuelType::NaturalGas,
            HourlySeries::from_values(start(), vec![0.0]),
        )];
        assert_eq!(carbon_intensity_series(&fuels).unwrap()[0], 0.0);
    }

    #[test]
    fn empty_fuel_list_is_an_error() {
        assert!(carbon_intensity_series(&[]).is_err());
    }
}
