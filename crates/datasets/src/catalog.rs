//! The 20-dataset catalogue mirroring Table I of the EA-DRL paper.

use crate::components::SeriesBuilder;
use eadrl_timeseries::{Frequency, TimeSeries};

/// Identifier of one of the paper's 20 evaluation series (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// 1 — Water consumption, Oporto city (daily).
    WaterConsumption,
    /// 2 — Humidity, bike sharing (hourly).
    BikeHumidity,
    /// 3 — Windspeed, bike sharing (hourly).
    BikeWindspeed,
    /// 4 — Total bike rentals (hourly).
    BikeRentals,
    /// 5 — Vatnsdalsa river flow (daily).
    RiverFlow,
    /// 6 — Total cloud cover, weather data (hourly).
    CloudCover,
    /// 7 — Precipitation, weather data (hourly).
    Precipitation,
    /// 8 — Global horizontal radiation, solar monitoring (hourly).
    SolarRadiation,
    /// 9 — Taxi demand, Porto, stand 1 (half-hourly).
    TaxiDemand1,
    /// 10 — Taxi demand, Porto, stand 2 (half-hourly).
    TaxiDemand2,
    /// 11 — NH4 concentration in wastewater (10-minute).
    Nh4Concentration,
    /// 12 — Humidity RH3, appliances energy (10-minute).
    EnergyHumidity3,
    /// 13 — Humidity RH4, appliances energy (10-minute).
    EnergyHumidity4,
    /// 14 — Humidity RH5, appliances energy (10-minute).
    EnergyHumidity5,
    /// 15 — Outdoor temperature T_out, appliances energy (10-minute).
    EnergyTempOut,
    /// 16 — Wind speed, appliances energy (10-minute).
    EnergyWindSpeed,
    /// 17 — Dew point, appliances energy (10-minute).
    EnergyDewPoint,
    /// 18 — France CAC stock index (10-minute).
    StockCac,
    /// 19 — Germany DAX (Ibis) stock index (10-minute).
    StockDax,
    /// 20 — Switzerland SMI stock index (10-minute).
    StockSmi,
}

impl DatasetId {
    /// All 20 ids in Table I order.
    pub fn all() -> [DatasetId; 20] {
        use DatasetId::*;
        [
            WaterConsumption,
            BikeHumidity,
            BikeWindspeed,
            BikeRentals,
            RiverFlow,
            CloudCover,
            Precipitation,
            SolarRadiation,
            TaxiDemand1,
            TaxiDemand2,
            Nh4Concentration,
            EnergyHumidity3,
            EnergyHumidity4,
            EnergyHumidity5,
            EnergyTempOut,
            EnergyWindSpeed,
            EnergyDewPoint,
            StockCac,
            StockDax,
            StockSmi,
        ]
    }

    /// The 1-based numeric id used in Table I.
    pub fn number(self) -> usize {
        // eadrl-lint: allow(panic-reachable): all() enumerates every variant, so position() always finds self
        DatasetId::all().iter().position(|&d| d == self).unwrap() + 1
    }
}

/// Metadata row of the catalogue (one per Table I entry).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which series this is.
    pub id: DatasetId,
    /// Display name matching Table I.
    pub name: &'static str,
    /// Data source label from Table I.
    pub source: &'static str,
    /// Sampling cadence.
    pub frequency: Frequency,
    /// One-line description of the synthetic structure used.
    pub characteristics: &'static str,
}

/// Returns the full 20-entry catalogue in Table I order.
pub fn catalog() -> Vec<DatasetSpec> {
    use DatasetId::*;
    vec![
        DatasetSpec {
            id: WaterConsumption,
            name: "Water consumption",
            source: "Oporto city",
            frequency: Frequency::Daily,
            characteristics: "weekly seasonality, mild upward trend, level-shift drift",
        },
        DatasetSpec {
            id: BikeHumidity,
            name: "Humidity",
            source: "Bike sharing",
            frequency: Frequency::Hourly,
            characteristics: "daily cycle, strongly autocorrelated noise, bounded",
        },
        DatasetSpec {
            id: BikeWindspeed,
            name: "Windspeed",
            source: "Bike sharing",
            frequency: Frequency::Hourly,
            characteristics: "weak seasonality, gusty heteroskedastic noise, non-negative",
        },
        DatasetSpec {
            id: BikeRentals,
            name: "Total bike rentals",
            source: "Bike sharing",
            frequency: Frequency::Hourly,
            characteristics: "double daily peak, weekend break, demand bursts",
        },
        DatasetSpec {
            id: RiverFlow,
            name: "Vatnsdalsa",
            source: "River flow",
            frequency: Frequency::Daily,
            characteristics: "annual cycle, melt-season volatility regime, non-negative",
        },
        DatasetSpec {
            id: CloudCover,
            name: "Total cloud cover",
            source: "Weather data",
            frequency: Frequency::Hourly,
            characteristics: "persistent AR noise, regime switches, bounded",
        },
        DatasetSpec {
            id: Precipitation,
            name: "Precipitation",
            source: "Weather data",
            frequency: Frequency::Hourly,
            characteristics: "intermittent bursts, highly skewed, non-negative",
        },
        DatasetSpec {
            id: SolarRadiation,
            name: "Global horizontal radiation",
            source: "Solar radiation monitoring",
            frequency: Frequency::Hourly,
            characteristics: "strong daily cycle, cloud-induced dips, non-negative",
        },
        DatasetSpec {
            id: TaxiDemand1,
            name: "Taxi Demand 1",
            source: "Porto Taxi Data",
            frequency: Frequency::HalfHourly,
            characteristics: "daily + weekly cycle, demand drift mid-series",
        },
        DatasetSpec {
            id: TaxiDemand2,
            name: "Taxi Demand 2",
            source: "Porto Taxi Data",
            frequency: Frequency::HalfHourly,
            characteristics: "daily cycle, seasonal-amplitude break, bursts",
        },
        DatasetSpec {
            id: Nh4Concentration,
            name: "NH4 concentration",
            source: "NH4 in wastewater",
            frequency: Frequency::TenMinutes,
            characteristics: "slow diurnal cycle, plant-load level shifts",
        },
        DatasetSpec {
            id: EnergyHumidity3,
            name: "Humidity RH3",
            source: "Appliances Energy",
            frequency: Frequency::TenMinutes,
            characteristics: "daily cycle, strong persistence, bounded",
        },
        DatasetSpec {
            id: EnergyHumidity4,
            name: "Humidity RH4",
            source: "Appliances Energy",
            frequency: Frequency::TenMinutes,
            characteristics: "daily cycle, different phase, level drift",
        },
        DatasetSpec {
            id: EnergyHumidity5,
            name: "Humidity RH5",
            source: "Appliances Energy",
            frequency: Frequency::TenMinutes,
            characteristics: "noisier bathroom channel with bursts",
        },
        DatasetSpec {
            id: EnergyTempOut,
            name: "Temperature Tout",
            source: "Appliances Energy",
            frequency: Frequency::TenMinutes,
            characteristics: "daily cycle over seasonal warming trend",
        },
        DatasetSpec {
            id: EnergyWindSpeed,
            name: "Wind speed",
            source: "Appliances Energy",
            frequency: Frequency::TenMinutes,
            characteristics: "gusty, weak cycle, non-negative",
        },
        DatasetSpec {
            id: EnergyDewPoint,
            name: "Tdewpoint",
            source: "Appliances Energy",
            frequency: Frequency::TenMinutes,
            characteristics: "smooth persistent channel with trend",
        },
        DatasetSpec {
            id: StockCac,
            name: "France CAC",
            source: "European stock indices",
            frequency: Frequency::TenMinutes,
            characteristics: "random walk, volatility clustering, gentle drift",
        },
        DatasetSpec {
            id: StockDax,
            name: "Germany DAX (Ibis)",
            source: "European stock indices",
            frequency: Frequency::TenMinutes,
            characteristics: "random walk with jump (level shift)",
        },
        DatasetSpec {
            id: StockSmi,
            name: "Switzerland SMI",
            source: "European stock indices",
            frequency: Frequency::TenMinutes,
            characteristics: "random walk, calmer volatility, trend regime",
        },
    ]
}

/// Generates dataset `id` with `length` observations.
///
/// `seed` perturbs the noise realization while keeping the structural
/// recipe fixed; the per-dataset base seed is mixed in so different
/// datasets never share a noise stream.
pub fn generate(id: DatasetId, length: usize, seed: u64) -> TimeSeries {
    let spec_seed = (id.number() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
    let spec = catalog()
        .into_iter()
        .find(|s| s.id == id)
        .expect("catalog covers all ids"); // eadrl-lint: allow(panic-reachable): catalog() is built from DatasetId::all(), so every id has a spec
    let values = match id {
        DatasetId::WaterConsumption => SeriesBuilder::new(spec_seed, 300.0)
            .seasonal(7.0, 25.0, 0.0)
            .trend(0.03)
            .arma_noise(0.6, 0.2, 8.0)
            .level_shift(0.55, 30.0)
            .clamp_min(0.0)
            .build(length),
        DatasetId::BikeHumidity => SeriesBuilder::new(spec_seed, 60.0)
            .seasonal(24.0, 12.0, 6.0)
            .arma_noise(0.85, 0.0, 3.0)
            .clamp_min(0.0)
            .build(length),
        DatasetId::BikeWindspeed => SeriesBuilder::new(spec_seed, 12.0)
            .seasonal(24.0, 2.0, 0.0)
            .arma_noise(0.4, 0.3, 3.0)
            .volatility_regime(0.3, 0.45, 2.5)
            .clamp_min(0.0)
            .build(length),
        DatasetId::BikeRentals => SeriesBuilder::new(spec_seed, 150.0)
            .seasonal(24.0, 80.0, 8.0)
            .seasonal(12.0, 35.0, 3.0)
            .seasonal(168.0, 25.0, 0.0)
            .seasonal_break(0.6, 1.4)
            .arma_noise(0.5, 0.1, 18.0)
            .clamp_min(0.0)
            .build(length),
        DatasetId::RiverFlow => SeriesBuilder::new(spec_seed, 18.0)
            .seasonal(365.0, 8.0, 100.0)
            .arma_noise(0.7, 0.2, 2.0)
            .volatility_regime(0.35, 0.55, 3.0)
            .clamp_min(0.5)
            .build(length),
        DatasetId::CloudCover => SeriesBuilder::new(spec_seed, 50.0)
            .seasonal(24.0, 8.0, 0.0)
            .arma_noise(0.9, 0.0, 6.0)
            .level_shift(0.45, -12.0)
            .clamp_min(0.0)
            .build(length),
        DatasetId::Precipitation => SeriesBuilder::new(spec_seed, 0.4)
            .arma_noise(0.3, 0.5, 0.8)
            .volatility_regime(0.2, 0.3, 4.0)
            .volatility_regime(0.7, 0.8, 5.0)
            .clamp_min(0.0)
            .build(length),
        DatasetId::SolarRadiation => SeriesBuilder::new(spec_seed, 250.0)
            .seasonal(24.0, 230.0, 18.0)
            .arma_noise(0.6, 0.0, 35.0)
            .seasonal_break(0.5, 1.25)
            .clamp_min(0.0)
            .build(length),
        DatasetId::TaxiDemand1 => SeriesBuilder::new(spec_seed, 40.0)
            .seasonal(48.0, 18.0, 10.0)
            .seasonal(336.0, 8.0, 0.0)
            .arma_noise(0.5, 0.2, 5.0)
            .level_shift(0.5, 14.0)
            .clamp_min(0.0)
            .build(length),
        DatasetId::TaxiDemand2 => SeriesBuilder::new(spec_seed, 25.0)
            .seasonal(48.0, 12.0, 0.0)
            .seasonal_break(0.55, 1.8)
            .arma_noise(0.45, 0.3, 4.0)
            .volatility_regime(0.8, 0.95, 2.0)
            .clamp_min(0.0)
            .build(length),
        DatasetId::Nh4Concentration => SeriesBuilder::new(spec_seed, 28.0)
            .seasonal(144.0, 6.0, 20.0)
            .arma_noise(0.8, 0.1, 1.5)
            .level_shift(0.4, 6.0)
            .level_shift(0.75, -4.0)
            .clamp_min(0.0)
            .build(length),
        DatasetId::EnergyHumidity3 => SeriesBuilder::new(spec_seed, 42.0)
            .seasonal(144.0, 5.0, 0.0)
            .arma_noise(0.92, 0.0, 0.8)
            .clamp_min(0.0)
            .build(length),
        DatasetId::EnergyHumidity4 => SeriesBuilder::new(spec_seed, 40.0)
            .seasonal(144.0, 4.5, 48.0)
            .arma_noise(0.9, 0.0, 0.9)
            .level_shift(0.6, 3.5)
            .clamp_min(0.0)
            .build(length),
        DatasetId::EnergyHumidity5 => SeriesBuilder::new(spec_seed, 52.0)
            .seasonal(144.0, 6.0, 72.0)
            .arma_noise(0.7, 0.3, 2.5)
            .volatility_regime(0.25, 0.35, 3.0)
            .clamp_min(0.0)
            .build(length),
        DatasetId::EnergyTempOut => SeriesBuilder::new(spec_seed, 6.0)
            .seasonal(144.0, 4.0, 0.0)
            .trend(0.004)
            .arma_noise(0.88, 0.0, 0.6)
            .build(length),
        DatasetId::EnergyWindSpeed => SeriesBuilder::new(spec_seed, 3.5)
            .seasonal(144.0, 0.8, 30.0)
            .arma_noise(0.5, 0.4, 1.2)
            .volatility_regime(0.5, 0.65, 2.2)
            .clamp_min(0.0)
            .build(length),
        DatasetId::EnergyDewPoint => SeriesBuilder::new(spec_seed, 2.0)
            .seasonal(144.0, 2.0, 100.0)
            .trend(0.003)
            .arma_noise(0.93, 0.0, 0.35)
            .build(length),
        DatasetId::StockCac => SeriesBuilder::new(spec_seed, 4400.0)
            .random_walk(6.0)
            .volatility_regime(0.6, 0.75, 3.0)
            .trend(0.05)
            .clamp_min(1.0)
            .build(length),
        DatasetId::StockDax => SeriesBuilder::new(spec_seed, 9800.0)
            .random_walk(10.0)
            .level_shift(0.5, -180.0)
            .clamp_min(1.0)
            .build(length),
        DatasetId::StockSmi => SeriesBuilder::new(spec_seed, 7900.0)
            .random_walk(5.0)
            .trend(0.12)
            .volatility_regime(0.3, 0.4, 2.0)
            .clamp_min(1.0)
            .build(length),
    };
    TimeSeries::new(spec.name, spec.frequency, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_twenty_entries_in_order() {
        let cat = catalog();
        assert_eq!(cat.len(), 20);
        for (i, spec) in cat.iter().enumerate() {
            assert_eq!(spec.id.number(), i + 1);
        }
        assert_eq!(cat[0].name, "Water consumption");
        assert_eq!(cat[19].name, "Switzerland SMI");
    }

    #[test]
    fn generate_covers_every_id_deterministically() {
        for id in DatasetId::all() {
            let a = generate(id, 200, 42);
            let b = generate(id, 200, 42);
            assert_eq!(a.values(), b.values(), "{id:?} not deterministic");
            assert_eq!(a.len(), 200);
            assert!(
                a.values().iter().all(|v| v.is_finite()),
                "{id:?} non-finite"
            );
        }
    }

    #[test]
    fn different_datasets_have_different_realizations() {
        let a = generate(DatasetId::TaxiDemand1, 100, 7);
        let b = generate(DatasetId::TaxiDemand2, 100, 7);
        assert_ne!(a.values(), b.values());
    }

    #[test]
    fn seed_changes_noise_not_structure() {
        let a = generate(DatasetId::SolarRadiation, 300, 1);
        let b = generate(DatasetId::SolarRadiation, 300, 2);
        assert_ne!(a.values(), b.values());
        // Same structural backbone: means within a factor of noise.
        assert!((a.mean() - b.mean()).abs() < 0.5 * a.mean().abs().max(1.0));
    }

    #[test]
    fn non_negative_series_respect_clamp() {
        for id in [
            DatasetId::WaterConsumption,
            DatasetId::Precipitation,
            DatasetId::TaxiDemand1,
            DatasetId::SolarRadiation,
        ] {
            let s = generate(id, 500, 3);
            assert!(s.min().unwrap() >= 0.0, "{id:?} went negative");
        }
    }

    #[test]
    fn stock_series_look_like_random_walks() {
        // Lag-1 autocorrelation of a random walk is close to 1.
        let s = generate(DatasetId::StockDax, 800, 5);
        let a = eadrl_timeseries::stats::acf(s.values(), 1);
        assert!(a[1] > 0.95, "lag-1 acf = {}", a[1]);
    }

    #[test]
    fn seasonal_series_show_their_period() {
        let s = generate(DatasetId::BikeRentals, 600, 9);
        let a = eadrl_timeseries::stats::acf(s.values(), 30);
        // ACF at the daily period (24) should beat the mid-cycle lag (12).
        assert!(a[24] > a[12], "acf24 = {}, acf12 = {}", a[24], a[12]);
    }

    #[test]
    fn seasonal_generators_carry_measurable_seasonality() {
        use eadrl_timeseries::decompose::decompose_additive;
        // Strongly seasonal series should decompose with high seasonal
        // strength at their natural period; the random-walk stocks should
        // not.
        for (id, period, min_strength) in [
            (DatasetId::BikeRentals, 24, 0.5),
            (DatasetId::SolarRadiation, 24, 0.5),
            (DatasetId::TaxiDemand1, 48, 0.4),
        ] {
            let s = generate(id, 600, 11);
            let d = decompose_additive(s.values(), period).expect("long enough");
            assert!(
                d.seasonal_strength() > min_strength,
                "{id:?} seasonal strength {:.3} < {min_strength}",
                d.seasonal_strength()
            );
        }
        let stock = generate(DatasetId::StockCac, 600, 11);
        let d = decompose_additive(stock.values(), 144).unwrap();
        assert!(
            d.seasonal_strength() < 0.4,
            "stock series should not be strongly seasonal: {:.3}",
            d.seasonal_strength()
        );
    }

    #[test]
    fn table_one_frequencies_match_paper() {
        let cat = catalog();
        assert_eq!(cat[0].frequency, Frequency::Daily); // water
        assert_eq!(cat[3].frequency, Frequency::Hourly); // bike rentals
        assert_eq!(cat[8].frequency, Frequency::HalfHourly); // taxi 1
        assert_eq!(cat[17].frequency, Frequency::TenMinutes); // CAC
    }
}
