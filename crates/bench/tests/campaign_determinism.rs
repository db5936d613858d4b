//! The fault campaign is reproducible bit-for-bit from its seed: the same
//! config produces identical trials and classifications whether the trials
//! run serially or fanned out over host threads — and the smoke
//! configuration recovers every trial (zero SDC, zero unrecovered).

use tsp_bench::campaign::{run_campaign, CampaignConfig, TrialClass, SITES};

#[test]
fn campaign_is_bit_identical_serial_vs_parallel_and_never_sdcs() {
    let serial = run_campaign(&CampaignConfig {
        parallel: false,
        ..CampaignConfig::smoke()
    });
    let parallel = run_campaign(&CampaignConfig::smoke());

    assert_eq!(serial, parallel, "fan-out must not change any trial");

    for site in SITES {
        assert!(
            serial.trials.iter().any(|t| t.site == site),
            "site {site} must be swept"
        );
    }
    assert!(
        serial.trials.iter().any(|t| t.egress_words > 0),
        "link trials must record egress traffic"
    );
    assert_eq!(serial.sdc_count(), 0, "silent corruption: {serial:?}");
    assert!(
        serial
            .trials
            .iter()
            .all(|t| t.class != TrialClass::DetectedUnrecovered),
        "the smoke config must recover every detected fault"
    );
}
