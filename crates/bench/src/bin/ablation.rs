//! Construct ablation (§6 suggestion): the same computation written as a
//! flat XDOALL versus strip-mined into the hierarchical SDOALL/CDOALL
//! nest, across configurations. The hierarchical construct exploits the
//! clustering hardware during work distribution; the flat one pays at
//! the global iteration lock.
use cedar_apps::synthetic;
use cedar_core::{SimConfig, SuiteResult};
use cedar_hw::Configuration;
use cedar_trace::UserBucket;

fn main() {
    let opts = cedar_bench::run_options();
    println!("Construct ablation: 20 steps x 2 loops of 128 iterations (c=1200, 8 words)");
    println!(
        "{:>8} | {:>14} | {:>14} | {:>10} | {:>12}",
        "config", "xdoall CT (s)", "sdoall CT (s)", "xdoall adv", "pickup x/s %"
    );
    println!("{}", "-".repeat(72));
    let flat = synthetic::uniform_xdoall(20, 2, 128, 1200, 8);
    let hier = synthetic::uniform_sdoall(20, 2, 16, 8, 1200, 8);
    let suite = SuiteResult::measure(
        &[flat, hier],
        &Configuration::ALL.map(SimConfig::cedar),
        opts,
    );
    let (flat, hier) = (&suite.apps[0].runs, &suite.apps[1].runs);
    for ((c, rf), rh) in Configuration::ALL.into_iter().zip(flat).zip(hier) {
        let pick_x = rf
            .main_breakdown()
            .get(UserBucket::PickupXdoall)
            .fraction_of(rf.completion_time)
            * 100.0;
        let pick_s = rh
            .main_breakdown()
            .get(UserBucket::PickupSdoall)
            .fraction_of(rh.completion_time)
            * 100.0;
        println!(
            "{:>8} | {:>14.4} | {:>14.4} | {:>10.3} | {:>5.1} / {:>4.1}",
            c.label(),
            rf.ct_seconds(),
            rh.ct_seconds(),
            rf.completion_time.0 as f64 / rh.completion_time.0 as f64,
            pick_x,
            pick_s,
        );
    }
    println!();
    println!("ratio > 1 means the flat construct is slower; the gap opens with");
    println!("the processor count as the iteration lock becomes a hot spot (S6).");
    if let Some(c) = &suite.telemetry.cache {
        println!("{}", cedar_report::tables::cache_line(c));
    }
}
