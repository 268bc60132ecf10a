//! Time-based windows (§3.1 / §4.1 extensions) under Poisson traffic.
//!
//! Clicks arrive as a Poisson process (~50 clicks/second); the policy is
//! "identical clicks within the last 60 seconds are duplicates". The
//! example runs the time-based TBF (sliding) and GBF (jumping, 6 x 10 s
//! sub-windows) side by side, including a quiet gap that exercises the
//! lazy cleaning-daemon replay.
//!
//! ```text
//! cargo run --release --example timebased_windows
//! ```

use click_fraud_detection::core::gbf_time::TimeGbfConfig;
use click_fraud_detection::core::tbf_time::TimeTbfConfig;
use click_fraud_detection::prelude::*;
use click_fraud_detection::stream::PoissonArrivals;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ticks are milliseconds. 60 units of 1 s = one-minute window.
    let mut tbf = TimeTbf::new(TimeTbfConfig::new(60, 1_000, 1 << 18, 8, 1)?)?;
    // Jumping flavour: 6 sub-windows of 10 units of 1 s.
    let mut gbf = TimeGbf::new(TimeGbfConfig::new(6, 10, 1_000, 1 << 16, 8, 1)?)?;

    println!("TBF window: {}", DuplicateDetector::window(&tbf));
    println!("GBF window: {}\n", DuplicateDetector::window(&gbf));

    // 0.05 clicks per ms = 50/s; ids repeat with 15% probability within
    // the last 3000 clicks (~1 minute of traffic).
    let ids = DuplicateInjector::new(UniqueClickStream::new(3, 8, 64), 0.15, 3_000, 9);
    let arrivals = PoissonArrivals::new(0.05, 4);

    let mut tbf_dups = 0u64;
    let mut gbf_dups = 0u64;
    let mut total = 0u64;
    let mut last_tick = 0;
    for (click, mut tick) in ids.take(300_000).zip(arrivals) {
        // Inject a 5-minute outage at the halfway point: every window
        // must forget everything across it.
        if total == 150_000 {
            tick += 300_000;
        }
        last_tick = tick.max(last_tick);
        let key = click.key();
        if tbf.observe_at(&key, last_tick).is_duplicate() {
            tbf_dups += 1;
        }
        if gbf.observe_at(&key, last_tick).is_duplicate() {
            gbf_dups += 1;
        }
        total += 1;
    }

    println!(
        "processed {total} clicks over {:.1} minutes of stream time",
        last_tick as f64 / 60_000.0
    );
    println!(
        "time-TBF flagged {tbf_dups} duplicates ({:.2}%)",
        100.0 * tbf_dups as f64 / total as f64
    );
    println!(
        "time-GBF flagged {gbf_dups} duplicates ({:.2}%)",
        100.0 * gbf_dups as f64 / total as f64
    );
    println!(
        "\n(time-GBF sees slightly fewer: its jumping window covers only the\n\
         current partial sub-window plus the 5 previous full ones)"
    );
    Ok(())
}
