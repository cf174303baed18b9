//! Figures 14 and 15 and Table 4: AvgPathRTT under churn (alternating
//! fail/join events) for several failure fractions on the Dense-UUNET
//! overlay, and the recovery-time breakdown and per-node bandwidth of every
//! churn run.

use dr_bench::experiments::tab04_recovery;
use dr_bench::Series;
use dr_workloads::OverlayKind;

fn main() {
    let rows = tab04_recovery();
    println!("# Figures 14-15: AvgPathRTT (ms) under churn");
    let series: Vec<Series> = rows
        .iter()
        .filter(|o| o.topology == OverlayKind::DenseUunet.name())
        .map(|o| o.avg_path_rtt.clone())
        .collect();
    Series::print_table("time_s", &series);

    println!("# Table 4: path recovery under churn");
    println!("topology,fail_fraction,avg_recovery_s,median_recovery_s,pct_over_10s,churn_Bps");
    for row in &rows {
        println!(
            "{},{:.0}%,{:.1},{:.1},{:.0},{:.0}",
            row.topology,
            row.fraction * 100.0,
            row.avg_recovery_s,
            row.median_recovery_s,
            row.slow_recovery_fraction * 100.0,
            row.churn_bps
        );
    }
}
