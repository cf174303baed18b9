//! Figures 12 and 13 and Table 3: the computed AvgPathRTT tracking
//! AvgLinkRTT under periodic RTT refreshes, without (Fig. 12) and with
//! (Fig. 13) Jacobson/Karels smoothing, and the path stability of every
//! run (Table 3).

use dr_bench::experiments::tab03_stability;
use dr_bench::Series;
use dr_workloads::OverlayKind;

fn main() {
    let rows = tab03_stability();
    for (figure, smoothed) in
        [("Figure 12 (raw RTT updates)", false), ("Figure 13 (smoothed)", true)]
    {
        println!("# {figure}");
        let outcome = rows
            .iter()
            .find(|r| r.topology == OverlayKind::DenseRandom.name() && r.smoothed == smoothed)
            .expect("Table 3 runs Dense-Random raw and smoothed");
        Series::print_table(
            "time_s",
            &[outcome.avg_path_rtt.clone(), outcome.avg_link_rtt.clone()],
        );
        println!();
    }

    println!("# Table 3: computed path stability with and without RTT smoothing");
    println!("topology,smoothed,stable_pct,avg_changes,steady_state_Bps");
    for row in &rows {
        println!(
            "{},{},{:.0},{:.1},{:.0}",
            row.topology,
            if row.smoothed { "smooth" } else { "raw" },
            row.stable_fraction * 100.0,
            row.avg_changes,
            row.steady_state_bps
        );
    }
}
