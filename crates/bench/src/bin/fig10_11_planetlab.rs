//! Figures 10 and 11: AvgPathRTT and per-node bandwidth over time while the
//! all-pairs shortest-RTT query executes on the emulated PlanetLab
//! Sparse-Random and Dense-Random overlays.

use dr_bench::experiments::fig10_11_planetlab;
use dr_bench::Series;

fn main() {
    let (rtt, bw) = fig10_11_planetlab();
    println!("# Figure 10: AvgPathRTT (ms) during query execution");
    Series::print_table("time_s", &rtt);
    println!("# Figure 11: per-node bandwidth (KBps) during query execution");
    Series::print_table("time_s", &bw);
}
