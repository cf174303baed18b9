//! Figures 7, 8 and 9: per-node communication overhead of source/destination
//! query streams — All-Pairs vs Pair-NoShare vs Pair-Share (Fig. 7), sharing
//! with restricted destination pools (Fig. 8), and the mixed-metric
//! workload (Fig. 9).

use dr_bench::experiments::pair_streams;
use dr_bench::Series;

fn main() {
    let (fig07, fig08, fig09) = pair_streams();
    println!("# Figure 7: per-node overhead (KB) vs number of source/destination queries");
    Series::print_table("queries", &fig07);
    println!("# Figure 8: per-node overhead (KB) with restricted destination pools");
    Series::print_table("queries", &fig08);
    println!("# Figure 9: per-node overhead (KB), mixed query workload");
    Series::print_table("queries", &fig09);
}
