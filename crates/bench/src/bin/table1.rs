//! Table 1: in-network applications and their demanded reaction times.

use taurus_bench::print_table;
use taurus_core::apps::{registry, ReactionTime};

fn main() {
    let mark = |r: &[ReactionTime], t: ReactionTime| {
        if r.contains(&t) {
            "X".to_string()
        } else {
            String::new()
        }
    };
    let rows: Vec<Vec<String>> = registry()
        .iter()
        .map(|a| {
            vec![
                if a.security { "Security" } else { "Performance" }.to_string(),
                a.name.to_string(),
                mark(a.reaction, ReactionTime::PerPacket),
                mark(a.reaction, ReactionTime::PerFlowlet),
                mark(a.reaction, ReactionTime::PerFlow),
                mark(a.reaction, ReactionTime::PerMicroburst),
            ]
        })
        .collect();
    print_table(
        "Table 1: in-network applications demand fast reaction times",
        &["Category", "Application", "Pkt", "Flowlet", "Flow", "µburst"],
        &rows,
    );
}
