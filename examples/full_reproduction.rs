//! Run every experiment (all 20: Table 1 and Figs. 1-19) and print the
//! full set of artifacts — the programmatic equivalent of regenerating the
//! paper's evaluation section. Also writes `EXPERIMENTS_RUN.md` in the
//! working directory with the rendered artifacts.
//!
//! ```sh
//! cargo run --release --example full_reproduction
//! ```

use cloudy::core::experiments;
use cloudy::core::{Study, StudyConfig};
use std::fmt::Write as _;

fn main() {
    let mut cfg = StudyConfig::tiny(42);
    cfg.sc_fraction = 0.02;
    cfg.atlas_fraction = 0.25;
    cfg.duration_days = 12;
    println!("running the full study (seed {}, {} days)...\n", cfg.seed, cfg.duration_days);
    let study = Study::run(cfg);

    let results = experiments::run_all(&study);
    let mut doc = String::from("# cloudy — full reproduction run\n\n");
    for (id, artifact) in &results {
        println!("==== {} ====\n{artifact}\n", id.label());
        let _ = write!(doc, "## {}\n\n```text\n{artifact}\n```\n\n", id.label());
    }
    if let Err(e) = std::fs::write("EXPERIMENTS_RUN.md", &doc) {
        eprintln!("could not write EXPERIMENTS_RUN.md: {e}");
    } else {
        println!("wrote EXPERIMENTS_RUN.md with {} artifacts", results.len());
    }
}
