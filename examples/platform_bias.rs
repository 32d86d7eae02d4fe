//! §4.2: the measurement platform shapes the conclusions.
//!
//! Prints the Fig. 1b/2 probe distributions, the Fig. 5 platform-difference
//! series, and the Fig. 16 matched `<city, ASN>` comparison — then runs the
//! bias ablation from DESIGN.md §5.3 (`cloudy-repro experiment
//! ablation_bias`): rebuild the "Atlas" population with Speedchecker's
//! *placement* but wired access, isolating deployment bias from last-mile
//! technology.
//!
//! ```sh
//! cargo run --release --example platform_bias
//! ```

use cloudy::analysis::Cdf;
use cloudy::core::experiments::{ablation, deployment, platform_diff, Render};
use cloudy::core::{Study, StudyConfig};
use cloudy::geo::Continent;

fn main() {
    let mut cfg = StudyConfig::tiny(42);
    cfg.sc_fraction = 0.02;
    cfg.atlas_fraction = 0.25;
    cfg.duration_days = 10;
    println!("running both platform campaigns...\n");
    let study = Study::run(cfg);

    println!("{}", deployment::fig1(&study).render());
    println!("{}", deployment::fig2(&study).render());
    println!("{}", platform_diff::run(&study).render());
    let matched = platform_diff::run_matched(&study);
    println!("{}", matched.render());
    let bias = ablation::bias(&study);
    println!("{}", bias.render());

    // Decompose the gap: re-scattering Atlas like Speedchecker removes the
    // placement bias, and so do Fig. 16's matched groups; what both leave
    // is the wired-vs-wireless last mile.
    if let (Some((real, rescattered)), Some(m)) =
        (bias.get(Continent::Europe), matched.get(Continent::Europe))
    {
        println!(
            "Europe decomposition: total SC-Atlas median gap {:.1} ms; against Atlas\n\
             re-scattered like Speedchecker {:.1} ms, within matched <city,ASN> groups\n\
             {:.1} ms (deployment bias removed both ways) — the remainder is the\n\
             wired-vs-wireless last mile, the paper's §4.2 conclusion.",
            real.median_gap(),
            rescattered.median_gap(),
            Cdf::new(m.clone()).median(),
        );
    }
}
