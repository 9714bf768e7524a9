//! Distinguishing autistic from typically-developed brains with 3-clique
//! MPDSs on uncertain brain networks (paper §VI-F, Figs. 8–15).
//!
//! The cohorts are simulated with the structural properties the paper's
//! ABIDE-derived case study measures (see `ugraph::brain`): the ASD group graph
//! has a strong, symmetric occipital core; the TD graph's strong connectivity
//! also reaches the temporal lobe and cerebellum.
//!
//! Run with: `cargo run --release --example brain_networks`

use mpds::case_studies::brain_case_study;
use ugraph::brain::Cohort;

fn main() {
    for cohort in [Cohort::TypicallyDeveloped, Cohort::Asd] {
        let label = match cohort {
            Cohort::TypicallyDeveloped => "Typically developed (TD)",
            Cohort::Asd => "Autism spectrum disorder (ASD)",
        };
        let study = brain_case_study(cohort, 160, 5);
        println!("=== {label} cohort ===");
        for s in &study.subgraphs {
            println!(
                "{:<6} | {:>3} ROIs | lobes {:?} | unpaired {} | symmetry {:.2}",
                s.method,
                s.node_set.len(),
                s.lobes,
                s.unpaired,
                s.symmetry
            );
            println!("       | {}", s.roi_names.join(" "));
        }
        println!();
    }
    println!("Consistent with the paper: the ASD MPDS is confined to the occipital");
    println!("lobe and is more hemispherically symmetric than the TD MPDS, while the");
    println!("EDS / core / truss baselines span many regions in both cohorts and");
    println!("cannot tell the groups apart.");
}
