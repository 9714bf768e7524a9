//! Shared experiment harness for the per-table / per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's §VI
//! (README.md, "Workspace map", lists the crates) and prints a markdown table with
//! the measured values next to the paper's reported ones where applicable.

pub mod legacy;
pub mod setup;

use std::time::{Duration, Instant};
use ugraph::datasets::{self, Dataset};

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A markdown table accumulated row by row.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts an empty table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Prints the table as github-flavored markdown.
    pub fn print(&self) {
        println!("\n## {}\n", self.title);
        println!("| {} |", self.headers.join(" | "));
        println!(
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            println!("| {} |", row.join(" | "));
        }
    }
}

/// Formats a float compactly.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 0.01 {
        format!("{x:.3}")
    } else {
        format!("{x:.2e}")
    }
}

/// Formats a duration in seconds.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a node set compactly (first few ids).
pub fn fmt_set(set: &[u32]) -> String {
    if set.len() <= 8 {
        format!("{set:?}")
    } else {
        format!("{:?}.. ({} nodes)", &set[..8], set.len())
    }
}

/// Whether quick mode is requested (smaller θ / fewer worlds), via
/// `MPDS_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("MPDS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The paper's three "smaller" datasets (MPDS experiments): Karate Club,
/// IntelLab-like, LastFM-like.
pub fn small_datasets() -> Vec<Dataset> {
    vec![
        datasets::karate_club(),
        datasets::intel_lab_like(42),
        datasets::lastfm_like(42),
    ]
}

/// The paper's three "larger" datasets (NDS experiments), scaled:
/// HomoSapiens-like, Biomine-like, Twitter-like.
pub fn large_datasets() -> Vec<Dataset> {
    vec![
        datasets::homo_sapiens_like(42),
        datasets::biomine_like(42),
        datasets::twitter_like(42),
    ]
}

/// Default θ per dataset size (paper: converged θ = 160 for Intel Lab, 640
/// for Biomine; Fig. 19).
pub fn default_theta(dataset_name: &str) -> usize {
    let theta = match dataset_name {
        "KarateClub" => 320,
        "IntelLab-like" => 160,
        "LastFM-like" => 160,
        "HomoSapiens-like" => 320,
        "Biomine-like" => 640,
        "Twitter-like" => 320,
        "Friendster-like" => 64,
        _ => 160,
    };
    if quick_mode() {
        (theta / 4).max(16)
    } else {
        theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.print(); // smoke test: must not panic
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.5), "0.500");
        assert!(fmt(1e-6).contains('e'));
        assert_eq!(fmt_set(&[1, 2]), "[1, 2]");
        assert!(fmt_set(&(0..20).collect::<Vec<_>>()).contains("20 nodes"));
    }

    #[test]
    fn timing() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
