//! Density notions (paper §II-A): edge, `h`-clique, and pattern density.

use ugraph::Pattern;

/// Which density `ρ` the densest-subgraph machinery maximizes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DensityNotion {
    /// Edge density `ρ_e = |E| / |V|` (paper Def. 1).
    Edge,
    /// `h`-clique density `ρ_h = µ_h / |V|`, `h ≥ 2` (paper Def. 2).
    /// `Clique(2)` is equivalent to `Edge`.
    Clique(usize),
    /// Pattern density `ρ_ψ = µ_ψ / |V|` (paper Def. 3).
    Pattern(Pattern),
}

impl DensityNotion {
    /// Number of nodes of the underlying pattern (`2` for edges, `h` for
    /// cliques, `|V_ψ|` for patterns).
    pub fn arity(&self) -> usize {
        match self {
            DensityNotion::Edge => 2,
            DensityNotion::Clique(h) => *h,
            DensityNotion::Pattern(p) => p.num_nodes(),
        }
    }

    /// Human-readable name used by the experiment harness.
    pub fn label(&self) -> String {
        match self {
            DensityNotion::Edge => "edge".to_string(),
            DensityNotion::Clique(h) => format!("{h}-clique"),
            DensityNotion::Pattern(p) => p.name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_labels() {
        assert_eq!(DensityNotion::Edge.arity(), 2);
        assert_eq!(DensityNotion::Clique(4).arity(), 4);
        assert_eq!(DensityNotion::Pattern(Pattern::diamond()).arity(), 4);
        assert_eq!(DensityNotion::Edge.label(), "edge");
        assert_eq!(DensityNotion::Clique(3).label(), "3-clique");
        assert_eq!(
            DensityNotion::Pattern(Pattern::c3_star()).label(),
            "c3-star"
        );
    }
}
