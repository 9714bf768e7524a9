//! A directed graph in compressed sparse row form.

/// Directed adjacency over nodes `0..num_nodes()`, read one row at a time
/// with [`Csr::row`]. It is two flat arrays, the successor ids row after
/// row and the row offsets, instead of one `Vec` per node: building one
/// allocates nothing per node, and refilling one for another graph no
/// larger than the last allocates nothing at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    /// Row offsets into `targets`: `num_nodes() + 1` non-decreasing entries
    /// from 0 to `targets.len()` (none when there are no nodes).
    pub(crate) offsets: Vec<u32>,
    /// Successor ids, row after row.
    pub(crate) targets: Vec<u32>,
}

impl Csr {
    /// Builds the CSR form of adjacency lists, keeping each row's order.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[Vec<u32>]) -> Self {
        let mut csr = Csr {
            offsets: Vec::with_capacity(rows.len() + 1),
            targets: rows.concat(),
        };
        csr.offsets.push(0);
        for row in rows {
            let end = csr.offsets[csr.offsets.len() - 1] + row.len() as u32;
            csr.offsets.push(end);
        }
        csr
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Successors of `v`.
    #[inline]
    pub fn row(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let rows = vec![vec![2, 1], vec![], vec![0]];
        let csr = Csr::from_rows(&rows);
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.offsets, vec![0, 2, 2, 3]);
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(csr.row(v), &row[..]);
        }
        assert_eq!(Csr::default().num_nodes(), 0);
    }
}
