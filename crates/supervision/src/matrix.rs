//! The label matrix: items x sources observations with abstains.

/// A dense matrix of weak labels. `labels[i][j]` is source `j`'s vote on
/// item `i`: `Some(class)` or `None` (abstain). Items may have different
/// cardinalities (select tasks choose among per-item candidate sets), so
/// each item carries its own `k`.
#[derive(Debug, Clone)]
pub struct LabelMatrix {
    n_sources: usize,
    labels: Vec<Option<u32>>,
    cardinalities: Vec<u32>,
}

impl LabelMatrix {
    /// Creates an empty matrix with `n_sources` columns.
    pub fn new(n_sources: usize) -> Self {
        Self { n_sources, labels: Vec::new(), cardinalities: Vec::new() }
    }

    /// Creates a matrix where every item shares cardinality `k`.
    ///
    /// # Panics
    /// Panics if `rows` is ragged or a label is out of `0..k`.
    pub fn from_rows(k: u32, rows: &[Vec<Option<u32>>]) -> Self {
        let n_sources = rows.first().map_or(0, Vec::len);
        let mut m = Self::new(n_sources);
        for row in rows {
            m.push_item(k, row);
        }
        m
    }

    /// Appends one item with its own cardinality.
    ///
    /// # Panics
    /// Panics if `votes.len() != n_sources`, `k == 0`, or a vote is `>= k`.
    pub fn push_item(&mut self, k: u32, votes: &[Option<u32>]) {
        assert_eq!(votes.len(), self.n_sources, "vote row width mismatch");
        assert!(k > 0, "item cardinality must be positive");
        for v in votes.iter().flatten() {
            assert!(*v < k, "label {v} out of cardinality {k}");
        }
        self.labels.extend_from_slice(votes);
        self.cardinalities.push(k);
    }

    /// Appends all items of `other`, preserving their order (merging
    /// per-shard partial matrices back into one global matrix).
    ///
    /// # Panics
    /// Panics if the source counts differ.
    pub fn append(&mut self, other: &LabelMatrix) {
        assert_eq!(self.n_sources, other.n_sources, "source count mismatch");
        self.labels.extend_from_slice(&other.labels);
        self.cardinalities.extend_from_slice(&other.cardinalities);
    }

    /// Number of items (rows).
    pub fn n_items(&self) -> usize {
        self.cardinalities.len()
    }

    /// Number of sources (columns).
    pub fn n_sources(&self) -> usize {
        self.n_sources
    }

    /// True when the matrix has no items.
    pub fn is_empty(&self) -> bool {
        self.cardinalities.is_empty()
    }

    /// The cardinality of item `i`.
    pub fn cardinality(&self, i: usize) -> u32 {
        self.cardinalities[i]
    }

    /// True if every item has the same cardinality.
    pub(crate) fn uniform_cardinality(&self) -> Option<u32> {
        let first = *self.cardinalities.first()?;
        self.cardinalities.iter().all(|&k| k == first).then_some(first)
    }

    /// Source `j`'s vote on item `i`.
    pub fn vote(&self, i: usize, j: usize) -> Option<u32> {
        self.labels[i * self.n_sources + j]
    }

    /// All votes on item `i`.
    pub fn votes(&self, i: usize) -> &[Option<u32>] {
        &self.labels[i * self.n_sources..(i + 1) * self.n_sources]
    }

    /// Fraction of non-abstain votes for source `j`.
    pub fn coverage(&self, j: usize) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let n = (0..self.n_items()).filter(|&i| self.vote(i, j).is_some()).count();
        n as f32 / self.n_items() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let m = LabelMatrix::from_rows(
            3,
            &[vec![Some(0), None, Some(2)], vec![Some(1), Some(1), None]],
        );
        assert_eq!(m.n_items(), 2);
        assert_eq!(m.n_sources(), 3);
        assert_eq!(m.vote(0, 0), Some(0));
        assert_eq!(m.vote(0, 1), None);
        assert_eq!(m.votes(1), &[Some(1), Some(1), None]);
        assert_eq!(m.uniform_cardinality(), Some(3));
    }

    #[test]
    fn varying_cardinality() {
        let mut m = LabelMatrix::new(2);
        m.push_item(2, &[Some(0), Some(1)]);
        m.push_item(5, &[Some(4), None]);
        assert_eq!(m.cardinality(0), 2);
        assert_eq!(m.cardinality(1), 5);
        assert_eq!(m.uniform_cardinality(), None);
    }

    #[test]
    #[should_panic(expected = "out of cardinality")]
    fn out_of_range_label_rejected() {
        let mut m = LabelMatrix::new(1);
        m.push_item(2, &[Some(2)]);
    }

    #[test]
    fn append_concatenates_items() {
        let mut a = LabelMatrix::from_rows(3, &[vec![Some(0), None, Some(2)]]);
        let mut b = LabelMatrix::new(3);
        b.push_item(5, &[Some(4), Some(1), None]);
        a.append(&b);
        assert_eq!(a.n_items(), 2);
        assert_eq!(a.votes(1), &[Some(4), Some(1), None]);
        assert_eq!(a.cardinality(0), 3);
        assert_eq!(a.cardinality(1), 5);
    }

    #[test]
    fn coverage_and_labeled_fraction() {
        let m = LabelMatrix::from_rows(
            2,
            &[vec![Some(0), None], vec![None, None], vec![Some(1), Some(0)], vec![Some(0), None]],
        );
        assert!((m.coverage(0) - 0.75).abs() < 1e-6);
        assert!((m.coverage(1) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn empty_matrix_edges() {
        let m = LabelMatrix::new(3);
        assert!(m.is_empty());
        assert_eq!(m.coverage(0), 0.0);
    }
}
