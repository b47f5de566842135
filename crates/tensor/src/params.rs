//! Learnable parameter storage: every weight matrix of a model, with the
//! gradient accumulated for it since the last optimizer step.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) u32);

#[derive(Serialize, Deserialize)]
struct ParamEntry {
    name: String,
    value: Matrix,
    #[serde(skip, default)]
    grad: Option<Matrix>,
    /// Frozen parameters keep their values during optimization (used to pin
    /// pretrained embeddings or SLA-critical weights).
    frozen: bool,
}

/// Owns every learnable matrix of a model plus its accumulated gradients.
///
/// Layers reference parameters by [`ParamId`]; a backward pass adds its
/// gradients here (see [`ParamStore::grad_mut`]), and
/// [`Adam`](crate::optim::Adam) consumes them. Like serialization, a
/// clone carries values and frozen flags but no gradients.
#[derive(Default, Serialize, Deserialize)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

impl Clone for ParamStore {
    fn clone(&self) -> Self {
        let entries = self.entries.iter().map(|e| ParamEntry {
            name: e.name.clone(),
            value: e.value.clone(),
            grad: None,
            frozen: e.frozen,
        });
        Self { entries: entries.collect() }
    }
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let id = ParamId(self.entries.len() as u32);
        self.entries.push(ParamEntry { name: name.into(), value, grad: None, frozen: false });
        id
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store has no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Handles of all parameters, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len() as u32).map(ParamId)
    }

    /// The parameter's registered name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0 as usize].name
    }

    /// Immutable view of a parameter's value.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0 as usize].value
    }

    /// Mutable view of a parameter's value.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0 as usize].value
    }

    /// Immutable view of the accumulated gradient (zeros if untouched).
    pub fn grad(&self, id: ParamId) -> Matrix {
        let e = &self.entries[id.0 as usize];
        e.grad.clone().unwrap_or_else(|| Matrix::zeros(e.value.rows(), e.value.cols()))
    }

    /// Mutable view of the accumulated gradient, allocating zeros on first
    /// touch.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        let e = &mut self.entries[id.0 as usize];
        e.grad.get_or_insert_with(|| Matrix::zeros(e.value.rows(), e.value.cols()))
    }

    /// Split borrow of one parameter: the mutable value together with its
    /// accumulated gradient (if any touched it). Lets optimizers run
    /// single-pass fused updates without cloning the gradient.
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut Matrix, Option<&Matrix>) {
        let e = &mut self.entries[id.0 as usize];
        (&mut e.value, e.grad.as_ref())
    }

    /// Marks a parameter as frozen; optimizers will skip it.
    pub fn freeze(&mut self, id: ParamId) {
        self.entries[id.0 as usize].frozen = true;
    }

    /// Whether a parameter is frozen.
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.entries[id.0 as usize].frozen
    }

    /// Zeroes all accumulated gradients in place, keeping their buffers
    /// for the next step's accumulation.
    pub fn zero_grads(&mut self) {
        for grad in self.entries.iter_mut().filter_map(|e| e.grad.as_mut()) {
            grad.as_mut_slice().fill(0.0);
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.entries
            .iter()
            .filter_map(|e| e.grad.as_ref())
            .map(|g| g.as_slice().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for e in &mut self.entries {
                if let Some(g) = &mut e.grad {
                    g.scale_inplace(scale);
                }
            }
        }
        norm
    }

    /// Copies parameter values from another store with identical structure.
    ///
    /// # Panics
    /// Panics if the stores have different parameter counts or shapes.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(self.len(), other.len(), "param store size mismatch");
        for (mine, theirs) in self.entries.iter_mut().zip(&other.entries) {
            assert_eq!(mine.value.shape(), theirs.value.shape(), "param shape mismatch");
            mine.value = theirs.value.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(ps: &mut ParamStore, id: ParamId, delta: &[f32]) {
        ps.grad_mut(id).as_mut_slice().iter_mut().zip(delta).for_each(|(g, &d)| *g += d);
    }

    #[test]
    fn add_and_lookup() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Matrix::full(2, 3, 1.0));
        assert_eq!(ps.name(id), "w");
        assert_eq!(ps.value(id).shape(), (2, 3));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.num_weights(), 6);
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Matrix::zeros(1, 2));
        for _ in 0..2 {
            add(&mut ps, id, &[1.0, 2.0]);
        }
        assert_eq!(ps.grad(id).as_slice(), &[2.0, 4.0]);
        let buffer = ps.grad_mut(id).as_slice().as_ptr();
        ps.zero_grads();
        assert_eq!(ps.grad(id).as_slice(), &[0.0, 0.0]);
        assert_eq!(ps.grad_mut(id).as_slice().as_ptr(), buffer, "zeroed in place");
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Matrix::zeros(1, 2));
        add(&mut ps, id, &[3.0, 4.0]);
        let pre = ps.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((ps.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_leaves_small_grads() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Matrix::zeros(1, 2));
        add(&mut ps, id, &[0.3, 0.4]);
        ps.clip_grad_norm(1.0);
        assert_eq!(ps.grad(id).as_slice(), &[0.3, 0.4]);
    }

    #[test]
    fn freeze_flag() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Matrix::zeros(1, 1));
        assert!(!ps.is_frozen(id));
        ps.freeze(id);
        assert!(ps.is_frozen(id));
    }

    #[test]
    fn serde_roundtrip_drops_grads() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Matrix::full(1, 2, 1.0));
        ps.freeze(id);
        add(&mut ps, id, &[5.0, 5.0]);
        let json = serde_json::to_string(&ps).unwrap();
        let back: ParamStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.value(id), ps.value(id));
        assert!(back.is_frozen(id));
        assert!(back.entries[0].grad.is_none() && ps.clone().entries[0].grad.is_none());
    }

    #[test]
    fn copy_values_from_matches() {
        let mut a = ParamStore::new();
        let ida = a.add("w", Matrix::zeros(2, 2));
        let mut b = ParamStore::new();
        let _ = b.add("w", Matrix::full(2, 2, 7.0));
        a.copy_values_from(&b);
        assert_eq!(a.value(ida).as_slice(), &[7.0; 4]);
    }
}
