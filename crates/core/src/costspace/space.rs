//! The cost space itself: per-node coordinates assembled from an embedding
//! plus weighted scalar attributes, and the registry of multiple spaces.

use std::collections::BTreeMap;

use sbon_coords::vivaldi::VivaldiEmbedding;
use sbon_netsim::graph::NodeId;
use sbon_netsim::load::{Attr, NodeAttrs};

use crate::costspace::point::CostPoint;
use crate::costspace::weight::WeightFn;

/// Where a scalar dimension reads its raw value from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalarSource {
    /// A node attribute from the simulator's attribute table.
    Attr(Attr),
}

/// Description of one scalar dimension.
#[derive(Clone, Debug)]
pub struct DimensionSpec {
    /// Dimension name for harness output (e.g. `"cpu²"`).
    pub name: String,
    /// Raw-value source.
    pub source: ScalarSource,
    /// Weighting function shaping the raw value into a coordinate.
    pub weight: WeightFn,
}

/// A cost space: one [`CostPoint`] per physical node.
///
/// "The semantics (dimensions, units, and weighting functions) of a
/// particular cost-space must be known by all nodes in the SBON" — here they
/// are carried by the space itself.
#[derive(Clone, Debug)]
pub struct CostSpace {
    /// Human-readable space name.
    pub name: String,
    vector_dims: usize,
    scalar_specs: Vec<DimensionSpec>,
    points: Vec<CostPoint>,
}

impl CostSpace {
    /// Number of nodes with coordinates.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Total dimensionality (vector + scalar).
    pub fn dims(&self) -> usize {
        self.vector_dims + self.scalar_specs.len()
    }

    /// Number of vector (latency) dimensions.
    pub fn vector_dims(&self) -> usize {
        self.vector_dims
    }

    /// The scalar dimension descriptions.
    pub fn scalar_specs(&self) -> &[DimensionSpec] {
        &self.scalar_specs
    }

    /// The coordinate of a node.
    pub fn point(&self, node: NodeId) -> &CostPoint {
        &self.points[node.index()]
    }

    /// All coordinates, indexed by node id.
    pub fn points(&self) -> &[CostPoint] {
        &self.points
    }

    /// Full-space distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.point(a).full_distance(self.point(b))
    }

    /// Vector-only distance between two nodes (the latency estimate).
    pub fn vector_distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.point(a).vector_distance(self.point(b), self.vector_dims)
    }

    /// Extends a virtual-placement coordinate (vector dims only) to a full
    /// coordinate with ideal (zero) scalar components — the target that
    /// physical mapping resolves ("the ideal scalar components will all be
    /// zero", Section 3.2).
    pub fn ideal_point(&self, vector_coord: &[f64]) -> CostPoint {
        assert_eq!(vector_coord.len(), self.vector_dims, "vector coordinate dims");
        let mut full = Vec::with_capacity(self.dims());
        full.extend_from_slice(vector_coord);
        full.resize(self.dims(), 0.0);
        CostPoint::new(full)
    }

    /// Recomputes every node's scalar components from fresh attributes —
    /// the bulk maintenance path. Steady-state churn should prefer
    /// [`CostSpace::update_scalars`] over the dirty set: a tick touching `k`
    /// nodes then costs `O(k·dims)` instead of `O(n·dims)`. Both paths
    /// evaluate the identical weighting expression, so a dirty-set update is
    /// bit-identical to a full refresh over the same attribute table.
    pub fn refresh_scalars(&mut self, attrs: &NodeAttrs) {
        assert_eq!(attrs.len(), self.points.len(), "attribute table size");
        for i in 0..self.points.len() {
            self.update_scalars(NodeId(i as u32), attrs);
        }
    }

    /// Recomputes one node's scalar components from the attribute table —
    /// the delta path of the maintenance contract. Returns `true` when any
    /// component actually changed (bit-level), which is the signal to
    /// re-register the node with coordinate consumers (see
    /// [`PhysicalMapper::update_node`]); clamped or repeated attribute
    /// writes that leave the weighted value unchanged return `false` so
    /// downstream sync can be skipped.
    ///
    /// [`PhysicalMapper::update_node`]: crate::placement::PhysicalMapper::update_node
    pub fn update_scalars(&mut self, node: NodeId, attrs: &NodeAttrs) -> bool {
        let point = &mut self.points[node.index()];
        let mut changed = false;
        for (d, spec) in self.scalar_specs.iter().enumerate() {
            let raw = match spec.source {
                ScalarSource::Attr(a) => attrs.get(node, a),
            };
            let next = spec.weight.apply(raw);
            let slot = &mut point.0[self.vector_dims + d];
            if slot.to_bits() != next.to_bits() {
                *slot = next;
                changed = true;
            }
        }
        changed
    }

    /// The pure half of [`CostSpace::update_scalars`]: evaluates the scalar
    /// component values for `node` from the attribute table without touching
    /// the space. Evaluating is side-effect free and reads only shared
    /// state, so a runtime can compute many nodes' values in parallel and
    /// then commit them serially with [`CostSpace::apply_scalars`] — the
    /// committed result is bit-identical to calling `update_scalars`
    /// directly (both evaluate the identical weighting expression).
    pub fn scalar_values(&self, node: NodeId, attrs: &NodeAttrs) -> Vec<f64> {
        self.scalar_specs
            .iter()
            .map(|spec| {
                let raw = match spec.source {
                    ScalarSource::Attr(a) => attrs.get(node, a),
                };
                spec.weight.apply(raw)
            })
            .collect()
    }

    /// The write half of [`CostSpace::update_scalars`]: commits values
    /// produced by [`CostSpace::scalar_values`]. Returns `true` when any
    /// component actually changed (bit-level), same contract as
    /// `update_scalars`.
    pub fn apply_scalars(&mut self, node: NodeId, values: &[f64]) -> bool {
        assert_eq!(values.len(), self.scalar_specs.len(), "scalar component count");
        let point = &mut self.points[node.index()];
        let mut changed = false;
        for (d, &next) in values.iter().enumerate() {
            let slot = &mut point.0[self.vector_dims + d];
            if slot.to_bits() != next.to_bits() {
                *slot = next;
                changed = true;
            }
        }
        changed
    }

    /// Replaces one node's vector (latency) coordinate — the delta path for
    /// embedding refinement, where a node "constantly refines" its network
    /// coordinate. Scalar components are untouched. Returns `true` when the
    /// coordinate actually changed (bit-level).
    pub fn set_vector_coord(&mut self, node: NodeId, coord: &[f64]) -> bool {
        assert_eq!(coord.len(), self.vector_dims, "vector coordinate dims");
        assert!(coord.iter().all(|c| c.is_finite()), "cost coordinates must be finite");
        let point = &mut self.points[node.index()];
        let mut changed = false;
        for (slot, &c) in point.0[..self.vector_dims].iter_mut().zip(coord) {
            if slot.to_bits() != c.to_bits() {
                *slot = c;
                changed = true;
            }
        }
        changed
    }
}

/// Builders for the spaces used in the paper and the experiments.
pub struct CostSpaceBuilder;

impl CostSpaceBuilder {
    /// A pure latency space (Section 3.1's "sample cost space"): vector
    /// dimensions only, straight from a network-coordinate embedding.
    pub fn latency_space(embedding: &VivaldiEmbedding) -> CostSpace {
        CostSpace {
            name: "latency".to_string(),
            vector_dims: embedding.dims(),
            scalar_specs: Vec::new(),
            points: embedding.coords.iter().map(|c| CostPoint::new(c.clone())).collect(),
        }
    }

    /// The paper's Figure 2 space: latency in the vector dimensions plus a
    /// squared-CPU-load scalar dimension. `load_scale` sets how many
    /// latency-units a fully loaded node is penalized; Figure 2's plot uses
    /// a penalty comparable to the network diameter, so the default in
    /// [`CostSpaceBuilder::latency_load_space`] is 100 ms-equivalent.
    pub fn latency_load_space_scaled(
        embedding: &VivaldiEmbedding,
        attrs: &NodeAttrs,
        load_scale: f64,
    ) -> CostSpace {
        let spec = DimensionSpec {
            name: "cpu²".to_string(),
            source: ScalarSource::Attr(Attr::CpuLoad),
            weight: WeightFn::Squared { scale: load_scale },
        };
        Self::custom(embedding, attrs, vec![spec], "latency+cpu²")
    }

    /// [`CostSpaceBuilder::latency_load_space_scaled`] with the default
    /// 100.0 load scale.
    pub fn latency_load_space(embedding: &VivaldiEmbedding, attrs: &NodeAttrs) -> CostSpace {
        Self::latency_load_space_scaled(embedding, attrs, 100.0)
    }

    /// A space with arbitrary scalar dimensions appended to the embedding's
    /// vector dimensions.
    pub fn custom(
        embedding: &VivaldiEmbedding,
        attrs: &NodeAttrs,
        scalar_specs: Vec<DimensionSpec>,
        name: &str,
    ) -> CostSpace {
        assert_eq!(
            embedding.len(),
            attrs.len(),
            "embedding and attribute table must cover the same nodes"
        );
        let vector_dims = embedding.dims();
        let mut points = Vec::with_capacity(embedding.len());
        for (i, vec_coord) in embedding.coords.iter().enumerate() {
            let node = NodeId(i as u32);
            let mut full = Vec::with_capacity(vector_dims + scalar_specs.len());
            full.extend_from_slice(vec_coord);
            for spec in &scalar_specs {
                let raw = match spec.source {
                    ScalarSource::Attr(a) => attrs.get(node, a),
                };
                full.push(spec.weight.apply(raw));
            }
            points.push(CostPoint::new(full));
        }
        CostSpace { name: name.to_string(), vector_dims, scalar_specs, points }
    }
}

/// "The SBON can support multiple independent cost spaces, each to suit
/// different classes of applications" (Section 3.1).
#[derive(Debug, Default)]
pub struct CostSpaceRegistry {
    // Ordered so `refresh_all`/`refresh_dirty` visit spaces in a stable
    // order (sbon-lint: unordered-iteration).
    spaces: BTreeMap<String, CostSpace>,
}

impl CostSpaceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a space under its name, replacing any previous space of
    /// the same name.
    pub fn register(&mut self, space: CostSpace) {
        self.spaces.insert(space.name.clone(), space);
    }

    /// Looks up a space by name.
    pub fn get(&self, name: &str) -> Option<&CostSpace> {
        self.spaces.get(name)
    }

    /// Mutable lookup (for scalar refresh).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut CostSpace> {
        self.spaces.get_mut(name)
    }

    /// Bulk-refreshes the scalar components of **every** registered space
    /// from one attribute table (all spaces observe the same physical
    /// nodes). The full-universe counterpart of
    /// [`CostSpaceRegistry::refresh_dirty`].
    pub fn refresh_all(&mut self, attrs: &NodeAttrs) {
        for space in self.spaces.values_mut() {
            space.refresh_scalars(attrs);
        }
    }

    /// Fans a churn delta out to every registered space: only the `dirty`
    /// nodes are recomputed, so a tick touching `k` nodes costs
    /// `O(spaces · k · dims)` regardless of overlay size. Returns the number
    /// of `(space, node)` points that actually changed. Bit-identical to
    /// [`CostSpaceRegistry::refresh_all`] when `dirty` covers the nodes
    /// whose attributes changed since the last refresh.
    pub fn refresh_dirty(&mut self, attrs: &NodeAttrs, dirty: &[NodeId]) -> usize {
        let mut changed = 0;
        for space in self.spaces.values_mut() {
            for &node in dirty {
                if space.update_scalars(node, attrs) {
                    changed += 1;
                }
            }
        }
        changed
    }

    /// Number of registered spaces.
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    /// True when no space is registered.
    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbon_netsim::load::LoadModel;
    use sbon_netsim::rng::rng_from_seed;

    fn embedding3() -> VivaldiEmbedding {
        VivaldiEmbedding::exact(vec![vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]])
    }

    #[test]
    fn latency_space_has_no_scalars() {
        let s = CostSpaceBuilder::latency_space(&embedding3());
        assert_eq!(s.dims(), 2);
        assert_eq!(s.vector_dims(), 2);
        assert_eq!(s.distance(NodeId(0), NodeId(1)), 10.0);
        assert_eq!(s.vector_distance(NodeId(0), NodeId(1)), 10.0);
    }

    #[test]
    fn load_space_appends_weighted_scalar() {
        let mut attrs = NodeAttrs::idle(3);
        attrs.set(NodeId(1), Attr::CpuLoad, 0.5);
        let s = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        assert_eq!(s.dims(), 3);
        // Node 1's scalar component: 100 × 0.5² = 25.
        assert_eq!(s.point(NodeId(1)).scalar_part(2), &[25.0]);
        assert_eq!(s.point(NodeId(0)).scalar_part(2), &[0.0]);
        // Full distance between 0 and 1 mixes latency (10) and load (25).
        let d = s.distance(NodeId(0), NodeId(1));
        assert!((d - (10.0f64 * 10.0 + 25.0 * 25.0).sqrt()).abs() < 1e-12);
        // Vector distance ignores load.
        assert_eq!(s.vector_distance(NodeId(0), NodeId(1)), 10.0);
    }

    /// The compute/apply split must commit bit-identical state to the
    /// one-shot `update_scalars`, with matching change reporting — the
    /// contract the parallel refresh in the overlay runtime leans on.
    #[test]
    fn scalar_values_then_apply_matches_update_scalars() {
        let mut rng = rng_from_seed(9);
        let mut attrs = LoadModel::Uniform(0.3).generate(3, &mut rng);
        let mut direct = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        let mut split = direct.clone();
        attrs.set(NodeId(1), Attr::CpuLoad, 0.9);
        for node in [NodeId(0), NodeId(1), NodeId(2)] {
            let changed_direct = direct.update_scalars(node, &attrs);
            let values = split.scalar_values(node, &attrs);
            let changed_split = split.apply_scalars(node, &values);
            assert_eq!(changed_direct, changed_split, "{node}");
            assert_eq!(direct.point(node).as_slice(), split.point(node).as_slice(), "{node}");
        }
        // Only node 1's attribute moved.
        assert_eq!(split.point(NodeId(1)).scalar_part(2), &[100.0 * 0.81]);
    }

    #[test]
    fn ideal_point_zeroes_scalars() {
        let attrs = NodeAttrs::idle(3);
        let s = CostSpaceBuilder::latency_load_space(&embedding3(), &attrs);
        let p = s.ideal_point(&[3.0, 4.0]);
        assert_eq!(p.as_slice(), &[3.0, 4.0, 0.0]);
    }

    #[test]
    fn refresh_scalars_tracks_churn() {
        let mut rng = rng_from_seed(1);
        let mut attrs = LoadModel::Uniform(0.2).generate(3, &mut rng);
        let mut s = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        assert_eq!(s.point(NodeId(0)).scalar_part(2), &[100.0 * 0.04]);
        attrs.set(NodeId(0), Attr::CpuLoad, 1.0);
        s.refresh_scalars(&attrs);
        assert_eq!(s.point(NodeId(0)).scalar_part(2), &[100.0]);
    }

    #[test]
    fn update_scalars_matches_full_refresh_and_detects_change() {
        let mut attrs = NodeAttrs::idle(3);
        let mut delta = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        let mut full = delta.clone();

        attrs.set(NodeId(1), Attr::CpuLoad, 0.7);
        assert!(delta.update_scalars(NodeId(1), &attrs), "a real change reports true");
        full.refresh_scalars(&attrs);
        for i in 0..3u32 {
            assert_eq!(delta.point(NodeId(i)), full.point(NodeId(i)));
        }
        // Re-applying the same attributes is a no-op.
        assert!(!delta.update_scalars(NodeId(1), &attrs));
        // A clamped write that leaves the weighted value unchanged too.
        attrs.set(NodeId(0), Attr::CpuLoad, -5.0);
        assert!(!delta.update_scalars(NodeId(0), &attrs));
    }

    #[test]
    fn set_vector_coord_moves_only_the_vector_prefix() {
        let attrs = NodeAttrs::idle(3);
        let mut s = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        assert!(s.set_vector_coord(NodeId(2), &[7.0, 8.0]));
        assert_eq!(s.point(NodeId(2)).as_slice(), &[7.0, 8.0, 0.0]);
        assert!(!s.set_vector_coord(NodeId(2), &[7.0, 8.0]), "identical coord is a no-op");
    }

    #[test]
    #[should_panic(expected = "vector coordinate dims")]
    fn set_vector_coord_rejects_wrong_dims() {
        let attrs = NodeAttrs::idle(3);
        let mut s = CostSpaceBuilder::latency_load_space(&embedding3(), &attrs);
        s.set_vector_coord(NodeId(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn registry_refresh_dirty_matches_refresh_all() {
        let mut attrs = NodeAttrs::idle(3);
        let mut delta_reg = CostSpaceRegistry::new();
        delta_reg.register(CostSpaceBuilder::latency_load_space(&embedding3(), &attrs));
        delta_reg.register(CostSpaceBuilder::latency_space(&embedding3()));
        let mut full_reg = CostSpaceRegistry::new();
        full_reg.register(CostSpaceBuilder::latency_load_space(&embedding3(), &attrs));
        full_reg.register(CostSpaceBuilder::latency_space(&embedding3()));

        attrs.set(NodeId(0), Attr::CpuLoad, 0.9);
        attrs.set(NodeId(2), Attr::CpuLoad, 0.4);
        // Only the load space has a scalar dimension, so 2 points change.
        assert_eq!(delta_reg.refresh_dirty(&attrs, &[NodeId(0), NodeId(2)]), 2);
        full_reg.refresh_all(&attrs);
        for name in ["latency+cpu²", "latency"] {
            let d = delta_reg.get(name).unwrap();
            let f = full_reg.get(name).unwrap();
            for i in 0..3u32 {
                assert_eq!(d.point(NodeId(i)), f.point(NodeId(i)), "{name} node {i}");
            }
        }
        // Nothing changed since: the delta path reports zero.
        assert_eq!(delta_reg.refresh_dirty(&attrs, &[NodeId(0), NodeId(1), NodeId(2)]), 0);
    }

    #[test]
    fn registry_supports_multiple_spaces() {
        let mut reg = CostSpaceRegistry::new();
        reg.register(CostSpaceBuilder::latency_space(&embedding3()));
        let attrs = NodeAttrs::idle(3);
        reg.register(CostSpaceBuilder::latency_load_space(&embedding3(), &attrs));
        assert_eq!(reg.len(), 2);
        assert!(reg.get("latency").is_some());
        assert!(reg.get("latency+cpu²").is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn registry_get_mut_supports_refresh() {
        let mut reg = CostSpaceRegistry::new();
        let mut attrs = NodeAttrs::idle(3);
        reg.register(CostSpaceBuilder::latency_load_space(&embedding3(), &attrs));
        attrs.set(NodeId(2), Attr::CpuLoad, 1.0);
        reg.get_mut("latency+cpu²").unwrap().refresh_scalars(&attrs);
        let space = reg.get("latency+cpu²").unwrap();
        assert_eq!(space.point(NodeId(2)).scalar_part(2), &[100.0]);
    }

    #[test]
    fn reregistering_replaces_the_space() {
        let mut reg = CostSpaceRegistry::new();
        reg.register(CostSpaceBuilder::latency_space(&embedding3()));
        reg.register(CostSpaceBuilder::latency_space(&embedding3()));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn mismatched_sizes_rejected() {
        let attrs = NodeAttrs::idle(2);
        CostSpaceBuilder::latency_load_space(&embedding3(), &attrs);
    }
}
