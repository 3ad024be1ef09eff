//! The runtime-owned physical mapper and its one membership-sync path.
//!
//! Every membership or cost-point change reaches the runtime's mapper
//! through [`MapperState::sync`]: a deployment-wave arrival joins
//! (`add_node`), a changed cost point moves (`update_node`), and a failed
//! node leaves (`remove_node`), so no control-plane path can map onto it
//! again.
//!
//! # Touched → relevance
//!
//! `sync` returns what the change can have invalidated, and the runtime
//! applies it to its relevance index in one place: [`Touched::Keys`] stabs
//! every clean record whose scanned ring region covers the node's old or
//! new registration key; [`Touched::All`] (the oracle, whose every lookup
//! scans every live point) dirties every record. A `Move` or `Leave` also
//! touches the node as a host, since records that read its cost point are
//! stale; a `Join` does not, since nothing is placed on a node before it
//! arrives.

use sbon_core::costspace::CostSpace;
use sbon_core::placement::{
    DhtMapper, DhtMapperConfig, LiveOracleMapper, MapperReadView, PhysicalMapper, ReadObservation,
    RoutedMapper,
};
use sbon_dht::RingKey;
use sbon_netsim::graph::NodeId;

use crate::runtime::MapperBackend;

/// One membership or cost-point change to sync into the mapper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemberChange {
    /// A deployment-wave arrival becomes mappable.
    Join,
    /// A registered node's cost point changed.
    Move,
    /// A node failed and must never be mapped to again.
    Leave,
}

/// What a [`MapperState::sync`] can have invalidated.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Touched {
    /// The ring keys the node was and is registered under (either may be
    /// absent: no old key on a join, no new key on a leave).
    Keys([Option<RingKey>; 2]),
    /// Every record: the oracle scan reads every live point.
    All,
}

/// The runtime-owned mapper behind [`MapperBackend`].
// The runtime holds exactly one of these for its whole lifetime, so the
// Dht/Oracle size gap costs one allocation's worth of slack, not N.
#[allow(clippy::large_enum_variant)]
pub(crate) enum MapperState {
    Dht(DhtMapper),
    Oracle(LiveOracleMapper),
    Routed(RoutedMapper),
}

impl MapperState {
    /// Builds the backend over the initial `members` of `space`.
    pub(crate) fn build(backend: MapperBackend, space: &CostSpace, members: &[NodeId]) -> Self {
        // Cap the grid resolution so the Hilbert key fits the 128-bit ring
        // whatever the space's dimensionality. The default keeps the full
        // scalar range: load churn must never push a registered coordinate
        // outside the quantizer box.
        let dht = |bits: u32, scan_width| DhtMapperConfig {
            bits: bits.min((128 / space.dims() as u32).max(1)),
            scan_width,
            ..DhtMapperConfig::default()
        };
        match backend {
            MapperBackend::Dht { bits, scan_width } => MapperState::Dht(
                DhtMapper::build_with_members(space, &dht(bits, scan_width), members),
            ),
            MapperBackend::Oracle => MapperState::Oracle(LiveOracleMapper::with_members(
                space.num_nodes(),
                members.iter().copied(),
            )),
            MapperBackend::Routed { bits, scan_width, proto } => MapperState::Routed(
                RoutedMapper::build_with_members(space, &dht(bits, scan_width), proto, members),
            ),
        }
    }

    /// Applies one membership change to the backend and reports what it
    /// touched (see the module docs for how the owner applies it).
    pub(crate) fn sync(
        &mut self,
        space: &CostSpace,
        node: NodeId,
        change: MemberChange,
    ) -> Touched {
        let with_new = |(old, new)| [old, Some(new)];
        let keys = match self {
            MapperState::Oracle(m) => {
                match change {
                    MemberChange::Join => m.add_node(space, node),
                    MemberChange::Move => m.update_node(space, node),
                    MemberChange::Leave => m.remove_node(node),
                }
                return Touched::All;
            }
            MapperState::Dht(m) if change == MemberChange::Leave => {
                [m.remove_node_traced(node), None]
            }
            MapperState::Routed(m) if change == MemberChange::Leave => {
                [m.remove_node_traced(node), None]
            }
            MapperState::Dht(m) => with_new(m.update_node_traced(space, node)),
            MapperState::Routed(m) => with_new(m.update_node_traced(space, node)),
        };
        debug_assert!(
            change != MemberChange::Join || keys[0].is_none(),
            "a joining node cannot be registered yet"
        );
        Touched::Keys(keys)
    }

    /// The live mapper, for the serial paths that map through it directly
    /// (deployment and failure evacuation).
    pub(crate) fn as_dyn(&mut self) -> &mut dyn PhysicalMapper {
        match self {
            MapperState::Dht(m) => m,
            MapperState::Oracle(m) => m,
            MapperState::Routed(m) => m,
        }
    }

    /// A read-only view for one circuit evaluation: answers exactly like
    /// the live mapper, accumulates traffic/read-set observations locally,
    /// and memoizes repeated lookups of bit-identical ideal points. The
    /// routed backend hands out the same catalog-only view the DHT backend
    /// does — routed traffic is replayed only for live-path lookups, on the
    /// serial settle points.
    pub(crate) fn read_view(&self) -> MapperReadView<'_> {
        match self {
            MapperState::Dht(m) => MapperReadView::Dht(m.read_view(true)),
            MapperState::Oracle(m) => MapperReadView::Oracle(m.read_view()),
            MapperState::Routed(m) => MapperReadView::Dht(m.read_view(true)),
        }
    }

    /// Folds a read view's deferred catalog traffic back onto the live
    /// mapper (a no-op for the oracle, which has no traffic counters).
    pub(crate) fn charge_observed(&mut self, obs: &ReadObservation) {
        match self {
            MapperState::Dht(m) => m.charge_stats(obs.stats),
            MapperState::Oracle(_) => {}
            MapperState::Routed(m) => m.charge_stats(obs.stats),
        }
    }
}
