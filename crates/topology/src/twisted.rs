//! Twisted 3D torus generator (§2.8 of the paper).
//!
//! TPU v4 realizes the k×k×2k (and k×2k×2k) twisted-torus family of
//! Camarero, Martínez and Beivide by reprogramming OCS routing tables: the
//! electrical links inside each 4³ block stay fixed, while the optical
//! wraparound links are reconnected with a coordinate offset. This module
//! expresses the twist as a per-dimension wraparound offset vector.

use crate::graph::{Edge, LinkGraph, LinkLabel};
use crate::shape::Twistability;
use crate::{Coord3, Dim, Direction, NodeId, SliceShape, TopologyError};
use serde::{Deserialize, Serialize};

/// Wraparound offsets defining a twisted torus.
///
/// `offset(d)` is added (component-wise, modulo the shape) to a coordinate
/// whenever a link wraps around in dimension `d` travelling in the `+`
/// direction; wrapping in the `−` direction subtracts it. An offset must be
/// zero in its own dimension, so each dimension still forms closed rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TwistSpec {
    offsets: [Coord3; 3],
}

impl TwistSpec {
    /// Creates a twist specification.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InconsistentTwist`] if any offset has a
    /// nonzero component in its own dimension, or a component not smaller
    /// than the corresponding shape extent.
    pub fn new(shape: SliceShape, offsets: [Coord3; 3]) -> Result<TwistSpec, TopologyError> {
        for dim in Dim::ALL {
            let off = offsets[dim.index()];
            if off.get(dim) != 0 {
                return Err(TopologyError::InconsistentTwist);
            }
            for other in Dim::ALL {
                if off.get(other) >= shape.extent(other) && off.get(other) != 0 {
                    return Err(TopologyError::InconsistentTwist);
                }
            }
        }
        Ok(TwistSpec { offsets })
    }

    /// The identity twist (yields a regular torus).
    pub fn identity() -> TwistSpec {
        TwistSpec {
            offsets: [Coord3::default(); 3],
        }
    }

    /// The paper's default twist for a twistable shape.
    ///
    /// * `n×n×2n`: wrapping x or y shifts z by `n` (the k×k×2k lattice of
    ///   Camarero et al., §2.8).
    /// * `n×2n×2n`: wrapping x (the unique short dimension) shifts both
    ///   long dimensions by `n`.
    ///
    /// The shape is canonicalized (`x ≤ y ≤ z`) before classification, but
    /// the offsets are expressed in the shape's own axis order, assuming the
    /// caller passes a canonical shape (which the scheduler guarantees).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NotTwistable`] for non-twistable shapes.
    pub fn paper_default(shape: SliceShape) -> Result<TwistSpec, TopologyError> {
        match shape.twistability() {
            Twistability::SquareDoubled { n } => TwistSpec::new(
                shape,
                [
                    Coord3::new(0, 0, n),
                    Coord3::new(0, 0, n),
                    Coord3::default(),
                ],
            ),
            Twistability::DoubledDoubled { n } => TwistSpec::new(
                shape,
                [Coord3::new(0, n, n), Coord3::default(), Coord3::default()],
            ),
            Twistability::NotTwistable => Err(TopologyError::NotTwistable {
                shape: (shape.x(), shape.y(), shape.z()),
            }),
        }
    }

    /// The wraparound offset applied when wrapping in `dim` (+ direction).
    pub fn offset(self, dim: Dim) -> Coord3 {
        self.offsets[dim.index()]
    }

    /// Whether this spec is the identity (no twist anywhere).
    pub fn is_identity(self) -> bool {
        self.offsets.iter().all(|&o| o == Coord3::default())
    }
}

/// A twisted 3D torus over a slice shape.
///
/// # Example
///
/// ```
/// use tpu_topology::{SliceShape, TwistedTorus};
///
/// let shape = SliceShape::new(4, 4, 8)?;
/// let graph = TwistedTorus::paper_default(shape)?.into_graph();
/// assert!(graph.is_symmetric());
/// assert_eq!(graph.node_count(), 128);
/// # Ok::<(), tpu_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwistedTorus {
    shape: SliceShape,
    spec: TwistSpec,
}

impl TwistedTorus {
    /// Creates a twisted torus with an explicit twist specification.
    pub fn new(shape: SliceShape, spec: TwistSpec) -> TwistedTorus {
        TwistedTorus { shape, spec }
    }

    /// Creates a twisted torus with the paper's default twist for the shape.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NotTwistable`] for non-twistable shapes.
    pub fn paper_default(shape: SliceShape) -> Result<TwistedTorus, TopologyError> {
        Ok(TwistedTorus {
            shape,
            spec: TwistSpec::paper_default(shape)?,
        })
    }

    /// The slice shape.
    pub fn shape(self) -> SliceShape {
        self.shape
    }

    /// The twist specification.
    pub fn spec(self) -> TwistSpec {
        self.spec
    }

    /// The neighbor reached from `c` along `dim` in `dir`, with twisting.
    pub fn neighbor(self, c: Coord3, dim: Dim, dir: Direction) -> (Coord3, bool) {
        let (stepped, wrapped) = crate::torus::step(self.shape, c, dim, dir);
        if !wrapped {
            return (stepped, false);
        }
        let off = self.spec.offset(dim);
        let apply = |val: u32, off: u32, extent: u32, dir: Direction| -> u32 {
            match dir {
                Direction::Plus => (val + off) % extent,
                Direction::Minus => (val + extent - off % extent) % extent,
            }
        };
        let mut out = stepped;
        for other in Dim::ALL {
            if other != dim && off.get(other) != 0 {
                let extent = self.shape.extent(other);
                out = out.with(other, apply(out.get(other), off.get(other), extent, dir));
            }
        }
        (out, true)
    }

    /// Materializes the twisted torus as an explicit link graph.
    pub fn into_graph(self) -> LinkGraph {
        let shape = self.shape;
        let mut edges = Vec::new();
        for c in shape.coords() {
            for dim in Dim::ALL {
                if shape.extent(dim) <= 1 {
                    continue;
                }
                for dir in Direction::ALL {
                    let (nbr, wrap) = self.neighbor(c, dim, dir);
                    edges.push(Edge {
                        src: NodeId::new(shape.index_of(c)),
                        dst: NodeId::new(shape.index_of(nbr)),
                        label: LinkLabel {
                            dim,
                            dir,
                            wraparound: wrap,
                        },
                    });
                }
            }
        }
        let kind = if self.spec.is_identity() {
            "torus"
        } else {
            "twisted-torus"
        };
        LinkGraph::from_edges(shape, format!("{kind} {shape}"), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Torus;

    #[test]
    fn identity_twist_equals_regular_torus() {
        // Same name and the same edges in the same order, labels included,
        // on degenerate, extent-2, odd and long dimensions.
        for (x, y, z) in [
            (1, 1, 1),
            (2, 1, 1),
            (4, 4, 8),
            (2, 3, 16),
            (8, 8, 4),
            (5, 7, 2),
        ] {
            let shape = SliceShape::new(x, y, z).unwrap();
            let twisted = TwistedTorus::new(shape, TwistSpec::identity()).into_graph();
            let regular = Torus::new(shape).into_graph();
            assert_eq!(twisted.name(), regular.name(), "{shape}");
            assert_eq!(twisted.edges(), regular.edges(), "{shape}");
        }
    }

    #[test]
    fn paper_default_on_4x4x8_is_symmetric_and_regular_degree() {
        let g = TwistedTorus::paper_default(SliceShape::new(4, 4, 8).unwrap())
            .unwrap()
            .into_graph();
        assert!(g.is_symmetric());
        assert_eq!(g.degree_range(), (6, 6));
        assert_eq!(g.node_count(), 128);
    }

    #[test]
    fn paper_default_on_4x8x8_is_symmetric() {
        let g = TwistedTorus::paper_default(SliceShape::new(4, 8, 8).unwrap())
            .unwrap()
            .into_graph();
        assert!(g.is_symmetric());
        assert_eq!(g.degree_range(), (6, 6));
    }

    #[test]
    fn non_twistable_shape_rejected() {
        let err = TwistedTorus::paper_default(SliceShape::cube(8).unwrap()).unwrap_err();
        assert_eq!(err, TopologyError::NotTwistable { shape: (8, 8, 8) });
    }

    #[test]
    fn twist_spec_rejects_self_dimension_offset() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let err = TwistSpec::new(
            shape,
            [
                Coord3::new(1, 0, 0), // x offset on x wrap: illegal
                Coord3::default(),
                Coord3::default(),
            ],
        )
        .unwrap_err();
        assert_eq!(err, TopologyError::InconsistentTwist);
    }

    #[test]
    fn twist_spec_rejects_oversized_offset() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let err = TwistSpec::new(
            shape,
            [
                Coord3::new(0, 0, 9), // z extent is 8
                Coord3::default(),
                Coord3::default(),
            ],
        )
        .unwrap_err();
        assert_eq!(err, TopologyError::InconsistentTwist);
    }

    #[test]
    fn wrap_neighbor_applies_offset_both_ways() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let t = TwistedTorus::paper_default(shape).unwrap();
        // +x wrap from x=3 shifts z by 4.
        let (n, wrapped) = t.neighbor(Coord3::new(3, 1, 2), Dim::X, Direction::Plus);
        assert!(wrapped);
        assert_eq!(n, Coord3::new(0, 1, 6));
        // The reverse step undoes it.
        let (back, wrapped) = t.neighbor(n, Dim::X, Direction::Minus);
        assert!(wrapped);
        assert_eq!(back, Coord3::new(3, 1, 2));
    }

    #[test]
    fn interior_steps_are_untwisted() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let t = TwistedTorus::paper_default(shape).unwrap();
        let (n, wrapped) = t.neighbor(Coord3::new(1, 1, 1), Dim::X, Direction::Plus);
        assert!(!wrapped);
        assert_eq!(n, Coord3::new(2, 1, 1));
    }

    #[test]
    fn twisted_diameter_not_worse_than_regular() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let regular = Torus::new(shape).into_graph();
        let twisted = TwistedTorus::paper_default(shape).unwrap().into_graph();
        let d_reg = crate::GraphMetrics::compute(&regular).diameter();
        let d_twist = crate::GraphMetrics::compute(&twisted).diameter();
        assert!(
            d_twist <= d_reg,
            "twisted diameter {d_twist} exceeds regular {d_reg}"
        );
    }

    #[test]
    fn graph_is_strongly_connected() {
        for shape in [
            SliceShape::new(4, 4, 8).unwrap(),
            SliceShape::new(4, 8, 8).unwrap(),
        ] {
            let g = TwistedTorus::paper_default(shape).unwrap().into_graph();
            let dist = crate::bfs_distances(&g, NodeId::new(0));
            assert!(dist.iter().all(|&d| d != u32::MAX), "{shape} disconnected");
        }
    }
}
