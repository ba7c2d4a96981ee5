//! Interconnect topologies.
//!
//! The paper abstracts the interconnection network entirely; we provide a
//! few standard topologies so the latency model can be made hop-sensitive
//! (and so the workloads can be run on something resembling a cluster, a
//! NoC mesh — the paper's intro mentions 80-core NoCs — or a star through a
//! switch).

use crate::Rank;

/// Static interconnect shapes with closed-form hop counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every pair is one hop apart (a crossbar / single big switch).
    FullMesh,
    /// Bidirectional ring; hop count is the shorter way round.
    Ring {
        /// Number of nodes on the ring.
        nodes: usize,
    },
    /// Star through a central switch: two hops between distinct leaves,
    /// one hop to/from the hub itself.
    Star {
        /// Rank acting as the hub.
        hub: Rank,
    },
    /// 2-D torus of `width × height` nodes, rank-major layout; hop count is
    /// the wrap-around Manhattan distance (the NoC case).
    Torus2D {
        /// Torus width.
        width: usize,
        /// Torus height.
        height: usize,
    },
    /// Binary hypercube of `2^dims` nodes; hop count is the Hamming
    /// distance between rank labels (the classic HPC interconnect).
    Hypercube {
        /// Number of dimensions (nodes = `2^dims`).
        dims: u32,
    },
}

impl Topology {
    /// Number of hops between two ranks. Zero for a self-message (loopback
    /// never touches the wire).
    pub fn hops(&self, src: Rank, dst: Rank) -> u32 {
        if src == dst {
            return 0;
        }
        match *self {
            Topology::FullMesh => 1,
            Topology::Ring { nodes } => {
                assert!(src < nodes && dst < nodes, "rank out of ring");
                let d = (src as i64 - dst as i64).unsigned_abs() as usize;
                d.min(nodes - d) as u32
            }
            Topology::Star { hub } => {
                if src == hub || dst == hub {
                    1
                } else {
                    2
                }
            }
            Topology::Hypercube { dims } => {
                let n = 1usize << dims;
                assert!(src < n && dst < n, "rank out of hypercube");
                ((src ^ dst) as u64).count_ones()
            }
            Topology::Torus2D { width, height } => {
                let n = width * height;
                assert!(src < n && dst < n, "rank out of torus");
                let (sx, sy) = ((src % width) as i64, (src / width) as i64);
                let (dx, dy) = ((dst % width) as i64, (dst / width) as i64);
                let w = width as i64;
                let h = height as i64;
                let ddx = (sx - dx).abs().min(w - (sx - dx).abs());
                let ddy = (sy - dy).abs().min(h - (sy - dy).abs());
                (ddx + ddy) as u32
            }
        }
    }

    /// Largest hop count over all pairs (network diameter).
    pub fn diameter(&self, n: usize) -> u32 {
        let mut best = 0;
        for s in 0..n {
            for d in 0..n {
                best = best.max(self.hops(s, d));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_message_is_zero_hops() {
        for t in [
            Topology::FullMesh,
            Topology::Ring { nodes: 5 },
            Topology::Star { hub: 0 },
            Topology::Torus2D {
                width: 2,
                height: 2,
            },
        ] {
            assert_eq!(t.hops(1, 1), 0);
        }
    }

    #[test]
    fn full_mesh_is_one_hop() {
        assert_eq!(Topology::FullMesh.hops(0, 7), 1);
    }

    #[test]
    fn ring_takes_shorter_way() {
        let r = Topology::Ring { nodes: 6 };
        assert_eq!(r.hops(0, 1), 1);
        assert_eq!(r.hops(0, 5), 1);
        assert_eq!(r.hops(0, 3), 3);
        assert_eq!(r.diameter(6), 3);
    }

    #[test]
    fn star_hub_vs_leaves() {
        let s = Topology::Star { hub: 2 };
        assert_eq!(s.hops(2, 0), 1);
        assert_eq!(s.hops(0, 2), 1);
        assert_eq!(s.hops(0, 1), 2);
    }

    #[test]
    fn torus_wraps() {
        let t = Topology::Torus2D {
            width: 4,
            height: 4,
        };
        // (0,0) to (3,0): wrap distance 1.
        assert_eq!(t.hops(0, 3), 1);
        // (0,0) to (2,2): 2 + 2.
        assert_eq!(t.hops(0, 10), 4);
        assert_eq!(t.diameter(16), 4);
    }

    #[test]
    #[should_panic(expected = "out of ring")]
    fn ring_bounds_checked() {
        Topology::Ring { nodes: 3 }.hops(0, 3);
    }

    #[test]
    fn hypercube_hamming_distance() {
        let h = Topology::Hypercube { dims: 3 };
        assert_eq!(h.hops(0b000, 0b001), 1);
        assert_eq!(h.hops(0b000, 0b111), 3);
        assert_eq!(h.hops(0b101, 0b010), 3);
        assert_eq!(h.diameter(8), 3);
    }

    #[test]
    #[should_panic(expected = "out of hypercube")]
    fn hypercube_bounds_checked() {
        Topology::Hypercube { dims: 2 }.hops(0, 4);
    }
}
