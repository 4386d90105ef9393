//! Leaf-spine fabric: topology, link parameters, routing.
//!
//! The paper's Figure 19 simulates "a 144 node leaf-spine topology" (the
//! pFabric setup: 9 leaves × 16 hosts, 4 spines, 10 Gbps edge and 40 Gbps
//! fabric links). The topology is parameterized so tests run a scaled-down
//! fabric with identical structure.

use eiffel_sim::{Nanos, Rate};

/// Per-hop propagation delay (the pFabric simulations use 0.2 µs/hop).
pub const PROP_DELAY: Nanos = 200;

/// Longest route through the leaf-spine fabric, in ports traversed
/// (host uplink → leaf uplink → spine downlink → leaf downlink).
pub const MAX_HOPS: usize = 4;

/// An ECMP route: the ports a frame traverses, inline and `Copy` so the
/// per-flow table holds it without a heap allocation (port ids fit `u16`
/// comfortably: the paper fabric has 360).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path {
    ports: [u16; MAX_HOPS],
    len: u8,
}

impl Path {
    fn new(ports: &[usize]) -> Self {
        debug_assert!(ports.len() <= MAX_HOPS);
        let mut p = Path {
            ports: [0; MAX_HOPS],
            len: ports.len() as u8,
        };
        for (slot, &port) in p.ports.iter_mut().zip(ports) {
            *slot = u16::try_from(port).expect("port ids fit u16");
        }
        p
    }

    /// Number of ports traversed.
    pub fn hops(&self) -> usize {
        self.len as usize
    }

    /// Port traversed at hop `i` (0-based).
    pub fn port(&self, i: usize) -> usize {
        debug_assert!(i < self.hops());
        self.ports[i] as usize
    }
}

/// Fabric parameters.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    /// Leaf switches.
    pub leaves: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Spine switches.
    pub spines: usize,
    /// Edge (host↔leaf) link rate.
    pub edge: Rate,
    /// Fabric (leaf↔spine) link rate.
    pub fabric: Rate,
}

impl Topology {
    /// The paper's 144-host fabric.
    pub fn paper() -> Self {
        Topology {
            leaves: 9,
            hosts_per_leaf: 16,
            spines: 4,
            edge: Rate::gbps(10),
            fabric: Rate::gbps(40),
        }
    }

    /// A scaled-down fabric with the same structure (for tests).
    pub fn small() -> Self {
        Topology {
            leaves: 4,
            hosts_per_leaf: 8,
            spines: 2,
            edge: Rate::gbps(10),
            fabric: Rate::gbps(40),
        }
    }

    /// Total hosts.
    pub fn hosts(&self) -> usize {
        self.leaves * self.hosts_per_leaf
    }

    /// Leaf switch of a host.
    fn leaf_of(&self, host: usize) -> usize {
        host / self.hosts_per_leaf
    }

    /// Number of directed, queued ports:
    /// host uplinks + leaf downlinks + leaf uplinks + spine downlinks.
    pub fn ports(&self) -> usize {
        self.hosts() + self.hosts() + self.leaves * self.spines + self.spines * self.leaves
    }

    /// Port id: host `h`'s NIC egress (host → leaf).
    fn host_uplink(&self, h: usize) -> usize {
        h
    }

    /// Port id: leaf-to-host downlink.
    fn leaf_down(&self, h: usize) -> usize {
        self.hosts() + h
    }

    /// Port id: leaf `l` → spine `s` uplink.
    fn leaf_up(&self, l: usize, s: usize) -> usize {
        2 * self.hosts() + l * self.spines + s
    }

    /// Port id: spine `s` → leaf `l` downlink.
    fn spine_down(&self, s: usize, l: usize) -> usize {
        2 * self.hosts() + self.leaves * self.spines + s * self.leaves + l
    }

    /// Rate of a port's outgoing link.
    pub fn port_rate(&self, port: usize) -> Rate {
        if port < 2 * self.hosts() {
            self.edge
        } else {
            self.fabric
        }
    }

    /// The ECMP path (ports traversed) from `src` to `dst` for a flow
    /// hashed to `hash` (per-flow ECMP spine selection).
    pub fn route(&self, src: usize, dst: usize, hash: u64) -> Path {
        assert_ne!(src, dst, "flows need distinct endpoints");
        let (ls, ld) = (self.leaf_of(src), self.leaf_of(dst));
        if ls == ld {
            Path::new(&[self.host_uplink(src), self.leaf_down(dst)])
        } else {
            let s = (hash % self.spines as u64) as usize;
            Path::new(&[
                self.host_uplink(src),
                self.leaf_up(ls, s),
                self.spine_down(s, ld),
                self.leaf_down(dst),
            ])
        }
    }

    /// One-way latency of an empty path (serialization at each hop plus
    /// propagation), for MTU frames — the base for ideal FCTs.
    pub fn base_one_way(&self, hops: usize, bytes: u64) -> Nanos {
        // hops = number of ports traversed.
        let edge_tx = self.edge.tx_time(bytes).expect("non-zero rate");
        let fabric_tx = self.fabric.tx_time(bytes).expect("non-zero rate");
        let mut t = 0;
        for i in 0..hops {
            // First and last hops are edge links in any route.
            let is_edge = i == 0 || i == hops - 1;
            t += if is_edge { edge_tx } else { fabric_tx } + PROP_DELAY;
        }
        t
    }

    /// Base round-trip time across the fabric (4-hop path, MTU out, 40B
    /// ack back along the same hops).
    pub fn base_rtt(&self) -> Nanos {
        self.base_one_way(4, 1_500) + self.base_one_way(4, 40)
    }

    /// Bandwidth-delay product of an edge link in MTU packets (pFabric's
    /// window size).
    pub fn bdp_packets(&self) -> u32 {
        let bytes = self.edge.as_bps() as u128 * self.base_rtt() as u128 / 8 / 1_000_000_000;
        (bytes as u32).div_ceil(1_500).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_has_144_hosts() {
        let t = Topology::paper();
        assert_eq!(t.hosts(), 144);
        assert_eq!(t.ports(), 144 + 144 + 36 + 36);
    }

    #[test]
    fn port_ids_are_disjoint_and_dense() {
        let t = Topology::small();
        let mut seen = vec![false; t.ports()];
        for h in 0..t.hosts() {
            for p in [t.host_uplink(h), t.leaf_down(h)] {
                assert!(!seen[p], "duplicate port {p}");
                seen[p] = true;
            }
        }
        for l in 0..t.leaves {
            for s in 0..t.spines {
                for p in [t.leaf_up(l, s), t.spine_down(s, l)] {
                    assert!(!seen[p], "duplicate port {p}");
                    seen[p] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b), "port space must be dense");
    }

    #[test]
    fn routes_are_well_formed() {
        let t = Topology::small();
        // Same leaf: two hops.
        let r = t.route(0, 1, 42);
        assert_eq!(r.hops(), 2);
        assert_eq!(
            &r.ports[..r.len as usize],
            &[t.host_uplink(0) as u16, t.leaf_down(1) as u16]
        );
        // Cross leaf: four hops through the hashed spine.
        let r = t.route(0, t.hosts_per_leaf, 1);
        assert_eq!(r.hops(), 4);
        assert_eq!(r.port(0), t.host_uplink(0));
        assert_eq!(r.port(3), t.leaf_down(t.hosts_per_leaf));
        // Hash steers the spine.
        let r0 = t.route(0, t.hosts_per_leaf, 0);
        let r1 = t.route(0, t.hosts_per_leaf, 1);
        assert_ne!(r0.port(1), r1.port(1), "different hashes, different spines");
    }

    #[test]
    fn edge_ports_are_edge_rate() {
        let t = Topology::paper();
        assert_eq!(t.port_rate(t.host_uplink(5)), Rate::gbps(10));
        assert_eq!(t.port_rate(t.leaf_down(5)), Rate::gbps(10));
        assert_eq!(t.port_rate(t.leaf_up(0, 0)), Rate::gbps(40));
        assert_eq!(t.port_rate(t.spine_down(0, 0)), Rate::gbps(40));
    }

    #[test]
    fn bdp_is_a_handful_of_packets() {
        let t = Topology::paper();
        let bdp = t.bdp_packets();
        assert!(
            (4..40).contains(&bdp),
            "10G × ~10µs ≈ a dozen MTUs, got {bdp}"
        );
    }
}
