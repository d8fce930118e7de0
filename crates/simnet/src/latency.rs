//! The calibrated cost model: every latency constant the reproduction uses,
//! each tied to a number reported in the PRISM paper.
//!
//! The paper's measurements (§2.1, §4.3, Figures 1–2) pin down the
//! endpoints of the model:
//!
//! * one-sided RDMA op, 512 B, direct 25 GbE link: **2.5 µs** (§4.3);
//! * PRISM software primitives add **2.5–2.8 µs** on top (§4.3);
//! * one extra PCIe round trip: **~0.9 µs** (§4.3, citing Neugebauer et
//!   al. [35]) — the marginal cost of indirection on a hardware NIC;
//! * BlueField smart NIC: slower ARM dispatch plus **~3 µs** host-memory
//!   access (§4.3, footnote 1);
//! * two-sided eRPC, 512 B, 40 GbE: **5.6 µs**; one-sided READ there:
//!   **3.2 µs** (§2.1);
//! * added network latency: ToR switch **0.6 µs**, three-tier cluster
//!   **3 µs**, datacenter **24 µs** (Figure 2, §5).
//!
//! The model decomposes a round trip into client overhead, NIC processing,
//! wire propagation, PCIe host-memory access, serialization (computed from
//! bandwidth by [`crate::resources::LinkShaper`]), and CPU service for
//! software-dispatched operations. The decomposition is chosen so the sums
//! reproduce the paper's endpoint numbers; the individual terms are then
//! reused compositionally by the experiment harness.

use crate::time::SimDuration;

/// Where the simulated machines sit relative to each other; sets the extra
/// round-trip network latency per Figure 2 and §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Deployment {
    /// Direct NIC-to-NIC cable (Figure 1's worst case for PRISM).
    Direct,
    /// One top-of-rack switch: +0.6 µs per round trip (§5).
    Rack,
    /// Three-tier cluster network: +3 µs per round trip (Figure 2).
    Cluster,
    /// Reported Microsoft datacenter RDMA latency: +24 µs (Figure 2, [12]).
    Datacenter,
}

impl Deployment {
    /// Extra round-trip latency added by the network fabric.
    pub fn extra_rtt(self) -> SimDuration {
        match self {
            Deployment::Direct => SimDuration::ZERO,
            Deployment::Rack => SimDuration::from_nanos(600),
            Deployment::Cluster => SimDuration::micros(3),
            Deployment::Datacenter => SimDuration::micros(24),
        }
    }

    /// Human-readable label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            Deployment::Direct => "direct",
            Deployment::Rack => "rack",
            Deployment::Cluster => "cluster",
            Deployment::Datacenter => "datacenter",
        }
    }
}

/// How remote operations are executed (the four bars of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Classic one-sided RDMA executed by the NIC ASIC.
    RdmaHw,
    /// PRISM primitives executed by dedicated host cores (the paper's
    /// software prototype, §4.1).
    PrismSw,
    /// PRISM primitives executed on a BlueField smart NIC's ARM cores
    /// (§4.3), with off-path host memory access.
    PrismBlueField,
    /// Projected fixed-function NIC implementation of PRISM (§4.3):
    /// RDMA cost plus extra PCIe round trips.
    PrismHwProjected,
}

impl Platform {
    /// Label used in harness output (matches Figure 1's legend).
    pub fn label(self) -> &'static str {
        match self {
            Platform::RdmaHw => "RDMA",
            Platform::PrismSw => "PRISM SW",
            Platform::PrismBlueField => "PRISM BlueField",
            Platform::PrismHwProjected => "PRISM HW (proj.)",
        }
    }
}

/// The remote primitives whose latency Figure 1 reports, plus the plain
/// two-sided RPC used by the baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// One-sided READ (512 B in Figure 1).
    Read,
    /// One-sided WRITE.
    Write,
    /// READ with the indirect bit set (one pointer chase).
    IndirectRead,
    /// ALLOCATE: pop a buffer, write payload, return its address.
    Allocate,
    /// Enhanced CAS: masked, up-to-32-byte, arithmetic comparison.
    EnhancedCas,
}

impl Primitive {
    /// All primitives, in Figure 1's bar order.
    pub const ALL: [Primitive; 5] = [
        Primitive::Read,
        Primitive::Write,
        Primitive::IndirectRead,
        Primitive::Allocate,
        Primitive::EnhancedCas,
    ];

    /// Label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            Primitive::Read => "Read",
            Primitive::Write => "Write",
            Primitive::IndirectRead => "Indirect Read",
            Primitive::Allocate => "Allocate",
            Primitive::EnhancedCas => "Enhanced-CAS",
        }
    }

    /// Host-memory accesses beyond the single access a plain READ/WRITE
    /// performs. Drives the PCIe surcharge of the hardware projection and
    /// the host-access surcharge on the BlueField.
    fn extra_host_accesses(self) -> u64 {
        match self {
            Primitive::Read | Primitive::Write => 0,
            // Pointer fetch, then the data access.
            Primitive::IndirectRead => 1,
            // Free-list pop (on-NIC queue) then payload write; address
            // return rides the response.
            Primitive::Allocate => 1,
            // 32-byte masked read-modify-write takes one extra transaction
            // relative to the 8-byte atomic the adder already serves.
            Primitive::EnhancedCas => 1,
        }
    }

    /// CPU execution time of this primitive in the software prototype, on
    /// top of the base transport cost. Calibrated so the Figure 1 bars add
    /// 2.5–2.8 µs over RDMA (§4.3).
    fn sw_exec(self) -> SimDuration {
        match self {
            Primitive::Read | Primitive::Write | Primitive::IndirectRead => SW_SINGLE_EXEC,
            Primitive::Allocate => SimDuration::from_nanos(2_600),
            Primitive::EnhancedCas => SimDuration::from_nanos(2_800),
        }
    }
}

/// Software data-plane execution of one plain primitive (READ, WRITE,
/// indirect READ): the calibrated single-primitive cost of §4.3.
const SW_SINGLE_EXEC: SimDuration = SimDuration::from_nanos(2_500);

/// Every calibrated constant of the simulated testbed.
///
/// Fields are public so experiments can report exactly what they ran with;
/// construct via [`CostModel::fig1`] (direct 25 GbE microbenchmark rig) or
/// [`CostModel::testbed`] (the 40 GbE application cluster of §5).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Client request post + completion polling overhead per operation.
    pub client_overhead: SimDuration,
    /// Fixed NIC processing per message, per NIC traversal.
    pub nic_proc: SimDuration,
    /// One-way wire propagation on a direct cable.
    pub wire_oneway: SimDuration,
    /// One PCIe round trip: NIC access to host memory (§4.3 cites ~0.9 µs).
    pub pcie_rt: SimDuration,
    /// DMA of an inbound request into host memory before CPU dispatch
    /// (software paths only).
    pub host_dma: SimDuration,
    /// Worker occupancy per two-sided RPC (limits RPC throughput on the
    /// 16-core pool).
    pub rpc_core_occupancy: SimDuration,
    /// Extra latency of a two-sided RPC beyond occupancy: polling,
    /// dispatch, response post. Calibrated so 512 B RPC = 5.6 µs (§2.1).
    pub rpc_dispatch: SimDuration,
    /// Worker occupancy per PRISM software primitive (lean dispatch loop).
    pub prism_core_occupancy: SimDuration,
    /// Extra occupancy per additional chained primitive after the first.
    pub prism_chain_step: SimDuration,
    /// ARM dispatch overhead on the BlueField.
    pub bluefield_dispatch: SimDuration,
    /// BlueField host-memory access (off-path, via internal switch): ~3 µs.
    pub bluefield_host_access: SimDuration,
    /// Link bandwidth in Gb/s.
    pub link_gbps: f64,
    /// Per-message wire overhead in bytes (Ethernet + IB/UDP headers).
    pub header_bytes: u64,
    /// Dedicated server cores for RPC + PRISM dispatch (§6.2: 16).
    pub server_cores: usize,
    /// Where the machines sit (extra round-trip latency).
    pub deployment: Deployment,
}

impl CostModel {
    /// The Figure 1 microbenchmark rig: two machines, ConnectX-5 25 GbE,
    /// direct cable (§4.3).
    pub fn fig1() -> Self {
        CostModel {
            client_overhead: SimDuration::from_nanos(300),
            nic_proc: SimDuration::from_nanos(200),
            wire_oneway: SimDuration::from_nanos(150),
            pcie_rt: SimDuration::from_nanos(900),
            host_dma: SimDuration::from_nanos(900),
            rpc_core_occupancy: SimDuration::from_nanos(1_200),
            rpc_dispatch: SimDuration::from_nanos(1_100),
            prism_core_occupancy: SimDuration::from_nanos(500),
            prism_chain_step: SimDuration::from_nanos(150),
            bluefield_dispatch: SimDuration::from_nanos(2_000),
            bluefield_host_access: SimDuration::from_nanos(3_000),
            link_gbps: 25.0,
            header_bytes: 66,
            server_cores: 16,
            deployment: Deployment::Direct,
        }
    }

    /// The application testbed of §5: 12 machines, 40 GbE, one Arista ToR
    /// switch (+0.6 µs).
    pub fn testbed() -> Self {
        CostModel {
            link_gbps: 40.0,
            deployment: Deployment::Rack,
            ..CostModel::fig1()
        }
    }

    /// The same rig moved to a different deployment tier (Figure 2).
    pub fn with_deployment(mut self, d: Deployment) -> Self {
        self.deployment = d;
        self
    }

    /// Serialization delay of `bytes` payload plus headers at link speed.
    pub fn serialization(&self, payload_bytes: u64) -> SimDuration {
        let bits = (payload_bytes + self.header_bytes) as f64 * 8.0;
        SimDuration::from_nanos((bits / self.link_gbps).round() as u64)
    }

    /// Base transport round trip common to every remote operation:
    /// client overhead, two NIC traversals each way, wire both ways plus
    /// deployment surcharge, and response serialization.
    fn transport_rtt(&self, response_payload: u64) -> SimDuration {
        self.client_overhead
            + self.nic_proc * 4
            + self.wire_oneway * 2
            + self.deployment.extra_rtt()
            + self.serialization(response_payload)
    }

    /// Latency of one one-sided hardware RDMA op with a `payload`-byte
    /// response (READ) or request (WRITE): transport plus one PCIe host
    /// memory access.
    pub fn rdma_onesided_rtt(&self, payload: u64) -> SimDuration {
        self.transport_rtt(payload) + self.pcie_rt
    }

    /// Latency of one two-sided RPC carrying `payload` bytes in the
    /// response, excluding any queueing (the DES adds queueing).
    pub fn rpc_rtt(&self, payload: u64) -> SimDuration {
        self.transport_rtt(payload) + self.host_dma + self.rpc_core_occupancy + self.rpc_dispatch
    }

    /// Unloaded latency of `primitive` on `platform` with a 512 B payload —
    /// the closed form behind Figures 1 and 2.
    pub fn primitive_latency(&self, platform: Platform, primitive: Primitive) -> SimDuration {
        self.primitive_latency_sized(platform, primitive, 512)
    }

    /// [`CostModel::primitive_latency`] with an explicit payload size.
    pub fn primitive_latency_sized(
        &self,
        platform: Platform,
        primitive: Primitive,
        payload: u64,
    ) -> SimDuration {
        let payload = if primitive == Primitive::EnhancedCas {
            32 // CAS operands are at most 32 bytes (§3.3).
        } else {
            payload
        };
        match platform {
            Platform::RdmaHw => self.rdma_onesided_rtt(payload),
            Platform::PrismSw => {
                // Request DMA'd to host memory; a dedicated core executes
                // the primitive directly against host memory (§4.1).
                self.transport_rtt(payload) + self.host_dma + primitive.sw_exec()
            }
            Platform::PrismBlueField => {
                // Off-path ARM cores; every host-memory access crosses the
                // internal switch at ~3 µs (§4.3 footnote 1).
                let host_accesses = 1 + primitive.extra_host_accesses();
                self.transport_rtt(payload)
                    + self.bluefield_dispatch
                    + self.bluefield_host_access * host_accesses
            }
            Platform::PrismHwProjected => {
                // RDMA op plus one extra PCIe round trip per extra host
                // access (§4.3's performance model).
                self.rdma_onesided_rtt(payload) + self.pcie_rt * primitive.extra_host_accesses()
            }
        }
    }

    /// Occupancy of one dispatch core while executing a PRISM chain of
    /// `ops` primitives (software platform).
    pub fn prism_chain_occupancy(&self, ops: u64) -> SimDuration {
        if ops == 0 {
            return SimDuration::ZERO;
        }
        self.prism_core_occupancy + self.prism_chain_step * (ops - 1)
    }

    /// Execution latency of a chain of `ops` primitives on the software
    /// data plane, from core dispatch to reply post: one dispatch per
    /// request plus [`CostModel::prism_chain_step`] per op, so a single
    /// primitive costs the calibrated 2.5 µs of §4.3 and each chained op
    /// adds only its step. The dispatch core is held for
    /// [`CostModel::prism_chain_occupancy`] of it.
    pub fn sw_chain_latency(&self, ops: u64) -> SimDuration {
        SW_SINGLE_EXEC - self.prism_chain_step + self.prism_chain_step * ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(d: SimDuration) -> f64 {
        d.as_micros_f64()
    }

    #[test]
    fn fig1_rdma_read_is_about_2_5us() {
        let m = CostModel::fig1();
        let rtt = us(m.rdma_onesided_rtt(512));
        assert!((rtt - 2.5).abs() < 0.15, "direct RDMA read 512B = {rtt}us");
    }

    #[test]
    fn prism_sw_adds_2_5_to_2_8_us() {
        let m = CostModel::fig1();
        for p in Primitive::ALL {
            let hw = us(m.primitive_latency(Platform::RdmaHw, p));
            let sw = us(m.primitive_latency(Platform::PrismSw, p));
            let extra = sw - hw;
            assert!(
                (2.4..=2.9).contains(&extra),
                "{}: PRISM SW overhead {extra}us",
                p.label()
            );
        }
    }

    #[test]
    fn section2_testbed_numbers() {
        // §2.1: 512 B one-sided read ≈ 3.2 µs, eRPC ≈ 5.6 µs (40 GbE + ToR).
        let m = CostModel::testbed();
        let onesided = us(m.rdma_onesided_rtt(512));
        let rpc = us(m.rpc_rtt(512));
        assert!((onesided - 3.2).abs() < 0.3, "one-sided = {onesided}us");
        assert!((rpc - 5.6).abs() < 0.4, "eRPC = {rpc}us");
        // The §2.1 punchline: two one-sided reads are slower than one RPC.
        assert!(2.0 * onesided > rpc);
    }

    #[test]
    fn bluefield_is_slowest_platform() {
        let m = CostModel::fig1();
        for p in Primitive::ALL {
            let bf = m.primitive_latency(Platform::PrismBlueField, p);
            for other in [
                Platform::RdmaHw,
                Platform::PrismSw,
                Platform::PrismHwProjected,
            ] {
                assert!(
                    bf > m.primitive_latency(other, p),
                    "{}: BlueField must be slowest (§4.3)",
                    p.label()
                );
            }
        }
    }

    #[test]
    fn hw_projection_close_to_rdma() {
        let m = CostModel::fig1();
        let rdma = us(m.primitive_latency(Platform::RdmaHw, Primitive::IndirectRead));
        let proj = us(m.primitive_latency(Platform::PrismHwProjected, Primitive::IndirectRead));
        assert!((proj - rdma - 0.9).abs() < 1e-6, "one extra PCIe RT");
    }

    #[test]
    fn fig2_prism_sw_beats_two_rdma_reads_at_every_tier() {
        for d in [
            Deployment::Rack,
            Deployment::Cluster,
            Deployment::Datacenter,
        ] {
            let m = CostModel::fig1().with_deployment(d);
            let two_reads = us(m.rdma_onesided_rtt(8)) + us(m.rdma_onesided_rtt(512));
            let prism = us(m.primitive_latency(Platform::PrismSw, Primitive::IndirectRead));
            assert!(
                prism < two_reads,
                "{}: PRISM SW {prism}us vs 2xRDMA {two_reads}us",
                d.label()
            );
        }
    }

    #[test]
    fn fig2_gap_grows_with_network_latency() {
        let gap = |d: Deployment| {
            let m = CostModel::fig1().with_deployment(d);
            let two = us(m.rdma_onesided_rtt(8)) + us(m.rdma_onesided_rtt(512));
            two - us(m.primitive_latency(Platform::PrismSw, Primitive::IndirectRead))
        };
        assert!(gap(Deployment::Rack) < gap(Deployment::Cluster));
        assert!(gap(Deployment::Cluster) < gap(Deployment::Datacenter));
    }

    #[test]
    fn chain_occupancy_scales_with_length() {
        let m = CostModel::fig1();
        assert_eq!(m.prism_chain_occupancy(0), SimDuration::ZERO);
        let one = m.prism_chain_occupancy(1);
        let three = m.prism_chain_occupancy(3);
        assert_eq!(
            three.as_nanos(),
            one.as_nanos() + 2 * m.prism_chain_step.as_nanos()
        );
    }

    #[test]
    fn sw_chain_latency_is_one_dispatch_plus_a_step_per_op() {
        let m = CostModel::fig1();
        assert_eq!(m.sw_chain_latency(1), SW_SINGLE_EXEC);
        assert_eq!(
            m.sw_chain_latency(4).as_nanos(),
            SW_SINGLE_EXEC.as_nanos() + 3 * m.prism_chain_step.as_nanos()
        );
        for ops in 1..8 {
            assert!(m.sw_chain_latency(ops) >= m.prism_chain_occupancy(ops));
        }
    }

    #[test]
    fn serialization_uses_headers() {
        let m = CostModel::fig1(); // 25 Gb/s
                                   // (512 + 66) * 8 / 25 = 184.96 ns
        assert_eq!(m.serialization(512).as_nanos(), 185);
    }

    #[test]
    fn deployment_labels_and_surcharges() {
        assert_eq!(Deployment::Rack.extra_rtt().as_nanos(), 600);
        assert_eq!(Deployment::Datacenter.extra_rtt().as_nanos(), 24_000);
        assert_eq!(Deployment::Cluster.label(), "cluster");
    }
}
