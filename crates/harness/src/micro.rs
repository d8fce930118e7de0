//! Microbenchmarks: Figure 1 (primitive latency by platform), Figure 2
//! (indirect read vs two RDMA reads across deployments), and the §2.1
//! motivation numbers.
//!
//! These are closed-form projections from the calibrated
//! [`CostModel`] — exactly how the paper produces its "PRISM HW
//! (proj.)" series (§4.3) — with the software platform also validated
//! against the DES by `netsim`'s tests.

use prism_simnet::latency::{CostModel, Deployment, Platform, Primitive};

use crate::table::{f2, Table};

/// All four platforms in Figure 1's legend order.
pub const PLATFORMS: [Platform; 4] = [
    Platform::RdmaHw,
    Platform::PrismSw,
    Platform::PrismBlueField,
    Platform::PrismHwProjected,
];

/// Generates Figure 1: latency of each primitive on each platform,
/// 512-byte payloads, direct 25 GbE link.
pub fn figure1() -> Table {
    let model = CostModel::fig1();
    let mut headers = vec!["primitive"];
    headers.extend(PLATFORMS.iter().map(|p| p.label()));
    let mut t = Table::new(
        "Figure 1: PRISM primitive latency (us), 512 B, direct link",
        &headers,
    );
    for prim in Primitive::ALL {
        let mut row = vec![prim.label().to_string()];
        for platform in PLATFORMS {
            let us = model.primitive_latency(platform, prim).as_micros_f64();
            // Plain READ/WRITE do not exist as "PRISM" ops on the
            // BlueField / HW projection rows in the paper's figure, but
            // their cost is well-defined; report it for completeness.
            row.push(f2(us));
        }
        t.row(&row);
    }
    t
}

/// Generates Figure 2: indirect read latency, 2x RDMA vs the PRISM
/// platforms, for rack / cluster / datacenter deployments.
pub fn figure2() -> Table {
    let mut t = Table::new(
        "Figure 2: indirect read latency (us) vs deployment",
        &[
            "deployment",
            "2x RDMA",
            "PRISM SW",
            "PRISM BlueField",
            "PRISM HW (proj)",
        ],
    );
    for d in [
        Deployment::Rack,
        Deployment::Cluster,
        Deployment::Datacenter,
    ] {
        let m = CostModel::fig1().with_deployment(d);
        // Two reads: pointer (8 B) then data (512 B).
        let two_rdma =
            m.rdma_onesided_rtt(8).as_micros_f64() + m.rdma_onesided_rtt(512).as_micros_f64();
        let row = vec![
            d.label().to_string(),
            f2(two_rdma),
            f2(
                m.primitive_latency(Platform::PrismSw, Primitive::IndirectRead)
                    .as_micros_f64(),
            ),
            f2(
                m.primitive_latency(Platform::PrismBlueField, Primitive::IndirectRead)
                    .as_micros_f64(),
            ),
            f2(
                m.primitive_latency(Platform::PrismHwProjected, Primitive::IndirectRead)
                    .as_micros_f64(),
            ),
        ];
        t.row(&row);
    }
    t
}

/// Generates the §2.1 motivation numbers: one-sided READ vs two-sided
/// eRPC at 512 B on the 40 GbE testbed, and the two-reads-vs-one-RPC
/// comparison.
pub fn section2() -> Table {
    let m = CostModel::testbed();
    let onesided = m.rdma_onesided_rtt(512).as_micros_f64();
    let rpc = m.rpc_rtt(512).as_micros_f64();
    let two_reads = m.rdma_onesided_rtt(8).as_micros_f64() + onesided;
    let mut t = Table::new(
        "Section 2.1: one-sided vs two-sided (us), 512 B, 40 GbE",
        &["operation", "latency_us", "paper_us"],
    );
    t.row(&["one-sided READ".into(), f2(onesided), "3.2".into()]);
    t.row(&["two-sided eRPC".into(), f2(rpc), "5.6".into()]);
    t.row(&["2x one-sided READ".into(), f2(two_reads), ">5.6".into()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shapes_hold() {
        let model = CostModel::fig1();
        for prim in Primitive::ALL {
            let rdma = model.primitive_latency(Platform::RdmaHw, prim);
            let sw = model.primitive_latency(Platform::PrismSw, prim);
            let bf = model.primitive_latency(Platform::PrismBlueField, prim);
            let hw = model.primitive_latency(Platform::PrismHwProjected, prim);
            assert!(sw > rdma, "{}: SW above RDMA", prim.label());
            assert!(bf > sw, "{}: BlueField slowest", prim.label());
            assert!(
                hw >= rdma && hw < sw,
                "{}: HW between RDMA and SW",
                prim.label()
            );
        }
        // Render for smoke.
        assert!(figure1().render().contains("Enhanced-CAS"));
    }

    #[test]
    fn figure2_prism_wins_everywhere_and_gap_grows() {
        let t = figure2();
        let csv = t.to_csv();
        let mut prev_gap = 0.0;
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let two: f64 = cells[1].parse().unwrap();
            let sw: f64 = cells[2].parse().unwrap();
            assert!(sw < two, "PRISM SW must beat 2x RDMA ({line})");
            let gap = two - sw;
            assert!(gap > prev_gap, "gap must grow with network latency");
            prev_gap = gap;
        }
    }

    #[test]
    fn section2_matches_paper_numbers() {
        let s = section2().render();
        assert!(s.contains("one-sided READ"));
        let m = CostModel::testbed();
        assert!((m.rdma_onesided_rtt(512).as_micros_f64() - 3.2).abs() < 0.3);
        assert!((m.rpc_rtt(512).as_micros_f64() - 5.6).abs() < 0.4);
    }
}

/// Ablation: what operation chaining (§3.4) is worth. Each application
/// chain is compared against issuing the same primitives as separate
/// round trips on the software data plane.
pub fn chaining_ablation() -> Table {
    let m = CostModel::testbed();
    let mut t = Table::new(
        "Ablation: chained vs unchained round trips (us, software PRISM)",
        &["composite", "ops", "chained_us", "unchained_us", "saved_us"],
    );
    // One software round trip carrying an n-op chain, with a
    // `payload`-byte response.
    let sw_rtt = |ops: u64, payload: u64| -> f64 {
        let transport = m.rdma_onesided_rtt(payload).as_micros_f64() - m.pcie_rt.as_micros_f64()
            + m.host_dma.as_micros_f64();
        transport + m.sw_chain_latency(ops).as_micros_f64()
    };
    let rows: [(&str, u64, u64); 3] = [
        // PRISM-KV install: WRITE bound + ALLOCATE + CAS + readback (§6.1).
        ("KV PUT install", 4, 24),
        // PRISM-RS write phase: WRITE tag + ALLOCATE + CAS + readback (§7.3).
        ("RS write phase", 4, 24),
        // PRISM-TX commit, one key (§8.2).
        ("TX commit (1 key)", 4, 24),
    ];
    for (name, ops, resp) in rows {
        let chained = sw_rtt(ops, resp);
        let unchained: f64 = (0..ops).map(|_| sw_rtt(1, resp / ops)).sum();
        t.row(&[
            name.to_string(),
            ops.to_string(),
            f2(chained),
            f2(unchained),
            f2(unchained - chained),
        ]);
    }
    // Indirection ablation: bounded indirect READ vs pointer READ + data
    // READ (the Figure 2 comparison restated as an ablation).
    let indirect = m
        .primitive_latency(Platform::PrismSw, Primitive::IndirectRead)
        .as_micros_f64();
    let two_reads = sw_rtt(1, 8) + sw_rtt(1, 512);
    t.row(&[
        "KV GET (indirect vs 2 reads)".into(),
        2.to_string(),
        f2(indirect),
        f2(two_reads),
        f2(two_reads - indirect),
    ]);
    t
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn chaining_always_saves_round_trips() {
        let t = chaining_ablation();
        for line in t.to_csv().lines().skip(1) {
            let c: Vec<&str> = line.split(',').collect();
            let chained: f64 = c[2].parse().unwrap();
            let unchained: f64 = c[3].parse().unwrap();
            assert!(
                unchained > chained * 1.8,
                "{}: chaining must save at least ~half the cost ({} vs {})",
                c[0],
                chained,
                unchained
            );
        }
    }
}
