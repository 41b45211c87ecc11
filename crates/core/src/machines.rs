//! Built-in machine models with the exact peaks from the paper's
//! artifact appendix (Perlmutter architecture white paper and the Cori
//! Haswell configuration).
//!
//! | machine | nodes | compute/node | mem BW/node | PCIe/node | FS | NIC/node | external |
//! |---|---|---|---|---|---|---|---|
//! | PM-GPU  | 1792 | 4 x 9.7 TFLOPS | 4 x 1555 GB/s HBM | 4 x 25 GB/s | 5.6 TB/s | 100 GB/s | 25 GB/s |
//! | PM-CPU  | 3072 | 5 TFLOPS | 2 x 204.8 GB/s DRAM | - | 4.8 TB/s | 25 GB/s | 25 GB/s |
//! | Cori-HSW | 2388 | 1.2 TFLOPS | 129 GB/s | - | 910 GB/s (BB) | 16 GB/s | 5 GB/s |
//!
//! Cori's external bandwidth is modelled as the 5 GB/s aggregate the paper
//! observes on good days (5 streams x 1 GB/s); contended scenarios scale it
//! down with [`crate::machine::Machine::with_scaled_resource`].

use crate::machine::Machine;
use crate::resource::ids;
use crate::units::{BytesPerSec, FlopsPerSec, Rate};

/// The Perlmutter GPU partition (PM-GPU): 1792 nodes of 1 AMD Milan +
/// 4 NVIDIA A100.
pub fn perlmutter_gpu() -> Machine {
    Machine::builder("Perlmutter GPU", 1792)
        .node(
            ids::COMPUTE,
            "GPU FLOPS",
            // 4 x 9.7 TFLOPS (FP64) per node.
            Rate::FlopsPerSec(FlopsPerSec::tflops(4.0 * 9.7)),
        )
        .node(
            ids::HBM,
            "HBM",
            // 4 x 1555 GB/s per node.
            Rate::BytesPerSec(BytesPerSec::gbps(4.0 * 1555.0)),
        )
        .node(
            ids::PCIE,
            "PCIe",
            // 4 x PCIe 4.0 at 25 GB/s/direction.
            Rate::BytesPerSec(BytesPerSec::gbps(4.0 * 25.0)),
        )
        .system(
            ids::FILE_SYSTEM,
            "File System",
            // 14 GPU groups x 4 I/O groups x 100 GB/s.
            BytesPerSec::tbps(5.6),
        )
        .system_per_node(
            ids::NETWORK,
            "System Network",
            // 4 PCIe 4.0 NICs per node, 100 GB/s/direction total.
            BytesPerSec::gbps(100.0),
        )
        .system(
            ids::EXTERNAL,
            "System External",
            // Data-transfer-node bandwidth to the internet.
            BytesPerSec::gbps(25.0),
        )
        .build()
        .expect("preset is valid")
}

/// The Perlmutter CPU partition (PM-CPU): 3072 nodes of 2 AMD Milan.
pub fn perlmutter_cpu() -> Machine {
    Machine::builder("Perlmutter CPU", 3072)
        .node(
            ids::COMPUTE,
            "CPU FLOPS",
            Rate::FlopsPerSec(FlopsPerSec::tflops(5.0)),
        )
        .node(
            ids::DRAM,
            "CPU Bytes",
            // 2 sockets x 204.8 GB/s. Per-socket figures in the paper
            // (e.g. GPTune's 3344 MB per socket) are divided by the
            // per-socket peak; use `dram_per_socket` for those.
            Rate::BytesPerSec(BytesPerSec::gbps(2.0 * 204.8)),
        )
        .system(
            ids::FILE_SYSTEM,
            "File System",
            // 12 CPU groups x 4 I/O groups x 100 GB/s.
            BytesPerSec::tbps(4.8),
        )
        .system_per_node(ids::NETWORK, "System Network", BytesPerSec::gbps(25.0))
        .system(ids::EXTERNAL, "System External", BytesPerSec::gbps(25.0))
        .build()
        .expect("preset is valid")
}

/// Cori Haswell (Cori-HSW), the deprecated Cray XC40 used for the LCLS
/// case study: 2388 nodes, 910 GB/s aggregate burst-buffer bandwidth
/// (140 BB nodes x 6.5 GB/s), 129 GB/s memory bandwidth per node.
///
/// The external link defaults to the paper's good-day aggregate of
/// 5 GB/s (five 1 GB/s streams).
pub fn cori_haswell() -> Machine {
    Machine::builder("Cori Haswell", 2388)
        .node(
            ids::COMPUTE,
            "CPU FLOPS",
            // ~1.2 TFLOPS per dual-socket Haswell node.
            Rate::FlopsPerSec(FlopsPerSec::tflops(1.2)),
        )
        .node(
            ids::DRAM,
            "CPU Bytes",
            Rate::BytesPerSec(BytesPerSec::gbps(129.0)),
        )
        .system(
            ids::BURST_BUFFER,
            "System Internal",
            // 140 burst-buffer nodes x 6.5 GB/s.
            BytesPerSec::gbps(910.0),
        )
        .system_per_node(
            ids::NETWORK,
            "System Network",
            // Aries NIC injection bandwidth.
            BytesPerSec::gbps(16.0),
        )
        .system(ids::EXTERNAL, "System External", BytesPerSec::gbps(5.0))
        .build()
        .expect("preset is valid")
}

/// All built-in machines, for enumeration in CLIs and tests.
pub fn all() -> Vec<Machine> {
    vec![perlmutter_gpu(), perlmutter_cpu(), cori_haswell()]
}

/// The canonical short names accepted by [`by_name`], for help and
/// diagnostic text.
pub fn short_names() -> &'static [&'static str] {
    &["pm-gpu", "pm-cpu", "cori-hsw"]
}

/// Looks up a built-in machine by a case-insensitive short name:
/// `pm-gpu`, `pm-cpu`, or `cori-hsw` (aliases: `perlmutter-gpu`,
/// `perlmutter-cpu`, `cori-haswell`).
pub fn by_name(name: &str) -> Option<Machine> {
    match name.to_ascii_lowercase().as_str() {
        "pm-gpu" | "pm_gpu" | "perlmutter-gpu" | "perlmutter_gpu" => Some(perlmutter_gpu()),
        "pm-cpu" | "pm_cpu" | "perlmutter-cpu" | "perlmutter_cpu" => Some(perlmutter_cpu()),
        "cori-hsw" | "cori_hsw" | "cori-haswell" | "cori_haswell" => Some(cori_haswell()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_gpu_peaks_match_appendix() {
        let m = perlmutter_gpu();
        assert_eq!(m.total_nodes, 1792);
        let flops = m.node_resource(ids::COMPUTE).unwrap();
        assert!((flops.peak_per_node.magnitude() - 38.8e12).abs() < 1e6);
        let hbm = m.node_resource(ids::HBM).unwrap();
        assert!((hbm.peak_per_node.magnitude() - 6220e9).abs() < 1e6);
        let pcie = m.node_resource(ids::PCIE).unwrap();
        assert!((pcie.peak_per_node.magnitude() - 100e9).abs() < 1e-3);
        let fs = m.system_resource(ids::FILE_SYSTEM).unwrap();
        assert!((fs.peak.get() - 5.6e12).abs() < 1e-3);
        let nic = m.system_resource(ids::NETWORK).unwrap();
        assert!((nic.aggregate_for(64.0).get() - 6.4e12).abs() < 1e-3);
    }

    #[test]
    fn pm_cpu_peaks_match_appendix() {
        let m = perlmutter_cpu();
        assert_eq!(m.total_nodes, 3072);
        assert!(
            (m.node_resource(ids::COMPUTE)
                .unwrap()
                .peak_per_node
                .magnitude()
                - 5e12)
                .abs()
                < 1e-3
        );
        assert!(
            (m.node_resource(ids::DRAM)
                .unwrap()
                .peak_per_node
                .magnitude()
                - 409.6e9)
                .abs()
                < 1e-3
        );
        assert!((m.system_resource(ids::FILE_SYSTEM).unwrap().peak.get() - 4.8e12).abs() < 1e-3);
        assert!((m.system_resource(ids::EXTERNAL).unwrap().peak.get() - 25e9).abs() < 1e-3);
    }

    #[test]
    fn cori_peaks_match_appendix() {
        let m = cori_haswell();
        assert_eq!(m.total_nodes, 2388);
        assert!((m.system_resource(ids::BURST_BUFFER).unwrap().peak.get() - 910e9).abs() < 1e-3);
        assert!(
            (m.node_resource(ids::DRAM)
                .unwrap()
                .peak_per_node
                .magnitude()
                - 129e9)
                .abs()
                < 1e-3
        );
        assert!((m.system_resource(ids::EXTERNAL).unwrap().peak.get() - 5e9).abs() < 1e-3);
    }

    #[test]
    fn lcls_parallelism_walls_match_paper() {
        // Paper Fig. 5: system parallelism @ 74 tasks on Cori for 32-node
        // tasks (2388/32 = 74); Fig. 6: 384 tasks on PM-CPU (3072/8 = 384).
        assert_eq!(cori_haswell().parallelism_wall(32).unwrap(), 74);
        assert_eq!(perlmutter_cpu().parallelism_wall(8).unwrap(), 384);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("PM-GPU").unwrap().name, "Perlmutter GPU");
        assert_eq!(by_name("perlmutter_cpu").unwrap().name, "Perlmutter CPU");
        assert_eq!(by_name("cori-haswell").unwrap().name, "Cori Haswell");
        assert!(by_name("summit").is_none());
    }

    #[test]
    fn all_presets_validate() {
        for m in all() {
            m.validate().unwrap();
        }
        assert_eq!(all().len(), 3);
    }
}
