//! # gcsm-gpusim — software model of the CPU–GPU memory system
//!
//! The paper runs its matching kernel on an RTX3090 connected over PCIe and
//! shows that the *entire* performance story of continuous subgraph matching
//! on out-of-core graphs is a data-movement story (Sec. II-C, Sec. VI):
//!
//! * **DMA** (`cudaMemcpy`) — efficient bulk transfers, but with a fixed
//!   setup cost per transaction;
//! * **zero-copy** — fine-grained loads of CPU pinned memory at cache-line
//!   (128 B) granularity, no setup cost, but every access crosses PCIe;
//! * **unified memory** — page (4 KiB) granularity with on-device page
//!   caching; catastrophic for fine-grained access (the paper measures
//!   69–210× slowdowns vs zero-copy);
//! * **device global memory** — fast (~760 GB/s) but capacity-limited.
//!
//! This crate reproduces those mechanisms in software. A [`Device`] owns a
//! set of atomic traffic counters; the matching engines route every
//! neighbor-list access through it, tagged with the access path taken. After
//! a run, [`Traffic::snapshot`] captures the traffic and
//! [`SimBreakdown::from_traffic`] converts it into a simulated execution
//! time using the calibrated constants in [`GpuConfig`]. The arithmetic work
//! (set-intersection element operations) is costed uniformly across engines,
//! so relative engine performance is decided by traffic alone — exactly the
//! quantity the paper's experiments isolate.
//!
//! The kernel executor ([`Device::launch`]) stands in for the CUDA grid: it
//! runs work items on a rayon pool (thread blocks → worker threads,
//! work-stealing standing in for STMatch's inter-block stealing) and charges
//! a per-launch overhead.

pub mod config;
pub mod counters;
pub mod device;
pub mod pagecache;
pub mod schedule;
pub mod simtime;

pub use config::GpuConfig;
pub use counters::{Traffic, TrafficSnapshot};
pub use device::{AccessPath, Device};
pub use pagecache::PageCache;
pub use schedule::{imbalance_factor, makespan, Scheduling};
pub use simtime::SimBreakdown;
