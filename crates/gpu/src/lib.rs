//! # neon-gpu
//!
//! A discrete-event model of a fast computational accelerator with a
//! *direct-mapped* user-space interface, in the style of the Nvidia GPUs
//! studied by the paper (Kepler/Fermi/Tesla generations).
//!
//! The model reproduces exactly the device behaviours the paper's
//! schedulers observe and depend on:
//!
//! - **Channels** ([`channel::Channel`]): per-task request queues backed
//!   by a ring buffer, submitted to by writing a *channel register* (the
//!   page the OS protects to intercept submissions).
//! - **Reference counters**: the device writes a per-channel counter on
//!   each request completion; the kernel's polling thread reads it to
//!   detect completion without interrupts.
//! - **Weighted round-robin arbitration** ([`device::Gpu`]): the compute
//!   engine cycles among channels with pending requests. Compute channels
//!   receive a higher arbitration weight than graphics channels,
//!   reproducing the paper's observation that glxgears requests complete
//!   at roughly one third the rate of an OpenCL co-runner.
//! - **Context-switch cost**: charged when consecutive requests come from
//!   different GPU contexts; the source of sub-1.0 direct-access
//!   concurrency efficiency for small requests.
//! - **A separate DMA engine**: DMA and compute overlap, the source of
//!   above-1.0 concurrency efficiency.
//! - **Bounded channel/context resources**: the §6.3 denial-of-service
//!   scenario (48 contexts exhaust the device) and the C/D allocation
//!   policy that prevents it.
//!
//! The device is passive: the simulation driver (in `neon-core`) calls
//! [`device::Gpu::submit`], [`device::Gpu::try_dispatch`] and
//! [`device::Gpu::complete_running`] and owns the event clock.
//!
//! # Example
//!
//! ```
//! use neon_gpu::{Gpu, GpuConfig, RequestKind, SubmitSpec, TaskId};
//! use neon_sim::{SimDuration, SimTime};
//!
//! let mut gpu = Gpu::new(GpuConfig::default());
//! let task = TaskId::new(0);
//! let ctx = gpu.create_context(task)?;
//! let ch = gpu.create_channel(ctx, RequestKind::Compute)?;
//!
//! let now = SimTime::ZERO;
//! gpu.submit(now, ch, SubmitSpec::compute(SimDuration::from_micros(50)))?;
//! let dispatch = gpu.try_dispatch(now, neon_gpu::EngineClass::Compute).unwrap();
//! let done = gpu.complete_running(dispatch.finish_at, neon_gpu::EngineClass::Compute);
//! assert_eq!(done.task, task);
//! assert_eq!(gpu.channel(ch).unwrap().completed_reference(), 1);
//! # Ok::<(), neon_gpu::GpuError>(())
//! ```

pub mod channel;
pub mod config;
pub mod device;
pub mod engine;
pub mod ids;
pub mod request;
pub mod topology;

pub use channel::{Channel, ChannelState};
pub use config::GpuConfig;
pub use device::{AbortSummary, CompletedRequest, DispatchOutcome, Gpu, GpuError};
pub use engine::EngineClass;
pub use ids::{ChannelId, ContextId, DeviceId, HostId, RequestId, TaskId};
pub use request::{Request, RequestKind, SubmitSpec};
pub use topology::{ClusterInterconnect, DeviceSlotSpec, InterconnectParams, LinkTier, Topology};
