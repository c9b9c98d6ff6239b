//! # ppcs-transport
//!
//! The two-party messaging substrate for the ppcs protocols: framed
//! endpoints with per-endpoint traffic accounting, a compact wire codec,
//! a scoped-thread party runner, and one reactor for serving.
//!
//! Every protocol in this workspace (`ppcs-ot`, `ppcs-ompe`, `ppcs-core`)
//! is written sans-I/O against [`FrameIo`] — the role logic is a pure
//! state machine ([`ProtocolEngine`]) that never sees a socket — and the
//! [`Driver`] pumps any engine over an [`Endpoint`]. There is one kind of
//! endpoint: a framed socket, TCP between machines ([`tcp_connect`]) or
//! one half of a Unix socket pair between threads of one process
//! ([`duplex`]), so the traffic counters report exactly what crosses the
//! network and the [`AsyncDriver`] waits on file descriptors only. The
//! socket is framed in one place for both ways of waiting: the reader
//! and writer an [`Endpoint`] holds over a blocking socket are the ones
//! the reactor drives over a nonblocking one, so a receive that times
//! out mid-frame keeps its bytes whichever waits, and a party writes
//! when it is about to wait: every frame it sends between two waits
//! leaves in one `writev`, whichever waits. Any
//! session can be captured to a byte-serializable [`Transcript`] and
//! re-driven deterministically with [`replay`]. Faults for chaos testing
//! live in the link between two endpoints ([`faulty_pair`]), not in
//! either of them.
//!
//! A session lives on one lane from its first frame to its result: a
//! lane failure is injected into the engine, which ends with a typed
//! error. A call that must survive a dead lane is re-run on another
//! replica by `ppcs-core`'s `FleetClient`.
//!
//! ## Example
//!
//! ```
//! use ppcs_transport::{run_pair, Frame};
//!
//! let (bytes_sent, hello) = run_pair(
//!     |ep| {
//!         ep.send_msg(1, &vec![104u8, 105]).expect("send");
//!         ep.stats().bytes_sent
//!     },
//!     |ep| ep.recv_msg::<Vec<u8>>(1).expect("recv"),
//! );
//! assert_eq!(hello, b"hi");
//! assert_eq!(bytes_sent, (hello.len() + 8 + Frame::HEADER_LEN) as u64);
//! ```

// `deny` rather than `forbid`: the epoll reactor needs one `#[allow]`d
// module of raw syscall shims (`reactor::sys`) because the workspace is
// fully vendored and does not ship libc bindings. Everything else in the
// crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod async_driver;
mod channel;
mod driver;
mod engine;
mod error;
mod fault;
mod health;
mod reactor;
mod session;
mod tcp;
mod wire;

pub use async_driver::{AsyncDriver, AsyncEvent, ConnId};

pub use channel::{
    coalesce_frames, duplex, duplex_pool, run_pair, Endpoint, Frame, KindTraffic, Lane,
    TrafficStats, KIND_COALESCED, MAX_COALESCED_FRAMES,
};
pub use driver::{
    busy_frame, busy_retry_after, drive_blocking, replay, run_engine_pair, Direction, Driver,
    SessionLimits, Transcript, TranscriptEntry, KIND_BUSY,
};
pub use engine::{Engine, FrameIo, Outgoing, ProtocolEngine, RecvFut};
pub use error::{ErrorLayer, ProtocolError, TransportError};
pub use fault::{faulty_link, faulty_pair, FaultKind, FaultSchedule};
pub use health::{probe_health, probe_health_cancellable, HealthStatus, KIND_HEALTH};
pub use reactor::{Reactor, ReactorEvent};
pub use session::DriveOptions;
pub use tcp::{tcp_accept, tcp_connect};
pub use wire::{decode_seq, encode_seq, Encodable};
