//! Messages exchanged between simulated hosts.

use crate::time::SimTime;
use redep_model::HostId;
use std::fmt;

/// A message in flight (or delivered) between two hosts.
///
/// The `size` used for bandwidth accounting is explicit rather than
/// `payload.len()` so that simulations can model headers, compression or
/// abstract workloads without materializing that many bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Message {
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Application payload.
    pub payload: Vec<u8>,
    /// Size in bytes used for transmission-time accounting.
    pub size: u64,
    /// When the message was sent.
    pub sent_at: SimTime,
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → {} ({} bytes, sent {})",
            self.src, self.dst, self.size, self.sent_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_endpoints() {
        let m = Message {
            src: HostId::new(0),
            dst: HostId::new(1),
            payload: vec![0; 4],
            size: 4,
            sent_at: SimTime::ZERO,
        };
        assert!(m.to_string().contains("h0 → h1"));
    }
}
