//! Identifiers for the resource principals and device objects.
//!
//! Newtypes keep the id spaces statically distinct (C-NEWTYPE): a
//! [`TaskId`] can never be confused with a [`ChannelId`] even though both
//! are small integers.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw index.
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw index.
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// The raw index as `usize`, for direct table indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Wraps a table index, checking that it fits the 32-bit id
            /// space instead of silently truncating.
            pub fn from_index(index: usize) -> Self {
                // lint: allow(unchecked-unwrap) — id tables are bounded far
                // below 2^32; overflowing the id space is unrecoverable.
                $name(u32::try_from(index).expect("id index exceeds u32"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }
    };
}

id_type! {
    /// The resource principal the schedulers provide fairness to — a
    /// process or virtual machine in the paper's terminology.
    TaskId, "T"
}

id_type! {
    /// A GPU context (address space); encapsulates channels whose
    /// requests may be causally related.
    ContextId, "ctx"
}

id_type! {
    /// A physical accelerator in a multi-device host. Context and
    /// channel id spaces are *per device*: a [`ChannelId`] is only
    /// meaningful together with the device that allocated it.
    DeviceId, "dev"
}

id_type! {
    /// One host (one simulated multi-device machine) of a fleet. Device,
    /// context and channel ids are per host.
    HostId, "host"
}

id_type! {
    /// A GPU request queue plus its software infrastructure (command
    /// buffer, ring buffer, channel register).
    ChannelId, "ch"
}

/// A globally unique request identifier (monotonic per device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(u64);

impl RequestId {
    /// Wraps a raw sequence number.
    pub const fn new(raw: u64) -> Self {
        RequestId(raw)
    }

    /// The raw sequence number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        assert_eq!(TaskId::new(3).raw(), 3);
        assert_eq!(TaskId::new(3).index(), 3);
        assert_eq!(ChannelId::from(9).raw(), 9);
        assert_eq!(RequestId::new(17).raw(), 17);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(TaskId::new(1).to_string(), "T1");
        assert_eq!(ContextId::new(2).to_string(), "ctx2");
        assert_eq!(ChannelId::new(3).to_string(), "ch3");
        assert_eq!(RequestId::new(4).to_string(), "req4");
        assert_eq!(DeviceId::new(5).to_string(), "dev5");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(TaskId::new(1) < TaskId::new(2));
        assert!(RequestId::new(10) > RequestId::new(9));
    }
}
