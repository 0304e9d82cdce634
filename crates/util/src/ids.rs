//! Strongly typed index newtypes.
//!
//! Arena-style data structures throughout the workspace (DOM nodes, features,
//! standards, sites, hosts, connections) index into vectors.
//! [`define_id!`](crate::define_id) generates a `u32` newtype per entity so
//! indices can't be mixed up.

/// Define a `u32`-backed index newtype with `new`, `index`, `Display`, and
/// ordering.
///
/// # Examples
///
/// ```
/// bfu_util::define_id!(WidgetId, "widget");
/// let w = WidgetId::new(3);
/// assert_eq!(w.index(), 3);
/// assert_eq!(w.to_string(), "widget#3");
/// ```
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Wrap a raw index.
            pub const fn new(ix: u32) -> Self {
                $name(ix)
            }

            /// Wrap a `usize` index (panics if it exceeds `u32::MAX`).
            pub fn from_usize(ix: usize) -> Self {
                $name(u32::try_from(ix).expect("index overflow"))
            }

            /// The raw index as `usize`, for slice access.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// The raw index as `u32`.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($tag, "#{}"), self.0)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    define_id!(TestId, "test");

    #[test]
    fn roundtrip() {
        let id = TestId::from_usize(41);
        assert_eq!(id.index(), 41);
        assert_eq!(id.raw(), 41);
        assert_eq!(id, TestId::new(41));
        assert_eq!(id.to_string(), "test#41");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(TestId::new(1) < TestId::new(2));
    }
}
