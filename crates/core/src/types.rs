//! Persistent type descriptions and pointer maps (§4.2 "Pointer maps").
//!
//! To relocate data, the Puddles system must be able to *find* every pointer
//! in a puddle. The paper attaches a 64-bit type id to every allocation and
//! registers, per type, a *pointer map*: the offsets of the pointer fields
//! inside objects of that type. C++ derives the id from `typeid()`; Rust has
//! no equivalent reflection, so persistent types implement the [`PmType`]
//! trait (usually through the [`impl_pm_type!`](crate::impl_pm_type) macro), declaring a stable
//! type name and the pointer-field offsets via `core::mem::offset_of!`.

use puddles_pmem::checksum::type_id_for_name;
use puddles_proto::{PtrField, PtrMapDecl};

/// A type that can be stored in a puddle and participates in relocation.
///
/// # Examples
///
/// ```
/// use puddles::{impl_pm_type, PmPtr, PmType};
///
/// #[repr(C)]
/// struct Node {
///     value: u64,
///     next: PmPtr<Node>,
/// }
/// impl_pm_type!(Node, "example::Node", [next => Node]);
///
/// assert_eq!(Node::pointer_fields().len(), 1);
/// assert_eq!(Node::pointer_fields()[0].offset, 8);
/// ```
pub trait PmType: Sized + 'static {
    /// Stable, globally unique name of the type (include a namespace; the
    /// 64-bit type id is a hash of this string).
    const TYPE_NAME: &'static str;

    /// Offsets of the pointer fields inside the type.
    fn pointer_fields() -> Vec<PtrField>;

    /// The 64-bit persistent type id.
    fn type_id() -> u64 {
        type_id_for_name(Self::TYPE_NAME)
    }

    /// The pointer-map declaration registered with the daemon.
    fn decl() -> PtrMapDecl {
        PtrMapDecl {
            type_id: Self::type_id(),
            type_name: Self::TYPE_NAME.to_string(),
            size: std::mem::size_of::<Self>() as u64,
            fields: Self::pointer_fields(),
        }
    }
}

/// Type id used for raw, pointer-free allocations (byte buffers).
pub const UNTYPED_TYPE_ID: u64 = 0;

/// Implements [`PmType`] for an existing `#[repr(C)]` struct.
///
/// The third argument lists the struct's pointer fields and the types they
/// point to: `[next => Node, left => Tree]`. Use `[]` for pointer-free
/// types.
///
/// # Examples
///
/// ```
/// use puddles::{impl_pm_type, PmPtr, PmType};
///
/// #[repr(C)]
/// struct Pair {
///     a: PmPtr<u64>,
///     b: PmPtr<u64>,
///     tag: u64,
/// }
/// impl_pm_type!(Pair, "example::Pair", [a => (), b => ()]);
/// assert_eq!(Pair::pointer_fields().len(), 2);
///
/// #[repr(C)]
/// struct Flat {
///     x: u64,
/// }
/// impl_pm_type!(Flat, "example::Flat", []);
/// assert!(Flat::pointer_fields().is_empty());
/// ```
#[macro_export]
macro_rules! impl_pm_type {
    ($ty:ty, $name:expr, []) => {
        impl $crate::PmType for $ty {
            const TYPE_NAME: &'static str = $name;
            fn pointer_fields() -> Vec<$crate::puddles_proto::PtrField> {
                Vec::new()
            }
        }
    };
    ($ty:ty, $name:expr, [$($field:ident => $target:tt),+ $(,)?]) => {
        impl $crate::PmType for $ty {
            const TYPE_NAME: &'static str = $name;
            fn pointer_fields() -> Vec<$crate::puddles_proto::PtrField> {
                vec![
                    $(
                        $crate::puddles_proto::PtrField {
                            offset: ::core::mem::offset_of!($ty, $field) as u64,
                            target_type: $crate::impl_pm_type!(@target $target),
                        }
                    ),+
                ]
            }
        }
    };
    (@target ()) => {
        $crate::types::UNTYPED_TYPE_ID
    };
    (@target $target:ty) => {
        <$target as $crate::PmType>::type_id()
    };
}

/// A volatile registry of the pointer maps known to this process, merged
/// from locally declared types and maps fetched from the daemon (needed to
/// rewrite imported data whose types this application never declared).
#[derive(Debug, Default, Clone)]
pub struct TypeRegistry {
    maps: std::collections::HashMap<u64, PtrMapDecl>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a pointer map.
    pub fn insert(&mut self, decl: PtrMapDecl) {
        self.maps.insert(decl.type_id, decl);
    }

    /// Adds a locally declared type.
    pub fn insert_type<T: PmType>(&mut self) {
        self.insert(T::decl());
    }

    /// Looks up the pointer map for a type id.
    pub fn get(&self, type_id: u64) -> Option<&PtrMapDecl> {
        self.maps.get(&type_id)
    }

    /// Returns the number of registered maps.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// Returns `true` if no maps are registered.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// Merges every map from `other` into `self`.
    pub fn merge(&mut self, other: impl IntoIterator<Item = PtrMapDecl>) {
        for decl in other {
            self.insert(decl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PmPtr;

    #[repr(C)]
    struct ListNode {
        value: u64,
        next: PmPtr<ListNode>,
    }
    impl_pm_type!(ListNode, "tests::ListNode", [next => ListNode]);

    #[repr(C)]
    struct TreeNode {
        key: u64,
        left: PmPtr<TreeNode>,
        right: PmPtr<TreeNode>,
        payload: PmPtr<u8>,
    }
    impl_pm_type!(
        TreeNode,
        "tests::TreeNode",
        [left => TreeNode, right => TreeNode, payload => ()]
    );

    #[repr(C)]
    struct Plain {
        a: u64,
        b: u64,
    }
    impl_pm_type!(Plain, "tests::Plain", []);

    #[test]
    fn type_ids_are_stable_hashes_of_names() {
        assert_eq!(
            ListNode::type_id(),
            puddles_pmem::checksum::type_id_for_name("tests::ListNode")
        );
        assert_ne!(ListNode::type_id(), TreeNode::type_id());
        assert_ne!(ListNode::type_id(), UNTYPED_TYPE_ID);
    }

    #[test]
    fn pointer_fields_report_correct_offsets() {
        let fields = ListNode::pointer_fields();
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].offset, 8);
        assert_eq!(fields[0].target_type, ListNode::type_id());

        let fields = TreeNode::pointer_fields();
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].offset, 8);
        assert_eq!(fields[1].offset, 16);
        assert_eq!(fields[2].offset, 24);
        assert_eq!(fields[2].target_type, UNTYPED_TYPE_ID);

        assert!(Plain::pointer_fields().is_empty());
    }

    #[test]
    fn decl_carries_size_and_name() {
        let decl = TreeNode::decl();
        assert_eq!(decl.size, std::mem::size_of::<TreeNode>() as u64);
        assert_eq!(decl.type_name, "tests::TreeNode");
    }

    #[test]
    fn registry_merges_and_looks_up() {
        let mut reg = TypeRegistry::new();
        assert!(reg.is_empty());
        reg.insert_type::<ListNode>();
        reg.insert_type::<TreeNode>();
        assert_eq!(reg.len(), 2);
        assert!(reg.get(ListNode::type_id()).is_some());
        assert!(reg.get(0xdead).is_none());

        let mut other = TypeRegistry::new();
        other.insert_type::<Plain>();
        reg.merge(other.maps.values().cloned().collect::<Vec<_>>());
        assert_eq!(reg.len(), 3);
    }
}
