//! Runtime value representation and IR-level types.
//!
//! The IR is dynamically checked: every SSA value carries a [`Type`], and the
//! verifier enforces consistency, but the interpreter operates on tagged
//! [`Val`]s.
//!
//! Pointers are *region-based*: a pointer names an address space (shared
//! memory vs. the executing thread's local memory), a region within it (a
//! global variable, or one local allocation), and a word offset inside the
//! region. Accesses are bounds-checked against the region, so an
//! out-of-bounds index — e.g. one produced by an injected fault — traps
//! instead of silently reading a neighbouring object. This mirrors how
//! wild accesses on real hardware are often caught by OS memory protection,
//! which the paper counts on for its crash-vs-SDC breakdown.

use std::fmt;

/// IR-level type of an SSA value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    I64,
    /// 64-bit IEEE-754 float.
    F64,
    /// Boolean (branch conditions, comparison results).
    Bool,
    /// Pointer into shared or thread-local memory.
    Ptr,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Type::I64 => "i64",
            Type::F64 => "f64",
            Type::Bool => "bool",
            Type::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

/// Address space a pointer refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// Globally shared memory (visible to all threads). Regions are global
    /// variables, identified by their `GlobalId` index.
    Shared,
    /// The executing thread's private memory. Regions are individual
    /// allocations made by `alloca`.
    Local,
}

/// A region-based pointer: address space, region, and word offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ptr {
    /// Address space this pointer refers to.
    pub space: Space,
    /// Region index: the `GlobalId` index for shared pointers, the
    /// allocation index for local pointers.
    pub region: u32,
    /// Word offset within the region. Kept signed so that transiently
    /// negative intermediate offsets (`p + i - 1` evaluated left to right)
    /// round-trip; any access with a negative offset traps.
    pub offset: i64,
}

impl Ptr {
    /// A shared-memory pointer at the start of global region `region`.
    pub fn shared(region: u32) -> Self {
        Ptr { space: Space::Shared, region, offset: 0 }
    }

    /// A thread-local pointer at the start of allocation `region`.
    pub fn local(region: u32) -> Self {
        Ptr { space: Space::Local, region, offset: 0 }
    }

    /// Returns this pointer displaced by `delta` words.
    pub fn offset_by(self, delta: i64) -> Self {
        Ptr { space: self.space, region: self.region, offset: self.offset.wrapping_add(delta) }
    }
}

impl fmt::Display for Ptr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.space {
            Space::Shared => write!(f, "&shared[{}+{}]", self.region, self.offset),
            Space::Local => write!(f, "&local[{}+{}]", self.region, self.offset),
        }
    }
}

/// A dynamically tagged runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Val {
    /// 64-bit signed integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Pointer.
    Ptr(Ptr),
}

impl Val {
    /// The [`Type`] of this value.
    pub fn ty(&self) -> Type {
        match self {
            Val::I64(_) => Type::I64,
            Val::F64(_) => Type::F64,
            Val::Bool(_) => Type::Bool,
            Val::Ptr(_) => Type::Ptr,
        }
    }

    /// The integer payload, if this is an `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Val::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, if this is an `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Val::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Val::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The pointer payload, if this is a `Ptr`.
    pub fn as_ptr(&self) -> Option<Ptr> {
        match self {
            Val::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// A canonical 64-bit encoding of this value, used as the "condition
    /// witness" sent to the runtime monitor and as the target of
    /// condition-bit-flip fault injection.
    ///
    /// The pointer encoding packs space (1 bit), region (23 bits) and offset
    /// (40 bits, two's complement); pointers outside that range do not
    /// round-trip exactly, which is acceptable for witness hashing and makes
    /// flipped high bits land in the offset field.
    pub fn bits(&self) -> u64 {
        match self {
            Val::I64(v) => *v as u64,
            Val::F64(v) => v.to_bits(),
            Val::Bool(v) => *v as u64,
            Val::Ptr(p) => {
                let space = match p.space {
                    Space::Shared => 0u64,
                    Space::Local => 1u64 << 63,
                };
                let region = ((p.region as u64) & 0x7f_ffff) << 40;
                let offset = (p.offset as u64) & 0xff_ffff_ffff;
                space | region | offset
            }
        }
    }

    /// Reconstructs a value of type `ty` from a 64-bit encoding produced by
    /// [`Val::bits`] (possibly with bits flipped by fault injection).
    pub fn from_bits(ty: Type, bits: u64) -> Val {
        match ty {
            Type::I64 => Val::I64(bits as i64),
            Type::F64 => Val::F64(f64::from_bits(bits)),
            Type::Bool => Val::Bool(bits & 1 != 0),
            Type::Ptr => {
                let space = if bits & (1u64 << 63) != 0 { Space::Local } else { Space::Shared };
                let region = ((bits >> 40) & 0x7f_ffff) as u32;
                // Sign-extend the 40-bit offset.
                let offset = ((bits & 0xff_ffff_ffff) as i64) << 24 >> 24;
                Val::Ptr(Ptr { space, region, offset })
            }
        }
    }

    /// The default (zero) value of a type.
    pub fn zero(ty: Type) -> Val {
        match ty {
            Type::I64 => Val::I64(0),
            Type::F64 => Val::F64(0.0),
            Type::Bool => Val::Bool(false),
            Type::Ptr => Val::Ptr(Ptr::shared(0)),
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::I64(v) => write!(f, "{v}"),
            Val::F64(v) => write!(f, "{v:?}"),
            Val::Bool(v) => write!(f, "{v}"),
            Val::Ptr(p) => write!(f, "{p}"),
        }
    }
}

impl From<i64> for Val {
    fn from(v: i64) -> Self {
        Val::I64(v)
    }
}

impl From<f64> for Val {
    fn from(v: f64) -> Self {
        Val::F64(v)
    }
}

impl From<bool> for Val {
    fn from(v: bool) -> Self {
        Val::Bool(v)
    }
}

impl From<Ptr> for Val {
    fn from(v: Ptr) -> Self {
        Val::Ptr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        assert_eq!(Type::I64.to_string(), "i64");
        assert_eq!(Type::Ptr.to_string(), "ptr");
    }

    #[test]
    fn val_accessors() {
        assert_eq!(Val::I64(5).as_i64(), Some(5));
        assert_eq!(Val::I64(5).as_f64(), None);
        assert_eq!(Val::Bool(true).as_bool(), Some(true));
        assert_eq!(Val::F64(1.5).as_f64(), Some(1.5));
        assert_eq!(Val::Ptr(Ptr::shared(9)).as_ptr(), Some(Ptr::shared(9)));
    }

    #[test]
    fn bits_roundtrip_i64() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123456789] {
            let val = Val::I64(v);
            assert_eq!(Val::from_bits(Type::I64, val.bits()), val);
        }
    }

    #[test]
    fn bits_roundtrip_f64() {
        for v in [0.0f64, -1.5, f64::INFINITY, 2.25e10] {
            let val = Val::F64(v);
            assert_eq!(Val::from_bits(Type::F64, val.bits()), val);
        }
    }

    #[test]
    fn bits_roundtrip_bool() {
        assert_eq!(Val::from_bits(Type::Bool, Val::Bool(true).bits()), Val::Bool(true));
        assert_eq!(Val::from_bits(Type::Bool, Val::Bool(false).bits()), Val::Bool(false));
    }

    #[test]
    fn bits_roundtrip_ptr() {
        let cases = [
            Ptr::shared(0),
            Ptr::shared(12345),
            Ptr::local(0),
            Ptr::local(999),
            Ptr { space: Space::Shared, region: 3, offset: -5 },
            Ptr { space: Space::Local, region: 7, offset: 1 << 30 },
        ];
        for p in cases {
            let val = Val::Ptr(p);
            assert_eq!(Val::from_bits(Type::Ptr, val.bits()), val, "{p}");
        }
    }

    #[test]
    fn ptr_offset_moves_offset_only() {
        let p = Ptr::shared(10);
        assert_eq!(p.offset_by(5).offset, 5);
        assert_eq!(p.offset_by(5).region, 10);
        assert_eq!(p.offset_by(-3).offset, -3);
        assert_eq!(p.offset_by(0), p);
    }

    #[test]
    fn zero_values() {
        assert_eq!(Val::zero(Type::I64), Val::I64(0));
        assert_eq!(Val::zero(Type::Bool), Val::Bool(false));
    }

    #[test]
    fn bit_flip_changes_value() {
        let val = Val::I64(0);
        let flipped = Val::from_bits(Type::I64, val.bits() ^ (1 << 7));
        assert_eq!(flipped, Val::I64(128));
    }

    #[test]
    fn ptr_bit_flip_can_change_region() {
        let p = Val::Ptr(Ptr::shared(0));
        let flipped = Val::from_bits(Type::Ptr, p.bits() ^ (1 << 40));
        assert_eq!(flipped.as_ptr().unwrap().region, 1);
    }
}
