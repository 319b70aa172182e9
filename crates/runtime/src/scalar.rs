//! Plain-old-data scalars that can live in the shared heap.

mod private {
    pub trait Sealed {}
}

/// A fixed-size plain-old-data scalar storable in CLEAN's shared heap.
///
/// A value moves to and from the heap as its bit pattern, zero-extended
/// to a `u64`; the heap lays those bits out little-endian, one byte per
/// address, matching the byte-granular metadata the detector maintains
/// (Section 3.2: checks are performed "at the finest granularity at which
/// a program may access memory, i.e., for each byte").
///
/// This trait is sealed; it is implemented for the integer and float
/// primitives up to 8 bytes.
pub trait Scalar: Copy + Send + Sync + 'static + private::Sealed {
    /// Size of the value in bytes (1, 2, 4 or 8).
    const SIZE: usize;

    /// The value's bit pattern in the low `SIZE` bytes, upper bytes zero.
    fn to_bits(self) -> u64;

    /// The value whose bit pattern is the low `SIZE` bytes of `bits`.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty => $bits:ty),*) => {$(
        impl private::Sealed for $t {}
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn to_bits(self) -> u64 {
                <$bits>::from_ne_bytes(self.to_ne_bytes()) as u64
            }

            #[inline]
            fn from_bits(bits: u64) -> Self {
                <$t>::from_ne_bytes((bits as $bits).to_ne_bytes())
            }
        }
    )*};
}

impl_scalar!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64,
    f32 => u32, f64 => u64, usize => usize
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar + PartialEq + std::fmt::Debug>(v: T) {
        let bits = v.to_bits();
        if T::SIZE < 8 {
            assert_eq!(bits >> (T::SIZE * 8), 0, "{v:?} not zero-extended");
        }
        assert_eq!(T::from_bits(bits), v);
    }

    #[test]
    fn integer_roundtrips() {
        roundtrip(0xabu8);
        roundtrip(0xdeadu16);
        roundtrip(0xdead_beefu32);
        roundtrip(0xdead_beef_cafe_f00du64);
        roundtrip(-7i8);
        roundtrip(-31000i16);
        roundtrip(-2_000_000_000i32);
        roundtrip(i64::MIN);
        roundtrip(usize::MAX);
    }

    #[test]
    fn float_roundtrips() {
        roundtrip(3.5f32);
        roundtrip(-0.1f64);
        roundtrip(f64::INFINITY);
    }

    #[test]
    fn sizes() {
        assert_eq!(<u8 as Scalar>::SIZE, 1);
        assert_eq!(<u16 as Scalar>::SIZE, 2);
        assert_eq!(<f32 as Scalar>::SIZE, 4);
        assert_eq!(<u64 as Scalar>::SIZE, 8);
    }

    #[test]
    fn bits_are_the_value_not_a_sign_extension() {
        // Path syntax: on a float, method syntax picks the inherent
        // `f32::to_bits` and would not test the trait.
        assert_eq!(Scalar::to_bits(0x0403_0201u32), 0x0403_0201);
        assert_eq!(Scalar::to_bits(-1i8), 0xff);
        assert_eq!(Scalar::to_bits(-2i32), 0xffff_fffe);
        assert_eq!(Scalar::to_bits(1.0f32), 0x3f80_0000);
        assert_eq!(Scalar::to_bits(-2.0f64), 0xc000_0000_0000_0000);
        assert_eq!(<f32 as Scalar>::from_bits(0x3f80_0000), 1.0);
    }
}
