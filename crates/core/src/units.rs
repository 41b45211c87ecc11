//! Strongly-typed quantities used throughout the Workflow Roofline Model.
//!
//! All quantities are stored in SI base units (`bytes`, `flops`, `seconds`)
//! as `f64`. Decimal SI prefixes are used (1 GB = 1e9 bytes), matching the
//! conventions of the paper and of HPC system white papers.
//!
//! The newtypes prevent the classic modelling bug of dividing a byte volume
//! by a FLOP rate: [`Work`] divided by [`Rate`] is only defined when the
//! units agree (see [`Work::time_at`]).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Formats a positive value with engineering (power-of-1000) prefixes.
pub(crate) fn si(value: f64, unit: &str) -> String {
    if value == 0.0 {
        return format!("0 {unit}");
    }
    if !value.is_finite() {
        return format!("{value} {unit}");
    }
    const PREFIXES: [(f64, &str); 7] = [
        (1e18, "E"),
        (1e15, "P"),
        (1e12, "T"),
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
    ];
    let magnitude = value.abs();
    for (scale, prefix) in PREFIXES {
        if magnitude >= scale {
            let scaled = value / scale;
            // Up to 3 significant-ish digits, trimming trailing zeros.
            let text = if scaled >= 100.0 {
                format!("{scaled:.0}")
            } else if scaled >= 10.0 {
                format!("{scaled:.1}")
            } else {
                format!("{scaled:.2}")
            };
            let text = text.trim_end_matches('0').trim_end_matches('.');
            return format!("{text} {prefix}{unit}");
        }
    }
    format!("{value:.3e} {unit}")
}

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Raw value in base units.
            #[inline]
            pub fn get(self) -> f64 {
                self.0
            }

            /// True when the value is finite and non-negative.
            #[inline]
            pub fn is_valid(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&si(self.0, $unit))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// A data volume in bytes (decimal SI: 1 GB = 1e9 bytes).
    Bytes,
    "B"
);
quantity!(
    /// A count of floating-point operations.
    Flops,
    "FLOP"
);
quantity!(
    /// A duration in seconds.
    Seconds,
    "s"
);
quantity!(
    /// A data rate in bytes per second.
    BytesPerSec,
    "B/s"
);
quantity!(
    /// A compute rate in FLOP per second.
    FlopsPerSec,
    "FLOP/s"
);
quantity!(
    /// Workflow throughput in tasks per second (the y-axis of the model).
    TasksPerSec,
    "task/s"
);

impl Bytes {
    /// Megabytes (1e6 bytes).
    pub fn mb(v: f64) -> Self {
        Self(v * 1e6)
    }
    /// Gigabytes (1e9 bytes).
    pub fn gb(v: f64) -> Self {
        Self(v * 1e9)
    }
    /// Terabytes (1e12 bytes).
    pub fn tb(v: f64) -> Self {
        Self(v * 1e12)
    }
}

impl Flops {
    /// GigaFLOPs (1e9).
    pub fn gflops(v: f64) -> Self {
        Self(v * 1e9)
    }
    /// TeraFLOPs (1e12).
    pub fn tflops(v: f64) -> Self {
        Self(v * 1e12)
    }
    /// PetaFLOPs (1e15).
    pub fn pflops(v: f64) -> Self {
        Self(v * 1e15)
    }
}

impl Seconds {
    /// Whole seconds.
    pub fn secs(v: f64) -> Self {
        Self(v)
    }
    /// Minutes.
    pub fn minutes(v: f64) -> Self {
        Self(v * 60.0)
    }
}

impl BytesPerSec {
    /// GB/s (1e9 bytes per second).
    pub fn gbps(v: f64) -> Self {
        Self(v * 1e9)
    }
    /// TB/s (1e12 bytes per second).
    pub fn tbps(v: f64) -> Self {
        Self(v * 1e12)
    }
}

impl FlopsPerSec {
    /// GFLOP/s.
    pub fn gflops(v: f64) -> Self {
        Self(v * 1e9)
    }
    /// TFLOP/s.
    pub fn tflops(v: f64) -> Self {
        Self(v * 1e12)
    }
    /// PFLOP/s.
    pub fn pflops(v: f64) -> Self {
        Self(v * 1e15)
    }
}

impl Div<BytesPerSec> for Bytes {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: BytesPerSec) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<FlopsPerSec> for Flops {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: FlopsPerSec) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<Seconds> for Bytes {
    type Output = BytesPerSec;
    #[inline]
    fn div(self, rhs: Seconds) -> BytesPerSec {
        BytesPerSec(self.0 / rhs.0)
    }
}

impl Div<Seconds> for Flops {
    type Output = FlopsPerSec;
    #[inline]
    fn div(self, rhs: Seconds) -> FlopsPerSec {
        FlopsPerSec(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for BytesPerSec {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Seconds) -> Bytes {
        Bytes(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for FlopsPerSec {
    type Output = Flops;
    #[inline]
    fn mul(self, rhs: Seconds) -> Flops {
        Flops(self.0 * rhs.0)
    }
}

/// The dimension of a work volume or a rate: data movement or computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkUnit {
    /// Data movement, measured in bytes.
    Bytes,
    /// Floating-point computation, measured in FLOPs.
    Flops,
}

impl fmt::Display for WorkUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkUnit::Bytes => f.write_str("bytes"),
            WorkUnit::Flops => f.write_str("flops"),
        }
    }
}

/// A work volume with its dimension: either a data volume or a FLOP count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Work {
    /// Data movement volume.
    Bytes(Bytes),
    /// Floating-point operation count.
    Flops(Flops),
}

impl Work {
    /// The dimension of this work volume.
    pub fn unit(self) -> WorkUnit {
        match self {
            Work::Bytes(_) => WorkUnit::Bytes,
            Work::Flops(_) => WorkUnit::Flops,
        }
    }

    /// Raw magnitude in base units (bytes or flops).
    pub fn magnitude(self) -> f64 {
        match self {
            Work::Bytes(b) => b.get(),
            Work::Flops(f) => f.get(),
        }
    }

    /// Time to retire this work at `rate`, or `None` on unit mismatch.
    pub fn time_at(self, rate: Rate) -> Option<Seconds> {
        match (self, rate) {
            (Work::Bytes(b), Rate::BytesPerSec(r)) => Some(b / r),
            (Work::Flops(w), Rate::FlopsPerSec(r)) => Some(w / r),
            _ => None,
        }
    }

    /// Adds two work volumes of the same dimension; `None` on mismatch.
    pub fn checked_add(self, other: Work) -> Option<Work> {
        match (self, other) {
            (Work::Bytes(a), Work::Bytes(b)) => Some(Work::Bytes(a + b)),
            (Work::Flops(a), Work::Flops(b)) => Some(Work::Flops(a + b)),
            _ => None,
        }
    }

    /// Scales the volume by a dimensionless factor.
    pub fn scale(self, factor: f64) -> Work {
        match self {
            Work::Bytes(b) => Work::Bytes(b * factor),
            Work::Flops(f) => Work::Flops(f * factor),
        }
    }
}

impl fmt::Display for Work {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Work::Bytes(b) => b.fmt(f),
            Work::Flops(w) => w.fmt(f),
        }
    }
}

/// A peak rate with its dimension: bandwidth or compute throughput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Rate {
    /// A bandwidth.
    BytesPerSec(BytesPerSec),
    /// A compute rate.
    FlopsPerSec(FlopsPerSec),
}

impl Rate {
    /// The dimension of this rate.
    pub fn unit(self) -> WorkUnit {
        match self {
            Rate::BytesPerSec(_) => WorkUnit::Bytes,
            Rate::FlopsPerSec(_) => WorkUnit::Flops,
        }
    }

    /// Raw magnitude in base units per second.
    pub fn magnitude(self) -> f64 {
        match self {
            Rate::BytesPerSec(r) => r.get(),
            Rate::FlopsPerSec(r) => r.get(),
        }
    }

    /// Scales the rate by a dimensionless factor.
    pub fn scale(self, factor: f64) -> Rate {
        match self {
            Rate::BytesPerSec(r) => Rate::BytesPerSec(r * factor),
            Rate::FlopsPerSec(r) => Rate::FlopsPerSec(r * factor),
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rate::BytesPerSec(r) => r.fmt(f),
            Rate::FlopsPerSec(r) => r.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_use_decimal_prefixes() {
        assert_eq!(Bytes::gb(1.0).get(), 1e9);
        assert_eq!(Bytes::tb(5.0).get(), 5e12);
        assert_eq!(Flops::pflops(1164.0).get(), 1.164e18);
        assert_eq!(BytesPerSec::tbps(5.6).get(), 5.6e12);
        assert_eq!(Seconds::minutes(10.0).get(), 600.0);
    }

    #[test]
    fn division_yields_time() {
        // LCLS good day: 1 TB per stream at 1 GB/s is ~1000 s.
        let t = Bytes::tb(1.0) / BytesPerSec::gbps(1.0);
        assert!((t.get() - 1000.0).abs() < 1e-9);
        // BGW 64-node node time: 4390 PFLOPs over 64 nodes at 38.8 TFLOP/s.
        let per_node = Flops::pflops(1164.0 + 3226.0) / 64.0;
        let t = per_node / FlopsPerSec::tflops(38.8);
        assert!((t.get() - 1768.0).abs() < 1.0, "got {}", t.get());
    }

    #[test]
    fn work_time_at_checks_units() {
        let w = Work::Bytes(Bytes::gb(80.0));
        let ok = w.time_at(Rate::BytesPerSec(BytesPerSec::gbps(100.0)));
        assert!((ok.unwrap().get() - 0.8).abs() < 1e-12);
        let bad = w.time_at(Rate::FlopsPerSec(FlopsPerSec::tflops(38.8)));
        assert!(bad.is_none());
    }

    #[test]
    fn work_checked_add_rejects_mixed_units() {
        let a = Work::Bytes(Bytes::gb(1.0));
        let b = Work::Flops(Flops::gflops(1.0));
        assert!(a.checked_add(b).is_none());
        let c = a.checked_add(Work::Bytes(Bytes::gb(2.0))).unwrap();
        assert!((c.magnitude() - 3e9).abs() < 1e-3);
    }

    #[test]
    fn display_uses_engineering_prefixes() {
        assert_eq!(BytesPerSec::tbps(5.6).to_string(), "5.6 TB/s");
        assert_eq!(FlopsPerSec::tflops(38.8).to_string(), "38.8 TFLOP/s");
        assert_eq!(Bytes::gb(70.0).to_string(), "70 GB");
        assert_eq!(Bytes::ZERO.to_string(), "0 B");
        assert_eq!(Seconds::secs(228.0).to_string(), "228 s");
    }

    #[test]
    fn arithmetic_ops() {
        let a = Bytes::gb(1.0) + Bytes::gb(2.0);
        assert_eq!(a, Bytes::gb(3.0));
        let b = a - Bytes::gb(1.0);
        assert_eq!(b, Bytes::gb(2.0));
        let c: Bytes = vec![Bytes::gb(1.0); 5].into_iter().sum();
        assert_eq!(c, Bytes::gb(5.0));
        assert_eq!(2.0 * Seconds::secs(3.0), Seconds::secs(6.0));
        assert!((Bytes::gb(4.0) / Bytes::gb(2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validity() {
        assert!(Bytes::gb(1.0).is_valid());
        assert!(!Bytes(-1.0).is_valid());
        assert!(!Bytes(f64::NAN).is_valid());
        assert!(!Seconds(f64::INFINITY).is_valid());
    }

    #[test]
    fn rate_scale() {
        // The LCLS bad-day contention: 5x decrease.
        let good = Rate::BytesPerSec(BytesPerSec::gbps(1.0));
        let bad = good.scale(0.2);
        assert!((bad.magnitude() - 0.2e9).abs() < 1e-3);
        assert_eq!(bad.unit(), WorkUnit::Bytes);
    }
}
