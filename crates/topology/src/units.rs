//! Physical units used throughout the workspace.
//!
//! All simulation and synthesis time is kept in **integer picoseconds**
//! ([`Time`]) so that event ordering is exact: the paper's link constants
//! (e.g. α = 0.5 µs, 1/β = 50 GB/s) and chunk sizes produce integral
//! picosecond costs without floating-point drift.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, stored as integer picoseconds.
///
/// `Time` is totally ordered and supports saturating-free checked arithmetic
/// through the standard operators (which panic on overflow in debug builds,
/// as integral types do).
///
/// ```
/// use tacos_topology::Time;
/// let alpha = Time::from_micros(0.5);
/// assert_eq!(alpha.as_ps(), 500_000);
/// assert_eq!(format!("{alpha}"), "500.000ns");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero instant / empty duration.
    pub const ZERO: Time = Time(0);
    /// The maximum representable time; used as an "unreachable" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from integer picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from (possibly fractional) nanoseconds.
    ///
    /// # Panics
    /// Panics if `ns` is negative or not finite.
    pub fn from_nanos(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "invalid nanosecond value: {ns}"
        );
        Time((ns * 1e3).round() as u64)
    }

    /// Creates a time from (possibly fractional) microseconds.
    ///
    /// # Panics
    /// Panics if `us` is negative or not finite.
    pub fn from_micros(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "invalid microsecond value: {us}"
        );
        Time((us * 1e6).round() as u64)
    }

    /// Creates a time from (possibly fractional) milliseconds.
    ///
    /// # Panics
    /// Panics if `ms` is negative or not finite.
    pub fn from_millis(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "invalid millisecond value: {ms}"
        );
        Time((ms * 1e9).round() as u64)
    }

    /// Creates a time from (possibly fractional) seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid second value: {secs}"
        );
        Time((secs * 1e12).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// This time expressed in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` iff this is `Time::ZERO`.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction (clamps at zero instead of panicking).
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: Time) -> Option<Time> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// The larger of two times.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0 as f64;
        if self.0 == 0 {
            write!(f, "0s")
        } else if ps < 1e3 {
            write!(f, "{}ps", self.0)
        } else if ps < 1e6 {
            write!(f, "{:.3}ns", ps / 1e3)
        } else if ps < 1e9 {
            write!(f, "{:.3}us", ps / 1e6)
        } else if ps < 1e12 {
            write!(f, "{:.3}ms", ps / 1e9)
        } else {
            write!(f, "{:.3}s", ps / 1e12)
        }
    }
}

/// Link bandwidth, stored as bytes per second.
///
/// The paper quotes bandwidths in decimal GB/s (10⁹ bytes per second); use
/// [`Bandwidth::gbps`] for those. β (the serialization delay per byte of the
/// α–β cost model) is the reciprocal, available as
/// [`Bandwidth::beta_ps_per_byte`].
///
/// ```
/// use tacos_topology::Bandwidth;
/// let bw = Bandwidth::gbps(50.0);
/// assert_eq!(bw.beta_ps_per_byte(), 20.0); // 20 ps per byte
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from decimal gigabytes per second (10⁹ B/s).
    ///
    /// # Panics
    /// Panics if `gbps` is not finite or not strictly positive.
    pub fn gbps(gbps: f64) -> Self {
        assert!(
            gbps.is_finite() && gbps > 0.0,
            "invalid bandwidth: {gbps} GB/s"
        );
        Bandwidth(gbps * 1e9)
    }

    /// Creates a bandwidth from raw bytes per second.
    ///
    /// # Panics
    /// Panics if `bps` is not finite or not strictly positive.
    pub fn bytes_per_sec(bps: f64) -> Self {
        assert!(bps.is_finite() && bps > 0.0, "invalid bandwidth: {bps} B/s");
        Bandwidth(bps)
    }

    /// Bandwidth in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Bandwidth in decimal GB/s.
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// β of the α–β model: serialization delay in picoseconds per byte.
    pub fn beta_ps_per_byte(self) -> f64 {
        1e12 / self.0
    }

    /// Time to serialize `size` bytes onto this link (β·n, no α).
    pub fn serialization_delay(self, size: ByteSize) -> Time {
        Time::from_ps((self.beta_ps_per_byte() * size.as_u64() as f64).round() as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GB/s", self.as_gbps())
    }
}

/// A data size in bytes.
///
/// Decimal constructors (`kb`, `mb`, `gb`) match the paper's collective
/// sizes ("1 GB All-Reduce"); binary constructors (`kib`, `mib`, `gib`) are
/// provided for completeness.
///
/// ```
/// use tacos_topology::ByteSize;
/// assert_eq!(ByteSize::gb(1).as_u64(), 1_000_000_000);
/// assert_eq!(ByteSize::mib(1).as_u64(), 1_048_576);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from a raw byte count.
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Decimal kilobytes (10³ bytes).
    pub const fn kb(n: u64) -> Self {
        ByteSize(n * 1_000)
    }

    /// Decimal megabytes (10⁶ bytes).
    pub const fn mb(n: u64) -> Self {
        ByteSize(n * 1_000_000)
    }

    /// Decimal gigabytes (10⁹ bytes).
    pub const fn gb(n: u64) -> Self {
        ByteSize(n * 1_000_000_000)
    }

    /// Binary kibibytes (2¹⁰ bytes).
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// Binary mebibytes (2²⁰ bytes).
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// Binary gibibytes (2³⁰ bytes).
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Integer division of the size into `parts` equal pieces (truncating).
    ///
    /// # Panics
    /// Panics if `parts` is zero.
    pub const fn split(self, parts: u64) -> ByteSize {
        ByteSize(self.0 / parts)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 < 1_000 {
            write!(f, "{}B", self.0)
        } else if b < 1e6 {
            write!(f, "{:.2}KB", b / 1e3)
        } else if b < 1e9 {
            write!(f, "{:.2}MB", b / 1e6)
        } else {
            write!(f, "{:.2}GB", b / 1e9)
        }
    }
}

/// Parses a human-readable byte size (`64MB`, `0.5GB`, `1.5GiB`,
/// `64 MB`, `512`).
///
/// The numeric part may be fractional and whitespace is allowed around
/// the number/unit split; the resulting byte count is rounded to the
/// nearest integer byte.
///
/// # Errors
/// Returns a message for unparseable or negative numbers and unknown
/// units.
pub fn parse_size(s: &str) -> Result<ByteSize, String> {
    let s = s.trim();
    let split = s.find(|c: char| c.is_ascii_alphabetic()).unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let value: f64 = num
        .trim()
        .parse()
        .map_err(|e| format!("bad size '{s}': {e}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!(
            "bad size '{s}': must be a finite non-negative value"
        ));
    }
    let multiplier: f64 = match unit.trim().to_ascii_uppercase().as_str() {
        "B" | "" => 1.0,
        "KB" => 1e3,
        "MB" => 1e6,
        "GB" => 1e9,
        "KIB" => 1024.0,
        "MIB" => 1024.0 * 1024.0,
        "GIB" => 1024.0 * 1024.0 * 1024.0,
        other => return Err(format!("unknown size unit '{other}'")),
    };
    Ok(ByteSize::bytes((value * multiplier).round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_size_accepts_fractional_values_and_inner_whitespace() {
        assert_eq!(parse_size("1GB").unwrap(), ByteSize::gb(1));
        assert_eq!(parse_size("1KB").unwrap(), ByteSize::kb(1));
        assert_eq!(parse_size("2GiB").unwrap(), ByteSize::gib(2));
        assert_eq!(parse_size("0.5GB").unwrap(), ByteSize::mb(500));
        assert_eq!(parse_size("1.5GiB").unwrap(), ByteSize::mib(1536));
        assert_eq!(parse_size("64 MB").unwrap(), ByteSize::mb(64));
        assert_eq!(parse_size("  2.5 KB ").unwrap(), ByteSize::bytes(2_500));
        assert_eq!(parse_size("0.25MB").unwrap(), ByteSize::kb(250));
        assert_eq!(parse_size("512").unwrap(), ByteSize::bytes(512));
        for bad in [
            "",
            "abc",
            "MB",
            "-1MB",
            "1..5MB",
            "1e999GB",
            "12parsecs",
            "NaNGB",
        ] {
            assert!(parse_size(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn time_constructors_are_exact() {
        assert_eq!(Time::from_ps(7).as_ps(), 7);
        assert_eq!(Time::from_nanos(30.0).as_ps(), 30_000);
        assert_eq!(Time::from_micros(0.5).as_ps(), 500_000);
        assert_eq!(Time::from_millis(1.5).as_ps(), 1_500_000_000);
        assert_eq!(Time::from_secs_f64(2.0).as_ps(), 2_000_000_000_000);
    }

    #[test]
    fn time_arithmetic() {
        let a = Time::from_ps(100);
        let b = Time::from_ps(40);
        assert_eq!((a + b).as_ps(), 140);
        assert_eq!((a - b).as_ps(), 60);
        assert_eq!((a * 3).as_ps(), 300);
        assert_eq!((a / 4).as_ps(), 25);
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: Time = [a, b, b].into_iter().sum();
        assert_eq!(total.as_ps(), 180);
    }

    #[test]
    fn time_display_picks_unit() {
        assert_eq!(format!("{}", Time::ZERO), "0s");
        assert_eq!(format!("{}", Time::from_ps(999)), "999ps");
        assert_eq!(format!("{}", Time::from_ps(1_500)), "1.500ns");
        assert_eq!(format!("{}", Time::from_micros(2.25)), "2.250us");
        assert_eq!(format!("{}", Time::from_millis(3.0)), "3.000ms");
        assert_eq!(format!("{}", Time::from_secs_f64(1.25)), "1.250s");
    }

    #[test]
    fn time_ordering_and_conversion() {
        assert!(Time::from_ps(1) < Time::from_ps(2));
        assert_eq!(Time::from_secs_f64(0.5).as_secs_f64(), 0.5);
        assert_eq!(Time::from_micros(12.0).as_micros_f64(), 12.0);
    }

    #[test]
    #[should_panic(expected = "invalid microsecond value")]
    fn time_rejects_negative() {
        let _ = Time::from_micros(-1.0);
    }

    #[test]
    fn bandwidth_beta() {
        // 50 GB/s => 20 ps per byte (paper's default link).
        let bw = Bandwidth::gbps(50.0);
        assert!((bw.beta_ps_per_byte() - 20.0).abs() < 1e-9);
        // 1 GB over 50 GB/s = 20 ms.
        let t = bw.serialization_delay(ByteSize::gb(1));
        assert_eq!(t, Time::from_millis(20.0));
    }

    #[test]
    fn bandwidth_display_and_accessors() {
        let bw = Bandwidth::gbps(150.0);
        assert_eq!(bw.as_gbps(), 150.0);
        assert_eq!(format!("{bw}"), "150.00GB/s");
        let raw = Bandwidth::bytes_per_sec(1e9);
        assert_eq!(raw.as_gbps(), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::gbps(0.0);
    }

    #[test]
    fn byte_size_units() {
        assert_eq!(ByteSize::kb(1).as_u64(), 1_000);
        assert_eq!(ByteSize::mb(2).as_u64(), 2_000_000);
        assert_eq!(ByteSize::gb(1).as_u64(), 1_000_000_000);
        assert_eq!(ByteSize::kib(1).as_u64(), 1_024);
        assert_eq!(ByteSize::mib(1).as_u64(), 1_048_576);
        assert_eq!(ByteSize::gib(1).as_u64(), 1_073_741_824);
    }

    #[test]
    fn byte_size_split_and_sum() {
        let total = ByteSize::gb(1);
        let per_chunk = total.split(64);
        assert_eq!(per_chunk.as_u64(), 15_625_000);
        assert_eq!(per_chunk * 64, total);
        let sum: ByteSize = vec![ByteSize::kb(1); 3].into_iter().sum();
        assert_eq!(sum, ByteSize::bytes(3_000));
    }

    #[test]
    fn byte_size_display() {
        assert_eq!(format!("{}", ByteSize::bytes(12)), "12B");
        assert_eq!(format!("{}", ByteSize::kb(1)), "1.00KB");
        assert_eq!(format!("{}", ByteSize::mb(512)), "512.00MB");
        assert_eq!(format!("{}", ByteSize::gb(2)), "2.00GB");
    }
}
